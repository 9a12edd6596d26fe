"""Config parsing, validation diagnostics, presets."""

from dataclasses import replace

import numpy as np
import pytest

import dampedns.config as config
import dampedns.fields as fields
from dampedns import ConfigError, FieldError, SchemeConfig, h_norm_sq, make_initial_condition, parse_config
from dampedns.config import (
    checked,
    build_forcing,
    build_grid,
    build_initial,
    build_physics,
    build_state,
    load_preset,
    preset_names,
    preset_text,
)

MINIMAL = """
[physics]
mu = 0.1
alpha = 0.2
beta = 1.0

[grid]
n = 8
l = 6.283185307179586
"""


class TestParsing:
    def test_minimal_config_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scheme.method == "if-rk2"
        assert cfg.scheme.adaptive is True
        assert cfg.diag_stride == 10
        assert cfg.forcing.kind == "zero"
        assert cfg.initial.kind == "zero"
        assert cfg.t_end == 1.0

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(MINIMAL + "\n# a comment\n\n[run]\nt_end = 2.0  # inline\n")
        assert cfg.t_end == 2.0

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "\n[run]\nt_start = 0.0\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 't_start'"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[solver]\nx = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("mu = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "\n[run]\nt_end = 1\nt_end = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("[physics]\nmu = 0.1\nalpha = 0.2\nbeta = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=r"line \d+: bad value"):
            parse_config(MINIMAL.replace("mu = 0.1", "mu = viscous"))

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[physics]\nmu 0.1\n")

    def test_vector_values(self):
        cfg = parse_config(MINIMAL + "\n[forcing]\nkind = cylinder\nforce = 0, 1.5, 0\n")
        assert cfg.forcing.force == (0.0, 1.5, 0.0)
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[forcing]\nforce = 1, 2\n")

    def test_boolean_values(self):
        cfg = parse_config(MINIMAL + "\n[scheme]\nadaptive = no\n")
        assert cfg.scheme.adaptive is False
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[scheme]\nadaptive = maybe\n")


class TestRangeChecks:
    def test_beta_below_one_rejected(self):
        with pytest.raises(ConfigError, match="beta must be >= 1"):
            parse_config(MINIMAL.replace("beta = 1.0", "beta = 0.5"))

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ConfigError, match="alpha must be > 0"):
            parse_config(MINIMAL.replace("alpha = 0.2", "alpha = 0.0"))
        with pytest.raises(ConfigError, match="alpha must be > 0"):
            parse_config(MINIMAL.replace("alpha = 0.2", "alpha = -1"))

    def test_mu_nonpositive_rejected(self):
        with pytest.raises(ConfigError, match="mu must be > 0"):
            parse_config(MINIMAL.replace("mu = 0.1", "mu = 0"))

    def test_grid_checks(self):
        with pytest.raises(ConfigError, match="even integer"):
            parse_config(MINIMAL.replace("n = 8", "n = 9"))
        with pytest.raises(ConfigError, match="l must be > 0"):
            parse_config(MINIMAL.replace("l = 6.283185307179586", "l = -2"))

    def test_scheme_checks_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[scheme]\nmethod = euler\n")
        with pytest.raises(ConfigError, match="unknown scheme 'if-rk4'"):
            parse_config(MINIMAL + "\n[scheme]\nmethod = if-rk4\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[scheme]\ndt = 1.0\ndt_max = 0.1\n")

    @pytest.mark.parametrize("line, section, replaces", [
        ("l = inf", "grid", "l = 6.283185307179586"),
        ("l = nan", "grid", "l = 6.283185307179586"),
        ("mu = nan", "physics", "mu = 0.1"),
        ("alpha = inf", "physics", "alpha = 0.2"),
        ("beta = nan", "physics", "beta = 1.0"),
        ("radius = -1", "forcing", None),
        ("height = 0", "forcing", None),
        ("smooth_cells = -1", "forcing", None),
        ("ic_energy = nan", "run", None),
        ("t_end = 0", "run", None),
    ])
    def test_out_of_range_names_section(self, line, section, replaces):
        text = MINIMAL.replace(replaces, line) if replaces else MINIMAL + f"\n[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
            parse_config(text)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^\[run\] ic_seed must be >= 0, got -1$"):
            parse_config(MINIMAL + "\n[run]\nic = random\nic_seed = -1\n")

    def test_replace_is_checked(self):
        with pytest.raises(ConfigError, match=r"^\[grid\] n must be an even integer"):
            replace(parse_config(MINIMAL), n=9)

    def test_run_checks(self):
        with pytest.raises(ConfigError, match="diag_stride"):
            parse_config(MINIMAL + "\n[run]\ndiag_stride = 0\n")
        with pytest.raises(ConfigError, match="ic must be"):
            parse_config(MINIMAL + "\n[run]\nic = vortex\n")
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(MINIMAL + "\n[run]\nt_end = -1\n")


def checked_message(section, flags, build):
    """The ConfigError message that ``checked(section, flags)`` makes of ``build()``'s error."""
    with pytest.raises(ConfigError) as info:
        with checked(section, flags):
            build()
    return str(info.value)


class TestChecked:
    def test_whole_keys_renamed_in_one_pass(self):
        message = checked_message("sweep", {"dt": "--dt", "dt_max": "--dt-max"},
                                  lambda: SchemeConfig(dt=0.0, dt_max=0.0))
        assert message == ("[sweep] need 0 < dt_min <= --dt <= --dt-max < inf, "
                           "got dt_min=1e-08, --dt=0.0, --dt-max=0.0")

    def test_one_letter_key_leaves_words_alone(self):
        message = checked_message("separate", {"n": "--n"}, lambda: SchemeConfig(dt=float("nan")))
        assert message == "[separate] need 0 < dt_min <= dt <= dt_max < inf, got dt_min=1e-08, dt=nan, dt_max=0.1"

    def test_config_error_resectioned_only_with_flags(self):
        def bad_grid():
            replace(parse_config(MINIMAL), n=9)

        assert checked_message("separate", None, bad_grid) == "[grid] n must be an even integer >= 4, got 9"
        assert checked_message("separate", {"n": "--n"}, bad_grid) == (
            "[separate] --n must be an even integer >= 4, got 9")


class TestBuilders:
    def test_build_pipeline(self):
        cfg = parse_config(MINIMAL + "\n[forcing]\nkind = cylinder\n"
                           "\n[run]\nic = random\nic_seed = 3\nic_energy = 2.0\n")
        grid = build_grid(cfg)
        assert grid.n == 8 and grid.length == pytest.approx(2 * np.pi)
        physics = build_physics(cfg, grid)
        assert physics.forcing.norm_sq > 0.0
        u0 = build_initial(cfg, grid)
        assert h_norm_sq(u0.coeffs, grid) == pytest.approx(2.0, abs=1e-12)
        state = build_state(cfg, grid)
        assert state.t == 0.0 and state.step_count == 0

    def test_zero_forcing_builder(self):
        cfg = parse_config(MINIMAL)
        assert build_forcing(cfg, build_grid(cfg)).norm_sq == 0.0


class TestFieldSpecs:
    """ForcingSpec and InitialSpec are declared in fields alone; the library
    entry points and the config builders reach the same bits through them."""

    def test_config_reexports_the_specs(self):
        assert config.ForcingSpec is fields.ForcingSpec
        assert config.InitialSpec is fields.InitialSpec

    def test_cylinder_two_ways_bitwise(self):
        params = dict(center=(2.0, 3.5, 4.0), radius=1.5, height=2.5, axis="z",
                      force=(1.0, 0.0, -0.5), smooth_cells=0.5)
        cfg = parse_config(MINIMAL + "\n[forcing]\nkind = cylinder\ncenter = 2, 3.5, 4\nradius = 1.5\n"
                           "height = 2.5\naxis = z\nforce = 1, 0, -0.5\nsmooth_cells = 0.5\n")
        grid = build_grid(cfg)
        library = fields.ForcingSpec("cylinder", **params).build(grid).coeffs
        assert library.any()
        assert np.array_equal(build_forcing(cfg, grid).coeffs, library)

    @pytest.mark.parametrize("kind, params, lines", [
        ("shear", dict(amplitude=2.5), "ic_amplitude = 2.5"),
        ("random", dict(seed=3, energy=0.5, slope=-2.0), "ic_seed = 3\nic_energy = 0.5\nic_slope = -2"),
    ])
    def test_initial_three_ways_bitwise(self, kind, params, lines):
        cfg = parse_config(MINIMAL + f"\n[run]\nic = {kind}\n{lines}\n")
        grid = build_grid(cfg)
        library = make_initial_condition(grid, kind, **params).coeffs
        assert library.any()
        assert np.array_equal(fields.InitialSpec(kind, **params).build(grid).coeffs, library)
        assert np.array_equal(build_initial(cfg, grid).coeffs, library)

    @pytest.mark.parametrize("section, kind, params, lines, message", [
        ("forcing", "vortex", {}, "kind = vortex", "kind must be 'zero' or 'cylinder', got 'vortex'"),
        ("forcing", "cylinder", dict(axis="w"), "kind = cylinder\naxis = w",
         "cylinder axis must be x, y or z, got 'w'"),
        ("forcing", "cylinder", dict(smooth_cells=-1.0), "kind = cylinder\nsmooth_cells = -1",
         "smooth_cells must be >= 0 and finite, got -1.0"),
        ("run", "vortex", {}, "ic = vortex", "ic must be zero, shear or random, got 'vortex'"),
        ("run", "random", dict(seed=-1), "ic = random\nic_seed = -1", "ic_seed must be >= 0, got -1"),
        ("run", "random", dict(energy=-1.0), "ic = random\nic_energy = -1",
         "ic_energy must be >= 0 and finite, got -1.0"),
    ])
    def test_bad_value_is_one_message(self, section, kind, params, lines, message):
        grid = build_grid(parse_config(MINIMAL))
        spec = fields.ForcingSpec if section == "forcing" else fields.InitialSpec
        calls = [lambda: spec(kind, **params)]
        if section == "run":
            calls.append(lambda: make_initial_condition(grid, kind, **params))
        for call in calls:
            with pytest.raises(FieldError) as info:
                call()
            assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + f"\n[{section}]\n{lines}\n")
        assert str(info.value) == f"[{section}] {message}"


class TestPresets:
    def test_names(self):
        names = preset_names()
        assert "decay-shear-b1" in names
        assert sum(1 for n in names if n.startswith("cylinder-")) == 6

    def test_decay_shear_preset_values(self):
        cfg = load_preset("decay-shear-b1")
        assert (cfg.mu, cfg.alpha, cfg.beta) == (0.1, 0.2, 1.0)
        assert cfg.n == 16 and cfg.length == pytest.approx(2 * np.pi)
        assert cfg.initial.kind == "shear" and cfg.initial.amplitude == 1.0
        assert cfg.forcing.kind == "zero"
        assert cfg.scheme.dt == 1e-3 and not cfg.scheme.adaptive
        assert cfg.t_end == 5.0

    def test_cylinder_presets_cover_damping_grid(self):
        seen = set()
        for name in preset_names():
            if name.startswith("cylinder-"):
                cfg = load_preset(name)
                seen.add((cfg.alpha, cfg.beta))
                assert cfg.forcing.kind == "cylinder"
                assert cfg.initial.kind == "zero"
                assert cfg.n == 32 and cfg.length == 12.0
        assert seen == {(a, b) for a in (0.2, 0.5) for b in (1.0, 2.0, 4.0)}

    def test_run_id_is_the_name(self):
        for name in preset_names():
            assert load_preset(name).run_id == name

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_text("fancy")

    def test_with_damping_override(self):
        cfg = replace(load_preset("cylinder-a02-b1"), alpha=0.5, beta=4.0)
        assert (cfg.alpha, cfg.beta) == (0.5, 4.0)
