"""Field containers, initial conditions, forcing."""

import numpy as np
import pytest

from dampedns import WaveGrid, ForcingField, FieldError, make_initial_condition
from dampedns import grid as grid_module
from dampedns.fields import (
    SpectralVelocity,
    divergence_max,
    h_inner,
    h_norm_sq,
    hermitian_defect,
)
from dampedns.grid import pipeline_parts

from invariants import assert_invariants


@pytest.fixture
def grid():
    return WaveGrid(16, 2 * np.pi)


class TestNorms:
    def test_parseval_against_physical_quadrature(self, grid):
        u = make_initial_condition(grid, "random", seed=0, energy=2.0)
        phys = grid.to_physical(u.coeffs)
        e_phys = grid.dx ** 3 * float((phys ** 2).sum())
        assert h_norm_sq(u.coeffs, grid) == pytest.approx(e_phys, rel=1e-12)

    def test_inner_product_against_physical(self, grid):
        a = make_initial_condition(grid, "random", seed=1, energy=1.0)
        b = make_initial_condition(grid, "random", seed=2, energy=3.0)
        pa, pb = grid.to_physical(a.coeffs), grid.to_physical(b.coeffs)
        ip_phys = grid.dx ** 3 * float((pa * pb).sum())
        assert h_inner(a.coeffs, b.coeffs, grid) == pytest.approx(ip_phys, rel=1e-11, abs=1e-14)


class TestInitialConditions:
    def test_zero(self, grid):
        u = make_initial_condition(grid, "zero")
        assert h_norm_sq(u.coeffs, grid) == 0.0
        assert_invariants(u)

    def test_shear_energy_closed_form(self):
        # Parseval on one mode: |u0|^2 = A^2 L^3 / 2
        for length, amp in ((2 * np.pi, 1.0), (5.0, 0.7)):
            g = WaveGrid(16, length)
            u = make_initial_condition(g, "shear", amplitude=amp)
            assert h_norm_sq(u.coeffs, g) == pytest.approx(amp ** 2 * length ** 3 / 2, rel=1e-13)
            assert_invariants(u)

    def test_shear_matches_pointwise_formula(self, grid):
        u = make_initial_condition(grid, "shear", amplitude=1.3)
        phys = grid.to_physical(u.coeffs)
        x = grid.axis_points()
        expected = 1.3 * np.sin(2 * np.pi * x / grid.length)
        assert np.abs(phys[0] - expected[None, :, None]).max() < 1e-13
        assert np.abs(phys[1]).max() < 1e-13
        assert np.abs(phys[2]).max() < 1e-13

    def test_random_divfree_energy_and_invariants(self, grid):
        u = make_initial_condition(grid, "random", seed=1, energy=1.0)
        assert h_norm_sq(u.coeffs, grid) == pytest.approx(1.0, abs=1e-12)
        assert_invariants(u)

    def test_random_deterministic_per_seed(self, grid):
        a = make_initial_condition(grid, "random", seed=42, energy=1.0)
        b = make_initial_condition(grid, "random", seed=42, energy=1.0)
        c = make_initial_condition(grid, "random", seed=43, energy=1.0)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_random_rejects_negative_energy(self, grid):
        with pytest.raises(FieldError):
            make_initial_condition(grid, "random", seed=0, energy=-1.0)

    def test_random_zero_energy_gives_zero_field(self, grid):
        u = make_initial_condition(grid, "random", seed=0, energy=0.0)
        assert h_norm_sq(u.coeffs, grid) == 0.0

    def test_unknown_kind(self, grid):
        with pytest.raises(FieldError):
            make_initial_condition(grid, "vortex")


class TestRandomGenerator:
    """The random field is drawn per retained mode, shell by shell, so the
    block at n is the truncation of the block at any larger n."""

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_block_is_truncation_of_larger_block(self, n):
        big, small = WaveGrid(64, 2 * np.pi), WaveGrid(n, 2 * np.pi)
        u = make_initial_condition(small, "random", seed=9, energy=1.0).coeffs
        whole = make_initial_condition(big, "random", seed=9, energy=1.0).coeffs
        axis = np.r_[0:small.kb, big.mb - small.kb + 1:big.mb]  # big-block index of each small-block mode
        common = whole[:, axis][:, :, axis][..., :small.kb]
        factor = np.vdot(common, u).real / np.vdot(common, common).real  # the two energy scales
        assert factor > 0.0
        assert np.abs(u - factor * common).max() <= 1e-13 * np.abs(u).max()

    def test_bits_do_not_depend_on_cpu_count(self, monkeypatch):
        # at n = 48 the projection runs in two parts when two CPUs are usable
        fields = []
        for cpus in (1, 2):
            monkeypatch.setattr(grid_module, "_usable_cpus", lambda: cpus)
            assert pipeline_parts(48) == cpus
            fields.append(make_initial_condition(WaveGrid(48, 2 * np.pi), "random", seed=4, energy=2.0).coeffs)
        assert np.array_equal(fields[0], fields[1])

    @pytest.mark.parametrize("n", [8, 16, 48])
    def test_k3_zero_plane_is_hermitian_and_mean_is_zero(self, n):
        g = WaveGrid(n, 3.0)
        c = make_initial_condition(g, "random", seed=2, energy=1.0).coeffs
        assert hermitian_defect(c, g) == 0.0
        assert np.abs(c[:, 0, 0, 0]).max() == 0.0
        assert np.abs(c).max() > 0.0

    def test_shell_order_lists_smaller_blocks_first(self):
        big = WaveGrid(64, 1.0)

        def modes(g):
            i1, i2, i3 = np.unravel_index(g.shell_order, g.shape()[1:])
            return np.stack([g.modes[i1], g.modes[i2], g.modes_half[i3]], axis=1)
        listed = modes(big)
        for n in (4, 16, 48):
            small = modes(WaveGrid(n, 1.0))
            assert np.array_equal(listed[:len(small)], small)
        shell = np.abs(listed).max(axis=1)
        assert np.all(np.diff(shell) >= 0)


class TestValidation:
    def test_validate_catches_nonzero_mean(self, grid):
        u = make_initial_condition(grid, "random", seed=3, energy=1.0)
        u.coeffs[0, 0, 0, 0] = 0.5
        with pytest.raises(AssertionError, match="zero mode"):
            assert_invariants(u)

    def test_rejects_half_spectrum_coeffs(self, grid):
        # a mode outside the retained block cannot be stored: a half-spectrum
        # array is refused on construction, with both shapes named
        full = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), complex)
        with pytest.raises(FieldError, match=r"\(3, 16, 16, 9\).*\(3, 11, 11, 6\).*grid\.gather"):
            SpectralVelocity(grid, full)
        u = make_initial_condition(grid, "random", seed=3, energy=1.0)
        assert np.array_equal(SpectralVelocity(grid, grid.gather(grid.scatter(u.coeffs))).coeffs, u.coeffs)

    def test_validate_catches_divergence(self, grid):
        u = make_initial_condition(grid, "random", seed=3, energy=1.0)
        u.coeffs += 0.01 * grid.kvec  # gradient-direction leak
        u.coeffs[:, 0, 0, 0] = 0.0
        with pytest.raises(AssertionError, match="divergence"):
            assert_invariants(u)

    def test_probes_small_on_valid_fields(self, grid):
        u = make_initial_condition(grid, "random", seed=4, energy=1.0)
        scale = np.abs(u.coeffs).max()
        assert divergence_max(u.coeffs, grid) <= 1e-12 * scale
        assert hermitian_defect(u.coeffs, grid) <= 1e-13 * scale

    def test_physical_mean_near_zero(self, grid):
        u = make_initial_condition(grid, "random", seed=5, energy=1.0)
        values = grid.to_physical(u.coeffs)
        assert np.abs(values.mean(axis=(1, 2, 3))).max() <= 1e-12 * np.abs(values).max()


class TestForcing:
    def test_zero_forcing(self, grid):
        f = ForcingField.zero(grid)
        assert f.norm_sq == 0.0
        assert np.abs(f.coeffs).max() == 0.0

    def test_cylinder_is_divergence_free_and_zero_mean(self, grid):
        f = ForcingField.cylinder(grid)
        scale = np.abs(f.coeffs).max()
        assert divergence_max(f.coeffs, grid) <= 1e-12 * scale
        assert np.abs(f.coeffs[:, 0, 0, 0]).max() == 0.0
        assert f.coeffs.shape == grid.shape()
        assert f.norm_sq > 0.0

    def test_cylinder_construction_deterministic(self, grid):
        a = ForcingField.cylinder(grid)
        b = ForcingField.cylinder(grid)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_cylinder_geometry_controls(self):
        # canonical box: period 12, radius and height 4, axis y, force (0,2,0)
        g = WaveGrid(32, 12.0)
        f = ForcingField.cylinder(g)
        explicit = ForcingField.cylinder(g, center=(6.0, 6.0, 6.0), radius=4.0, height=4.0, axis="y",
                                         force=(0.0, 2.0, 0.0), smooth_cells=1.0)
        assert np.array_equal(f.coeffs, explicit.coeffs)
        with pytest.raises(FieldError):
            ForcingField.cylinder(g, axis="w")
        with pytest.raises(FieldError):
            ForcingField.cylinder(g, radius=-1.0)

    def test_grid_values_round_trip(self, grid):
        u = make_initial_condition(grid, "random", seed=6, energy=1.0)
        values = grid.to_physical(u.coeffs)
        f = ForcingField(grid, grid.to_spectral(values))
        # already divergence-free and dealiased, so the projection is identity
        assert np.abs(f.coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()

    def test_rejects_half_spectrum_coeffs(self, grid):
        full = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), complex)
        with pytest.raises(FieldError, match=r"\(3, 16, 16, 9\).*\(3, 11, 11, 6\).*grid\.gather"):
            ForcingField(grid, full)
        assert ForcingField(grid, grid.gather(full)).norm_sq == 0.0

    def test_smoothing_damps_high_modes(self):
        g = WaveGrid(32, 12.0)
        rough = ForcingField.cylinder(g, smooth_cells=0.0)
        smooth = ForcingField.cylinder(g, smooth_cells=2.0)
        hi = g.ksq > 0.5 * g.ksq.max()
        assert np.abs(smooth.coeffs[:, hi]).max() < np.abs(rough.coeffs[:, hi]).max()


class TestContainers:
    def test_spectral_physical_round_trip(self, grid):
        u = make_initial_condition(grid, "random", seed=8, energy=1.0)
        back = grid.to_spectral(grid.to_physical(u.coeffs))
        back[:, 0, 0, 0] = 0.0
        assert np.abs(back - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()

    def test_speed_fields(self, grid):
        u = make_initial_condition(grid, "shear", amplitude=2.0)
        values = grid.to_physical(u.coeffs)
        assert np.sqrt((values ** 2).sum(axis=0)).max() == pytest.approx(2.0, rel=1e-12)
