"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import struct
from pathlib import Path

import pytest

import dampedns.cli as cli
import dampedns.diagnostics as diagnostics
from dampedns import BlowUpError
from dampedns.cli import main
from dampedns.config import parse_config, preset_text
from dampedns.storage import read_diagnostics, read_snapshot

QUICK_CONFIG = """
[physics]
mu = 0.2
alpha = 0.5
beta = 3.0

[grid]
n = 8
l = 6.283185307179586

[forcing]
kind = cylinder
force = 0, 0.5, 0

[scheme]
dt = 0.01
adaptive = false

[run]
t_end = 0.3
ic = random
ic_seed = 1
diag_stride = 5
run_id = quick
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    return code, rows, out.err


class TestPresetsCommand:
    def test_lists_presets(self, capsys):
        code, rows, _ = run_cli(capsys, "presets")
        names = {r["preset"] for r in rows}
        assert code == 0
        assert "decay-shear-b1" in names
        assert len([n for n in names if n.startswith("cylinder-")]) == 6


class TestRunCommand:
    def test_missing_config_exits_2_with_usage(self, capsys):
        code = main(["run", "/no/such/file.cfg"])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage" in captured.err.lower()

    def test_unreadable_config_exits_2_with_usage(self, capsys, tmp_path):
        code = main(["run", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot read config file: ")
        assert "usage" in captured.err.lower()

    def test_no_config_no_preset_exits_2(self, capsys):
        code = main(["run"])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_config_and_preset_exits_2(self, capsys, tmp_path, monkeypatch, command):
        """Neither source wins silently: the pair is refused before anything is written."""
        monkeypatch.chdir(tmp_path)  # where the preset's output_dir would land
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG + f"output_dir = {tmp_path}/mine\n")
        code = main([command, str(cfg), "--preset", "decay-shear-b1"])
        err = capsys.readouterr().err
        assert code == 2
        [line] = [line for line in err.splitlines() if line.startswith("error: ")]
        assert line == "error: give either a config file or --preset, not both"
        assert [p.name for p in tmp_path.iterdir()] == ["quick.cfg"]

    def test_bad_subcommand_exits_2(self, capsys):
        assert main(["explode"]) == 2

    def test_config_run_produces_artifacts(self, capsys, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG + f"output_dir = {tmp_path}/out\n")
        code, rows, _ = run_cli(capsys, "run", str(cfg))
        assert code == 0
        summary = rows[-1]
        assert summary["command"] == "run"
        assert summary["steps"] == 30
        recs = read_diagnostics(tmp_path / "out" / "quick.csv")
        assert len(recs) == 7  # t0 + 6 strides
        state, header = read_snapshot(tmp_path / "out" / "quick-final.snap")
        assert state.step_count == 30

    def test_one_record_per_stride_feeds_log_and_csv(self, tmp_path, monkeypatch):
        times = []
        real = diagnostics.record
        for module in (cli, diagnostics):
            monkeypatch.setattr(module, "record", lambda u, t, ph: times.append(t) or real(u, t, ph))
        cfg = parse_config(QUICK_CONFIG + f"output_dir = {tmp_path}/out\n")
        *_, records, csv_path = cli._run_one(cfg)
        assert len(times) == len(set(times)) == 7
        assert [r.astuple() for r in read_diagnostics(csv_path)] == [r.astuple() for r in records]

    def test_nearly_resting_flow_runs_to_t_end(self, capsys, tmp_path):
        """Once max|u| falls below about 1e-35, alpha |u|^(beta-1) underflows
        to 0 at beta = 10; the step then takes dt_max instead of dividing by it."""
        cfg = tmp_path / "rest.cfg"
        cfg.write_text(
            "[physics]\nmu = 1\nalpha = 0.2\nbeta = 10\n[grid]\nn = 8\nl = 6.283185307179586\n"
            "[scheme]\ndt_max = 0.1\n"
            f"[run]\nt_end = 100\nic = random\nic_seed = 3\noutput_dir = {tmp_path}/out\n"
        )
        code, rows, err = run_cli(capsys, "run", str(cfg))
        assert code == 0, err
        assert rows[-1]["t_end"] == 100.0
        assert not list((tmp_path / "out").glob("*.partial"))

    def test_snapshot_stride_and_restart_rewrite_the_same_files(self, capsys, tmp_path):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(QUICK_CONFIG.replace("adaptive = false", "adaptive = true\ndt_max = 0.02")
                       + f"snapshot_stride = 5\noutput_dir = {tmp_path}/out\n")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        snaps = sorted(p.name for p in out.glob("*.snap"))
        assert snaps == [f"quick-{k:08d}.snap" for k in (0, 5, 10, 15)] + ["quick-final.snap"]
        written = {name: (out / name).read_bytes() for name in snaps}
        for name in ("quick-final.snap", "quick-00000015.snap"):
            (out / name).unlink()
        assert main(["run", str(cfg), "--restart", str(out / "quick-00000010.snap")]) == 0
        assert sorted(p.name for p in out.glob("*.snap")) == snaps
        assert {name: (out / name).read_bytes() for name in snaps} == written

    def test_nonfinite_diagnostic_exits_1_and_keeps_partial_csv(self, capsys, tmp_path):
        """|u|^(beta+1) overflows at beta = 100: the first record is refused in one error line."""
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "[physics]\nmu = 1\nalpha = 0.5\nbeta = 100\n[grid]\nn = 8\nl = 6.283185307179586\n"
            f"[run]\nt_end = 0.01\nic = random\nic_energy = 1e8\noutput_dir = {tmp_path}/out\n"
        )
        code, rows, err = run_cli(capsys, "run", str(cfg))
        assert code == 1 and rows == []
        assert err == "error: non-finite diagnostic Lbp at t=0: upstream instability\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["run.csv.partial"]

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(QUICK_CONFIG.replace("beta = 3.0", "beta = 0.5"))
        code = main(["run", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert "beta must be >= 1" in captured.err

    def test_uniform_ic_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "uniform.cfg"
        cfg.write_text(QUICK_CONFIG.replace("ic = random", "ic = uniform"))
        code = main(["run", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: [run] ic must be")

    def test_restart_flag(self, capsys, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG + f"output_dir = {tmp_path}/out\n")
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        code, rows, _ = run_cli(
            capsys, "run", str(cfg), "--restart", f"{tmp_path}/out/quick-final.snap")
        assert code == 0
        assert rows[-1]["t_end"] == pytest.approx(0.3)  # already at t_end

    def test_restart_from_corrupted_header_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG + f"output_dir = {tmp_path}/out\n")
        snap = bytearray((Path(__file__).parent / "data" / "v1-n8.snap").read_bytes())
        struct.pack_into("<I", snap, struct.calcsize("<8sI"), 9)  # header n: 8 -> 9
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(snap))
        code = main(["run", str(cfg), "--restart", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_restart_past_t_end_exits_2_and_keeps_csv(self, capsys, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG + f"output_dir = {tmp_path}/out\n")
        assert main(["run", str(cfg)]) == 0
        csv = (tmp_path / "out" / "quick.csv").read_bytes()
        cfg.write_text(cfg.read_text().replace("t_end = 0.3", "t_end = 0.1"))
        capsys.readouterr()
        code = main(["run", str(cfg), "--restart", f"{tmp_path}/out/quick-final.snap"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: [run] t_end")
        assert (tmp_path / "out" / "quick.csv").read_bytes() == csv


class TestVerifyCommand:
    def test_decay_preset_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, rows, _ = run_cli(capsys, "verify", "--preset", "decay-shear-b1")
        assert code == 0
        by_id = {r["bound_id"]: r for r in rows if "bound_id" in r}
        assert by_id["energy_decay"]["pass"] is True
        assert by_id["energy_integral"]["pass"] is True
        assert by_id["damping_positivity"]["pass"] is True
        assert by_id["monotone_envelope"]["pass"] is True
        # entry into the absorbing ball is not certifiable within T = 5 from
        # E0 = 124, so that check is skipped for this preset
        assert by_id["absorbing_ball"]["skipped"].startswith("run too short")
        assert "pass" not in by_id["absorbing_ball"]
        assert rows[-1]["all_pass"] is True

    def test_verify_quick_config(self, capsys, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CONFIG.replace("t_end = 0.3", "t_end = 2.0")
                       + f"output_dir = {tmp_path}/out\n")
        code, rows, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0
        ids = {r["bound_id"] for r in rows if "bound_id" in r}
        assert {"energy_decay", "energy_integral", "damping_positivity"} <= ids

    def test_regularity_regime_lists_every_check(self, capsys, tmp_path):
        # 4 alpha mu = 1.2 > 1 at beta = 3, and t_end is long enough for the ball
        cfg = tmp_path / "regular.cfg"
        cfg.write_text(QUICK_CONFIG.replace("alpha = 0.5", "alpha = 1.5")
                       .replace("kind = cylinder\nforce = 0, 0.5, 0", "kind = zero")
                       .replace("t_end = 0.3", "t_end = 2.0")
                       + f"output_dir = {tmp_path}/out\n")
        code, rows, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0
        checks = [r for r in rows if "bound_id" in r]
        assert all(r["pass"] for r in checks)
        assert [r["bound_id"] for r in checks] == [
            "damping_positivity", "energy_decay", "energy_integral",
            "absorbing_ball", "norm_boundedness", "monotone_envelope",
        ]

    def test_zero_step_run_prints_strict_json(self, capsys, tmp_path):
        """t_end below the landing tolerance: one record and no step, so the
        envelope check has no pair and prints no row."""
        cfg = tmp_path / "instant.cfg"
        cfg.write_text(QUICK_CONFIG.replace("t_end = 0.3", "t_end = 1e-13")
                       + f"output_dir = {tmp_path}/out\n")
        code = main(["verify", str(cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(read_diagnostics(tmp_path / "out" / "quick.csv")) == 1

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        rows = [json.loads(line, parse_constant=reject) for line in lines]
        by_id = {r["bound_id"]: r for r in rows if "bound_id" in r}
        assert by_id["monotone_envelope"] == {"bound_id": "monotone_envelope",
                                              "skipped": "need at least 2 records for a pair"}
        assert rows[-1] == {"all_pass": True, "command": "verify", "run_id": "quick"}

    def test_skipped_check_has_a_row(self, capsys, tmp_path):
        """The benchmark's verify preset at beta = 2 lies outside the
        regularity regime: its norm_boundedness row says why it was skipped,
        the verdict ignores it, and every line is strict JSON."""
        cfg = tmp_path / "cyl.cfg"
        cfg.write_text(preset_text("cylinder-a05-b2").replace("t_end = 60.0", "t_end = 0.5")
                       + f"output_dir = {tmp_path}/out\n")
        code = main(["verify", str(cfg)])
        lines = capsys.readouterr().out.splitlines()

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        rows = [json.loads(line, parse_constant=reject) for line in lines]
        by_id = {r["bound_id"]: r for r in rows if "bound_id" in r}
        skipped = by_id["norm_boundedness"]
        assert set(skipped) == {"bound_id", "skipped"}
        assert skipped["skipped"].startswith("norm boundedness requires regularity")
        assert code == 0 and rows[-1] == {"all_pass": True, "command": "verify",
                                          "run_id": "cylinder-a05-b2"}


class TestSweepCommand:
    @pytest.mark.parametrize("args", [
        "--alphas 0.2,0", "--alphas 0", "--alphas ,", "--betas 0.5", "--stride 0", "--steady-tol 0",
        "--max-t 0.1 --stride 0.25", "--dt-max 0", "--n 9", "--mu 0", "--alphas 0.2,0.2", "--betas 1,2,1",
    ])
    def test_bad_flag_exits_2(self, capsys, tmp_path, monkeypatch, args):
        def integrate(*a, **k):
            raise AssertionError("sweep stepped before refusing its flags")
        monkeypatch.setattr("dampedns.experiments.integrate", integrate)
        code = main(["sweep", *args.split(), "--out", str(tmp_path / "sweep")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "sweep").exists()
        [line] = [line for line in err.splitlines() if line.startswith("error: ")]
        assert line.startswith("error: [sweep] ") and args.split()[0] in line
        if args.startswith(("--alphas", "--betas")):  # a list's errors name the list
            assert line.startswith(f"error: [sweep] {args.split()[0]}")
        if args in ("--stride 0", "--max-t 0.1 --stride 0.25"):  # the horizon check names both flags
            assert "--stride=" in line and "--max-t=" in line and "max_t" not in line
        if args == "--steady-tol 0":
            assert "] --steady-tol must be > 0" in line
        if args in ("--n 9", "--mu 0"):  # checked by the config dataclass, named by the flag
            assert line.startswith(f"error: [sweep] {args.split()[0]} must be ")
        if args == "--dt-max 0":  # dt is derived from the flag, and the check names it too
            assert "dt <= --dt-max < inf" in line and line.endswith("--dt-max=0.0")

    def test_failed_cell_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        def integrate(*a, **k):
            raise BlowUpError(0.5, 1e300)
        monkeypatch.setattr("dampedns.experiments.integrate", integrate)
        code = main(["sweep", "--n", "8", "--alphas", "0.2", "--betas", "1", "--max-t", "1",
                     "--stride", "0.5", "--out", str(tmp_path / "sweep")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: steady-state cell alpha=0.2, beta=1.0 failed: solution blew up at t=0.5")

    def test_other_cell_exceptions_propagate_unwrapped(self, tmp_path, monkeypatch):
        def integrate(*a, **k):
            raise ZeroDivisionError("not a solver error")
        monkeypatch.setattr("dampedns.experiments.integrate", integrate)
        with pytest.raises(ZeroDivisionError, match="not a solver error"):
            main(["sweep", "--n", "8", "--alphas", "0.2", "--betas", "1", "--max-t", "1",
                  "--stride", "0.5", "--out", str(tmp_path / "sweep")])

    def test_dt_max_below_preset_dt(self, capsys, tmp_path):
        """An adaptive step never reads dt, so a small --dt-max is not refused for it."""
        code, rows, err = run_cli(
            capsys, "sweep", "--n", "8", "--alphas", "0.2", "--betas", "1", "--max-t", "0.5",
            "--stride", "0.25", "--dt-max", "0.005", "--out", str(tmp_path / "sweep"),
        )
        assert code == 0, err
        assert rows[-1]["command"] == "sweep"

    def test_quick_sweep(self, capsys, tmp_path):
        code, rows, _ = run_cli(
            capsys, "sweep", "--n", "8", "--alphas", "0.2,0.5", "--betas", "1",
            "--max-t", "30", "--stride", "0.5", "--steady-tol", "1e-4",
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 0
        cells = [r for r in rows if "t_c" in r]
        assert len(cells) == 2
        assert all(c["converged"] for c in cells)
        assert rows[-1]["alpha_nonincreasing"]["1.0"] is True

    def test_horizon_not_a_whole_number_of_strides(self, capsys, tmp_path):
        code, rows, _ = run_cli(
            capsys, "sweep", "--n", "8", "--alphas", "0.2,0.5", "--betas", "1",
            "--max-t", "0.5", "--stride", "0.3", "--out", str(tmp_path / "sweep"),
        )
        assert code == 0
        cells = [r for r in rows if "t_c" in r]
        assert len(cells) == 2
        for cell in cells:
            assert cell["t_c"] is None or cell["t_c"] <= 0.5
            assert read_snapshot(cell["snapshot"])[0].t == 0.5


class TestSeparateCommand:
    def test_regime_violation_exits_2(self, capsys):
        code = main(["separate", "--beta", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "uniqueness" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--n", "9"), ("--dt", "0"), ("--deltas", "0"), ("--deltas", "1e-2,1e-2"),
        ("--t", "0.02"),  # --t below the 0.25 stride
        ("--seed", "-3"), ("--perturb-seed", "-3"), ("--energy", "-1"),
        ("--mu", "-1"), ("--alpha", "0"), ("--beta", "0.5"),
    ])
    def test_bad_flag_exits_2(self, capsys, flag, value):
        code = main(["separate", flag, *value.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        [line] = [line for line in err.splitlines() if line.startswith("error: ")]
        if flag in ("--seed", "--perturb-seed", "--energy"):  # they set keys of other names
            assert f"] {flag} must be >= 0" in line
        if flag == "--t":  # the horizon check names both flags
            assert "got --stride=0.25, --t=0.02" in line
        if flag == "--dt":
            assert "<= --dt <=" in line and "--dt=0.0" in line
        assert line.startswith("error: [separate] ") and flag in line
        assert not any(section in line for section in ("[grid]", "[physics]", "[run]"))

    def test_regime_violation_creates_no_output(self, capsys, tmp_path):
        out = tmp_path / "o2"
        code = main(["separate", "--n", "8", "--beta", "2", "--out", str(out)])
        assert code == 2
        assert "uniqueness" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_above_preset_dt_max(self, capsys):
        """A fixed step never reads dt_max, so a --dt above the preset's is not refused for it."""
        code, rows, err = run_cli(
            capsys, "separate", "--n", "8", "--t", "0.5", "--dt", "0.06", "--stride", "0.25",
            "--deltas", "1e-2,1e-3", "--beta", "4",
        )
        assert code == 0, err
        assert rows[-1]["uniform_in_delta"] is True

    def test_quick_separation(self, capsys, tmp_path):
        code, rows, _ = run_cli(
            capsys, "separate", "--n", "8", "--t", "0.5", "--dt", "0.025",
            "--stride", "0.25", "--deltas", "1e-2,1e-3", "--beta", "4",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert rows[-1]["uniform_in_delta"] is True
        curves = (tmp_path / "separation.csv").read_text().splitlines()
        assert curves[0] == "t,d_0.01,d_0.001"
        assert len(curves) == 4  # header + t in {0, 0.25, 0.5}

    def test_cut_last_stride_ends_on_the_horizon(self, capsys, tmp_path):
        """Base and perturbed runs both cut their last stride at t = 0.5."""
        code, rows, err = run_cli(
            capsys, "separate", "--n", "8", "--t", "0.5", "--stride", "0.3",
            "--deltas", "1e-2,1e-3", "--out", str(tmp_path / "sep"),
        )
        assert code == 0, err
        curves = (tmp_path / "sep" / "separation.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in curves[1:]] == [0.0, 0.3, 0.5]


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--alphas", "a"), ("sweep", "--betas", "1,x"), ("separate", "--deltas", "1e-2,q"),
])
def test_list_flag_non_number_exits_2(capsys, command, flag, value):
    code = main([command, flag, value])
    err = capsys.readouterr().err
    assert code == 2
    [line] = [line for line in err.splitlines() if "error: " in line]
    assert f"argument {flag}: expected comma-separated numbers, got {value!r}" in line
    assert "_floats" not in err


class TestOutputPath:
    """An output path below a regular file is refused with one error line
    before any step, and no result row is printed."""

    @pytest.mark.parametrize("command", ["run", "verify", "sweep", "separate"])
    def test_unusable_output_path_exits_1_before_any_step(self, capsys, tmp_path, monkeypatch, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"

        def integrate(*a, **k):
            raise AssertionError(f"{command} stepped before refusing its output path")
        monkeypatch.setattr("dampedns.cli.integrate", integrate)
        monkeypatch.setattr("dampedns.experiments.integrate", integrate)

        if command in ("run", "verify"):
            cfg = tmp_path / "quick.cfg"
            cfg.write_text(QUICK_CONFIG + f"output_dir = {out}\n")
            argv = [command, str(cfg)]
        elif command == "sweep":
            argv = ["sweep", "--n", "8", "--alphas", "0.2", "--betas", "1", "--max-t", "1",
                    "--stride", "0.5", "--out", str(out)]
        else:
            argv = ["separate", "--n", "8", "--t", "0.5", "--dt", "0.025", "--stride", "0.25",
                    "--deltas", "1e-2,1e-3", "--beta", "4", "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot create output directory {out}: ")
        assert blocker.read_text() == ""
