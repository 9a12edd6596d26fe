"""The benchmark's three workloads and the output checks of each.

Every workload is one ``dampedns`` command, invoked in-process through
``dampedns.cli.main`` so that the timed region is what a user of the
command waits for. Inputs derive from the workload seed alone; each seed
changes the inputs but not the amount of work, so timings of different
seeds are comparable.

- ``decay-n16``: ``dampedns run`` of preset ``decay-shear-b1`` (n = 16,
  beta = 1, fixed dt = 1e-3, IF-RK2, diag stride 50, CSV plus final
  snapshot). A tiny grid, so per-call overhead in the step dominates, and no
  damping power and no adaptive step. The seed sets the shear amplitude;
  the closed-form decay holds for any amplitude.
- ``verify-cylinder-n32``: ``dampedns verify`` of preset
  ``cylinder-a05-b2`` (n = 32, beta = 2, adaptive dt, diag stride 10).
  The only workload with ``adapt_dt`` every step and the full diagnostics,
  storage and bounds path. The seed shifts the forcing cylinder by whole
  grid cells, which translates the solution exactly.
- ``separate-n64``: ``dampedns separate --n 64 --beta 4`` with two
  perturbation sizes. FFT- and projection-bound at a working set far
  beyond L2, with the non-integer damping power on 64^3 points. The seed
  sets ``--seed`` and ``--perturb-seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path


def override_config(text: str, values: dict[tuple[str, str], str]) -> str:
    """Set ``key = value`` pairs in config text, section by section.

    Existing keys are replaced in place; missing keys are appended to their
    section, and missing sections are added at the end.
    """
    pending = dict(values)
    out: list[str] = []
    section = None

    def flush(sec):
        for (s, k) in [key for key in pending if key[0] == sec]:
            out.append(f"{k} = {pending.pop((s, k))}")

    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            flush(section)
            section = stripped[1:-1].strip().lower()
        elif "=" in stripped and section is not None:
            key = stripped.split("=", 1)[0].strip().lower()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        out.append(line)
    flush(section)
    for sec in sorted({s for s, _ in pending}):
        out.append(f"[{sec}]")
        flush(sec)
    return "\n".join(out) + "\n"


@dataclass
class Outcome:
    """What the checks of one invocation found."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    steps: int = 0
    digest: str = ""
    readback_ms: float = 0.0
    details: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


class Workload:
    name = ""
    n = 0
    checks_per_invocation = 0

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        out_dir.mkdir(parents=True, exist_ok=True)

    # filled in by subclasses
    argv: list[str]
    setup_text: str

    def clean(self) -> None:
        """Remove the previous invocation's output files, so that checks
        never read a stale file."""

    def inspect(self, rc: int | None, stdout: str) -> Outcome:
        raise NotImplementedError

    def expected_steps(self) -> int | None:
        return None


class _FileRun(Workload):
    """Shared part of the ``run`` and ``verify`` workloads: a config file
    in the output directory, a diagnostics CSV and a final snapshot."""

    preset = ""
    command = ""

    def _write_config(self, overrides: dict[tuple[str, str], str]) -> None:
        from dampedns.config import build_grid, build_physics, parse_config, preset_text

        overrides = {**overrides,
                     ("run", "output_dir"): str(self.out_dir),
                     ("run", "run_id"): self.name}
        self.setup_text = override_config(preset_text(self.preset), overrides)
        self.cfg = parse_config(self.setup_text)
        self.grid = build_grid(self.cfg)
        self.physics = build_physics(self.cfg, self.grid)
        path = self.out_dir / f"{self.name}.cfg"
        path.write_text(self.setup_text)
        self.argv = [self.command, str(path)]
        self.csv_path = self.out_dir / f"{self.name}.csv"
        self.snap_path = self.out_dir / f"{self.name}-final.snap"

    def clean(self) -> None:
        self.csv_path.unlink(missing_ok=True)
        self.snap_path.unlink(missing_ok=True)

    def _readback(self, out: Outcome):
        """Read the CSV and final snapshot back and check them against
        each other: the last CSV row must equal a fresh measurement of the
        snapshot's state, bit for bit (17-digit CSV, exact snapshot)."""
        from dampedns.diagnostics import record
        from dampedns.storage import read_diagnostics, read_snapshot

        t0 = time.perf_counter()
        records = read_diagnostics(self.csv_path)
        state, _ = read_snapshot(self.snap_path)
        out.readback_ms = 1e3 * (time.perf_counter() - t0)
        fresh = record(state.u, state.t, self.physics)
        last = records[-1]
        same = all(getattr(fresh, k) == getattr(last, k)
                   for k in ("t", "E", "V2", "Lbp", "A2", "P_f", "P_damp", "umax"))
        times = [r.t for r in records]
        stride = self.cfg.diag_stride
        n_rows = state.step_count // stride + 1 + (state.step_count % stride != 0)
        out.check("readback_matches", same and len(records) == n_rows
                  and all(a < b for a, b in zip(times, times[1:])))
        out.check("reached_t_end", abs(state.t - self.cfg.t_end) <= 1e-9 * max(1.0, self.cfg.t_end))
        out.steps = state.step_count
        out.digest = hashlib.sha256(self.snap_path.read_bytes()).hexdigest()
        return records, state


class DecayN16(_FileRun):
    name = "decay-n16"
    n = 16
    preset = "decay-shear-b1"
    command = "run"
    checks_per_invocation = 6

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.amplitude = 0.5 + 1.5 * self.rng.random()
        overrides = {("run", "ic_amplitude"): repr(self.amplitude),
                     ("run", "t_end"): "0.02" if smoke else "0.5"}
        if smoke:
            overrides[("run", "diag_stride")] = "5"
        self._write_config(overrides)

    def expected_steps(self) -> int:
        return round(self.cfg.t_end / self.cfg.scheme.dt)

    def inspect(self, rc, stdout):
        from dampedns.diagnostics import energy_balance_residual

        out = Outcome()
        summary = _json_lines(stdout)[-1]
        out.check("exit_zero", rc == 0 and summary.get("command") == "run")
        records, state = self._readback(out)
        out.check("step_count", out.steps == self.expected_steps() == summary["steps"])

        # Single shear mode, beta = 1: the nonlinear term vanishes and
        # E(t) = E0 exp(-2 (mu lambda1 + alpha) t). IF-RK2 multiplies the
        # mode by exp(-mu lambda1 h) (1 - a h + (a h)^2 / 2) per step, which
        # fixes the scheme's own error; the run may not exceed twice that.
        mu, alpha = self.physics.mu, self.physics.alpha
        lam1 = self.grid.lambda1
        h = self.cfg.scheme.dt
        t_end = records[-1].t
        e0 = records[0].E
        exact = e0 * math.exp(-2.0 * (mu * lam1 + alpha) * t_end)
        err = abs(records[-1].E - exact) / exact
        g = math.exp(-mu * lam1 * h) * (1.0 - alpha * h + 0.5 * (alpha * h) ** 2)
        scheme_err = abs(e0 * g ** (2 * state.step_count) - exact) / exact
        out.check("energy_closed_form", err <= 2.0 * scheme_err)

        # Budget residual: the centred difference of E at record spacing d
        # is off by d^2/6 E''' = d^2 r^3 E / 6 with r = 2 (mu lambda1 + alpha),
        # against mu V2 = mu lambda1 E; allow twice that.
        _, resid = energy_balance_residual(records, mu)
        budget = max(abs(r) for r in resid) / max(mu * r.V2 for r in records)
        d = records[1].t - records[0].t
        rate = 2.0 * (mu * lam1 + alpha)
        budget_pred = 0.5 * d * d * rate ** 3 / 6.0 / (mu * lam1)
        out.check("budget_residual", budget <= 2.0 * budget_pred)
        out.details = {"energy_rel_err": err, "energy_rel_err_scheme": scheme_err,
                       "budget_rel_residual": budget, "budget_rel_residual_pred": budget_pred,
                       "E_final": summary["E_final"]}
        return out


class VerifyCylinderN32(_FileRun):
    name = "verify-cylinder-n32"
    n = 32
    preset = "cylinder-a05-b2"
    command = "verify"
    checks_per_invocation = 3

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        from dampedns.config import parse_config, preset_text

        base = parse_config(preset_text(self.preset))
        dx = base.length / base.n
        self.shift = tuple(self.rng.randrange(base.n) for _ in range(3))
        center = ",".join(repr(base.length / 2.0 + i * dx) for i in self.shift)
        self._write_config({("forcing", "center"): center,
                            ("run", "t_end"): "0.5" if smoke else "5.0"})

    def inspect(self, rc, stdout):
        out = Outcome()
        rows = _json_lines(stdout)
        verdict = rows[-1]
        out.check("all_pass", rc == 0 and verdict.get("command") == "verify"
                  and verdict.get("all_pass") is True)
        self._readback(out)
        out.details = {"bounds": [r["bound_id"] for r in rows if "bound_id" in r]}
        return out


class SeparateN64(Workload):
    name = "separate-n64"
    n = 64
    checks_per_invocation = 2
    deltas = (1e-2, 1e-4)
    dt = 0.01

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        from dampedns.config import preset_text

        self.ic_seed = self.rng.randrange(1, 2 ** 31)
        self.perturb_seed = self.rng.randrange(1, 2 ** 31)
        self.t_end, self.stride = (0.02, 0.01) if smoke else (0.04, 0.02)
        self.argv = [
            "separate", "--n", str(self.n), "--beta", "4",
            "--deltas", ",".join(repr(d) for d in self.deltas),
            "--t", repr(self.t_end), "--stride", repr(self.stride), "--dt", repr(self.dt),
            "--seed", str(self.ic_seed), "--perturb-seed", str(self.perturb_seed),
        ]
        # The same objects `dampedns separate` builds from its defaults
        # (mu = alpha = 0.5, unit initial energy), written as config text.
        self.setup_text = override_config(preset_text("cylinder-a02-b1"), {
            ("physics", "mu"): "0.5", ("physics", "alpha"): "0.5", ("physics", "beta"): "4",
            ("grid", "n"): str(self.n), ("scheme", "dt"): repr(self.dt),
            ("scheme", "adaptive"): "false", ("run", "ic"): "random",
            ("run", "ic_seed"): str(self.ic_seed), ("run", "ic_energy"): "1.0",
        })

    def expected_steps(self) -> int:
        per_run = round(self.t_end / self.dt)
        return (1 + len(self.deltas)) * per_run

    def inspect(self, rc, stdout):
        out = Outcome()
        rows = _json_lines(stdout)
        verdict = rows[-1]
        out.check("uniform_in_delta", rc == 0 and verdict.get("command") == "separate"
                  and verdict.get("uniform_in_delta") is True
                  and math.isfinite(verdict.get("ratio_spread", math.inf)))
        runs = [r for r in rows if "delta" in r]
        out.check("all_deltas", len(runs) == len(self.deltas) >= 2
                  and [r["delta"] for r in runs] == list(self.deltas)
                  and all(math.isfinite(r["max_ratio"]) and r["max_ratio"] > 0 for r in runs))
        out.steps = self.expected_steps()
        out.digest = hashlib.sha256(stdout.encode()).hexdigest()
        out.details = {"ratio_spread": verdict.get("ratio_spread")}
        return out


WORKLOADS = {w.name: w for w in (DecayN16, VerifyCylinderN32, SeparateN64)}
