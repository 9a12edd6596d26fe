"""dampedns benchmark: time to verdict of the user-facing commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Workloads: ``decay-n16``, ``verify-cylinder-n32``, ``separate-n64`` (see
``workloads.py`` for what each runs and why). The default seed is 1; seed
2 is the holdout seed, kept out of tuning so that a claimed gain can be
confirmed on inputs nobody tuned against.

One closed-loop caller: this process, one Python thread, runs the command
in-process through ``dampedns.cli.main``, waits for its verdict, checks the
outputs and starts the next invocation. FFT workers stay at the program's
default and are recorded; the benchmark refuses to run when
``DAMPEDNS_FFT_WORKERS`` is set in its environment.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced invocations: the median wall time over ``--seconds`` of repeated
invocations (after one warm-up), the same per step, the median set-up time
of several fresh processes, and the peak RSS of this process over the
warm-up invocation. Wall and set-up times are calibrated to a nominal host
speed by a reference kernel run between them (``reference.py``); the raw
times are in the detail line.

``--trace 1`` reports the per-layer metrics. Untraced and traced
invocations alternate for ``--seconds``; spans recorded around calls into
the program's modules (``spans.py``) give the split, and the ratio of the
two median wall times gives the tracing overhead.

Every invocation's outputs are checked (``workloads.py``); the final
snapshot, or for ``separate`` the printed result, is hashed and must agree
across invocations and with every earlier run of the same source, seed
and mode recorded in ``.perfbench_out/digests.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the machine record and per-check details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_S, Reference, calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_PROCESSES = 7
MIN_INVOCATIONS = 3
TAIL_SAMPLES = 10


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default 1; seed 2 is the holdout seed)")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one invocation per mode: checks plumbing, not speed")
    return p.parse_args(argv)


def _cache_mb(level: int) -> float:
    """Size of the unified or data cache at ``level`` on CPU 0, 0 if unknown."""
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (int((idx / "level").read_text()) == level
                    and (idx / "type").read_text().strip() in ("Unified", "Data")):
                size = (idx / "size").read_text().strip()
                scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 2 ** 20)
                return float(size.rstrip("KMG")) * scale
        except (OSError, ValueError):
            continue
    return 0.0


def machine_record() -> dict:
    import numpy
    import scipy
    from dampedns.grid import get_fft_workers

    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "l2_mb": _cache_mb(2), "l3_mb": _cache_mb(3),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "fft_workers": get_fft_workers(),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dampedns").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Tally:
    """Output checks attempted and failed, by name."""

    def __init__(self):
        self.by_name: dict[str, list[int]] = {}

    def add(self, name: str, ok: bool) -> None:
        entry = self.by_name.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += not ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.by_name.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_name.values())


class Runner:
    def __init__(self, workload, tally: Tally):
        import dampedns.cli

        self.cli = dampedns.cli
        self.wl = workload
        self.tally = tally
        self.digest: str | None = None
        self.outcomes = []

    def invoke(self, tracer=None) -> float:
        """One closed-loop invocation; returns its wall time in seconds."""
        self.wl.clean()
        buf = io.StringIO()
        rc = None
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(list(self.wl.argv))
                except Exception:  # the run failed: every check of it fails
                    traceback.print_exc()
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            outcome = self.wl.inspect(rc, buf.getvalue())
        except Exception:
            traceback.print_exc()
            for _ in range(self.wl.checks_per_invocation + 1):
                self.tally.add("invocation_failed", False)
            return wall
        for name, ok in outcome.checks:
            self.tally.add(name, ok)
        if self.digest is None:
            self.digest = outcome.digest
        self.tally.add("digest_stable", outcome.digest == self.digest)
        self.outcomes.append(outcome)
        return wall


def _setup_times(wl, count: int, tally: Tally, ref: Reference):
    """Set-up times of ``count`` fresh processes, raw and calibrated."""
    cfg_path = wl.out_dir / "setup.cfg"
    cfg_path.write_text(wl.setup_text)
    times, before, after = [], [], []
    for _ in range(count):
        r0 = ref.measure()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(cfg_path)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        ok = proc.returncode == 0
        if ok:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            before.append(r0)
            after.append(ref.measure())
        else:
            sys.stderr.write(proc.stderr)
        tally.add("setup_process", ok)
    return times, calibrated(times, before, after)


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest of a few percentiles with at least TAIL_SAMPLES samples
    beyond it, as (percentile, value); (0, max) when there are too few."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= TAIL_SAMPLES:
            ordered = sorted(samples)
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return 0.0, max(samples) if samples else 0.0


def _measure_untraced(runner: Runner, seconds: float, min_runs: int, ref: Reference):
    """Invocation wall times, raw and calibrated; the reference kernel runs
    before the first invocation and after each one."""
    walls, refs = [], [ref.measure()]
    start = time.perf_counter()
    while len(walls) < min_runs or time.perf_counter() - start < seconds:
        walls.append(runner.invoke())
        refs.append(ref.measure())
    return walls, calibrated(walls, refs[:-1], refs[1:])


def _measure_traced(runner: Runner, seconds: float, min_pairs: int, tally: Tally):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < min_pairs or time.perf_counter() - start < seconds:
        untraced.append(runner.invoke())
        traced.append(runner.invoke(tracer))
        m = layer_metrics(tracer.spans, runner.wl.n)
        root = m["_root_ms"]
        # self times of all spans, the root's own time being the unwrapped
        # remainder, must add up to the traced wall time
        tally.add("trace_adds_up",
                  m["_open_spans"] == 0 and m["_min_self_ms"] >= -1e-6
                  and abs(m["_self_sum_ms"] - root) <= 1e-6 * max(root, 1.0)
                  and 0.99 * 1e3 * traced[-1] <= root <= 1e3 * traced[-1])
        expected = runner.wl.expected_steps()
        if expected is None:
            expected = runner.outcomes[-1].steps if runner.outcomes else -1
        tally.add("traced_step_count", m["timestepping.steps"] == expected)
        layers.append(m)
    return tracer, untraced, traced, layers


def _per_layer(runner, tracer, untraced, traced, layers, machine) -> dict[str, float]:
    out = {}
    for key in layers[0]:
        if not key.startswith("_"):
            out[key] = statistics.median(m[key] for m in layers)
    steps = [x for m in layers for x in m["_step_ms"]]
    pct, tail = _tail(steps)
    out["timestepping.step_ms.p50"] = statistics.median(steps) if steps else 0.0
    out["timestepping.step_ms.tail"] = tail
    out["timestepping.step_ms.tail_pct"] = pct
    out["timestepping.step_ms.samples"] = len(steps)
    out["storage.readback_ms"] = statistics.median([o.readback_ms for o in runner.outcomes] or [0.0])
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["trace.missing_sites"] = len(tracer.missing)
    out["grid.fft.workers"] = machine["fft_workers"]
    out["machine.nproc"] = machine["nproc"]
    out["machine.l2_mb"] = machine["l2_mb"]
    out["machine.l3_mb"] = machine["l3_mb"]
    return out


def _check_ledger(key: str, digest: str | None, tally: Tally) -> None:
    """Compare this run's final-state digest with earlier runs of the same
    source, workload, seed and mode, and record it for later ones."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    if digest is None:
        tally.add("digest_matches_earlier_runs", False)
        return
    tally.add("digest_matches_earlier_runs", ledger.setdefault(key, digest) == digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if "DAMPEDNS_FFT_WORKERS" in os.environ:
        return _fail("DAMPEDNS_FFT_WORKERS is set; unset it so the program default is measured")
    if not (SRC / "dampedns" / "cli.py").is_file():
        return _fail(f"program source not found under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds < 0:
        return _fail("--seconds must be >= 0")

    machine = machine_record()
    wl = WORKLOADS[args.workload](args.seed, args.smoke, OUT / f"{args.workload}-s{args.seed}")
    tally = Tally()
    runner = Runner(wl, tally)
    min_runs = 1 if args.smoke else MIN_INVOCATIONS
    detail = {"workload": wl.name, "seed": args.seed, "argv": wl.argv, "machine": machine}

    if args.trace == 0:
        runner.invoke()  # warm-up: imports, FFT plans, file cache
        # read before the reference kernel's arrays can raise it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = Reference()
        setup, setup_cal = _setup_times(wl, 1 if args.smoke else SETUP_PROCESSES, tally, ref)
        walls, walls_cal = _measure_untraced(runner, args.seconds, min_runs, ref)
        steps = runner.outcomes[-1].steps if runner.outcomes else 0
        wall_s = statistics.median(walls_cal)
        values = {
            "wall_s": wall_s,
            "step_ms": 1e3 * wall_s / steps if steps else 0.0,
            "setup_s": statistics.median(setup_cal) if setup_cal else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
        detail.update(walls_s=walls, walls_raw_median_s=statistics.median(walls),
                      setup_runs_s=setup,
                      setup_raw_median_s=statistics.median(setup) if setup else None,
                      reference_s=ref.samples, reference_nominal_s=NOMINAL_S, steps=steps)
    else:
        if not args.smoke:
            runner.invoke()
        tracer, untraced, traced, layers = _measure_traced(runner, args.seconds, min_runs, tally)
        values = _per_layer(runner, tracer, untraced, traced, layers, machine)
        declared = spec["per_layer"]
        detail.update(untraced_walls_s=untraced, traced_walls_s=traced,
                      missing_sites=tracer.missing)

    key = f"{wl.name}|seed={args.seed}|smoke={args.smoke}|src={source_digest()}"
    _check_ledger(key, runner.digest, tally)
    detail.update(digest=runner.digest,
                  checks=tally.by_name,
                  outputs=runner.outcomes[-1].details if runner.outcomes else {})
    print(json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
