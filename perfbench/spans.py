"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of the ``dampedns`` modules with thin
wrappers that record one span per call: a name, a start and end time from
``time.perf_counter`` and the index of the enclosing span. Nothing under
``src/`` knows about it. Functions imported with ``from .x import y`` are
wrapped in every module that looks them up, because replacing the
definition alone would leave those references untouched.

Spans stay in a list while a traced invocation runs and are reduced to
per-layer numbers afterwards (:func:`layer_metrics`). A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import time
import weakref

# Real-input FFT cost model: 2.5 N log2 N flops for N real points, half the
# 5 N log2 N of a complex transform. Used only for the "computed" figures.
RFFT_FLOPS_PER_POINT_LOG2 = 2.5

_NAME, _START, _END, _PARENT, _INFO = range(5)


class Tracer:
    """Records spans around calls into the program's modules.

    ``install()`` wraps every call site listed in :func:`_sites`;
    ``uninstall()`` restores the originals. Call sites that do not exist in
    the program (a function renamed or removed by a later change) are
    skipped and listed in ``missing``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._visc_seen: dict[tuple, weakref.ref] = {}

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if after is not None:
                after(tracer, rec, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        """Start a fresh trace: drop earlier spans and wrap every call site."""
        self.spans = []
        self._stack = []
        self._visc_seen = {}
        self.missing = []
        for owner, attr, name, after in _sites():
            self._wrap(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# per-call details recorded after a span closes
# ----------------------------------------------------------------------

def _after_transform(tracer, rec, args, result):
    arr = args[1]
    real, coeffs = (result, arr) if rec[_NAME] == "grid.ifft" else (arr, result)
    comps = real.shape[0] if real.ndim == 4 else 1
    rec[_INFO] = (comps, math.prod(real.shape[-3:]), math.prod(coeffs.shape[-3:]),
                  arr.nbytes + result.nbytes)


def _after_visc(tracer, rec, args, result):
    grid, mu, dt = args[:3]
    key = (id(grid), mu, dt)
    prev = tracer._visc_seen.get(key)
    hit = prev is not None and prev() is result
    tracer._visc_seen[key] = weakref.ref(result)
    rec[_INFO] = hit


def _after_record(tracer, rec, args, result):
    rec[_INFO] = float(args[1])


def _after_snapshot(tracer, rec, args, result):
    rec[_INFO] = os.path.getsize(args[2])


def _sites():
    import dampedns.cli as cli
    import dampedns.config as config
    import dampedns.diagnostics as diagnostics
    import dampedns.experiments as experiments
    import dampedns.operators as operators
    import dampedns.storage as storage
    import dampedns.timestepping as timestepping
    from dampedns.grid import WaveGrid

    sites = [
        (cli, "main", "cli.main", None),
        (WaveGrid, "to_physical", "grid.ifft", _after_transform),
        (WaveGrid, "to_spectral", "grid.fft", _after_transform),
        (WaveGrid, "viscous_factor", "grid.visc_factor", _after_visc),
        (timestepping, "nonviscous_rhs", "operators.rhs", None),
        (timestepping, "project_coeffs", "operators.project", None),
        (operators, "project_coeffs", "operators.project", None),
        (timestepping, "adapt_dt", "timestepping.adapt_dt", None),
        (timestepping, "step", "timestepping.step", None),
        (cli, "integrate", "timestepping.integrate", None),
        (cli, "record", "diagnostics.record", _after_record),
        (diagnostics, "record", "diagnostics.record", _after_record),
        (cli, "write_snapshot", "storage.snapshot.write", _after_snapshot),
        (storage.DiagnosticsWriter, "append", "storage.csv.append", None),
        (storage.DiagnosticsWriter, "close", "storage.csv.close", None),
        (cli, "parse_config", "config.parse", None),
        (config, "parse_config", "config.parse", None),
        (config, "build_forcing", "fields.forcing", None),
        (config, "build_initial", "fields.initial", None),
        (experiments, "make_initial_condition", "fields.initial", None),
        (experiments, "integrate", "experiments.integrate", None),
        (experiments, "h_norm_sq", "experiments.norm", None),
        (cli, "run_trajectory_separation", "experiments.separation", None),
    ]
    for module in (cli, experiments):
        sites += [
            (module, "build_grid", "grid.build", None),
            (module, "build_physics", "config.build_physics", None),
            (module, "build_state", "config.build_state", None),
        ]
    sites += [(cli, attr, "bounds.check", None) for attr in sorted(vars(cli))
              if attr.startswith("check_") and attr != "check_restart_compatible"]
    sites.append((cli, "monotone_envelope_max_excess", "bounds.check", None))
    return sites


# ----------------------------------------------------------------------
# reduction to per-layer numbers
# ----------------------------------------------------------------------

def retained_modes(n: int) -> int:
    """Independent coefficients kept by the 2/3 rule on an n^3 grid,
    counted in the half-spectrum sense (k3 >= 0)."""
    full = sum(1 for m in range(-(n // 2), n // 2) if abs(m) < n / 3.0)
    half = sum(1 for m in range(n // 2 + 1) if m < n / 3.0)
    return full * full * half


def layer_metrics(spans: list[list], n: int) -> dict[str, float]:
    """Per-layer numbers of one traced invocation (times in ms)."""
    count = len(spans)
    dur = [s[_END] - s[_START] for s in spans]
    child = [0.0] * count
    in_step = [False] * count
    under_rhs = [-1] * count
    for i, s in enumerate(spans):
        p = s[_PARENT]
        if p >= 0:
            child[p] += dur[i]
            in_step[i] = in_step[p]
            under_rhs[i] = under_rhs[p]
        if s[_NAME] in ("timestepping.step", "timestepping.adapt_dt"):
            in_step[i] = True
        if s[_NAME] == "operators.rhs":
            under_rhs[i] = i
    self_t = [d - c for d, c in zip(dur, child)]

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[_NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        excl[name] = excl.get(name, 0.0) + self_t[i]

    def ms(table, *names):
        return 1e3 * sum(table.get(nm, 0.0) for nm in names)

    steps = calls.get("timestepping.step", 0)
    comps = {"grid.ifft": 0, "grid.fft": 0}
    gflop = {"grid.ifft": 0.0, "grid.fft": 0.0}
    mbytes = {"grid.ifft": 0.0, "grid.fft": 0.0}
    stored = None
    first_rhs = next((i for i, s in enumerate(spans) if s[_NAME] == "operators.rhs"), -1)
    rhs_bytes = 0
    for i, s in enumerate(spans):
        if s[_NAME] not in comps or s[_INFO] is None:
            continue
        c, points, modes, nbytes = s[_INFO]
        if in_step[i]:
            comps[s[_NAME]] += c
        gflop[s[_NAME]] += c * RFFT_FLOPS_PER_POINT_LOG2 * points * math.log2(points) / 1e9
        mbytes[s[_NAME]] += nbytes / 1e6
        if under_rhs[i] >= 0 and stored is None:
            stored = modes
        if first_rhs >= 0 and under_rhs[i] == first_rhs:
            rhs_bytes += nbytes

    visc = [s[_INFO] for s in spans if s[_NAME] == "grid.visc_factor"]
    records = [s[_INFO] for s in spans if s[_NAME] == "diagnostics.record"]
    roots = [i for i, s in enumerate(spans) if s[_PARENT] < 0]
    root_ms = 1e3 * sum(dur[i] for i in roots)

    return {
        "grid.ifft.ms": ms(excl, "grid.ifft"),
        "grid.fft.ms": ms(excl, "grid.fft"),
        "grid.ifft.components_per_step": comps["grid.ifft"] / steps if steps else 0.0,
        "grid.fft.components_per_step": comps["grid.fft"] / steps if steps else 0.0,
        "grid.ifft.gflop_computed": gflop["grid.ifft"],
        "grid.fft.gflop_computed": gflop["grid.fft"],
        "grid.ifft.mb_computed": mbytes["grid.ifft"],
        "grid.fft.mb_computed": mbytes["grid.fft"],
        "grid.visc_factor.calls": len(visc),
        "grid.visc_factor.miss_frac": (sum(not h for h in visc) / len(visc)) if visc else 0.0,
        "grid.build_ms": ms(incl, "grid.build"),
        "operators.rhs.calls": calls.get("operators.rhs", 0),
        "operators.rhs.self_ms": ms(excl, "operators.rhs"),
        "operators.rhs.working_set_mb_computed": rhs_bytes / 1e6,
        "operators.project.calls": calls.get("operators.project", 0),
        "operators.project.ms": ms(incl, "operators.project"),
        "operators.useful_mode_frac": retained_modes(n) / stored if stored else 0.0,
        "timestepping.steps": steps,
        "timestepping.step.self_ms": ms(excl, "timestepping.step"),
        "timestepping.integrate.self_ms": ms(excl, "timestepping.integrate"),
        "timestepping.adapt_dt.calls": calls.get("timestepping.adapt_dt", 0),
        "timestepping.adapt_dt.ms": ms(incl, "timestepping.adapt_dt"),
        "diagnostics.record.calls": len(records),
        "diagnostics.record.ms": ms(incl, "diagnostics.record"),
        "diagnostics.records_per_state": len(records) / len(set(records)) if records else 0.0,
        "storage.csv.rows": calls.get("storage.csv.append", 0),
        "storage.csv.ms": ms(incl, "storage.csv.append", "storage.csv.close"),
        "storage.snapshot.bytes": sum(s[_INFO] for s in spans if s[_NAME] == "storage.snapshot.write"),
        "storage.snapshot.write_ms": ms(incl, "storage.snapshot.write"),
        "bounds.checks": calls.get("bounds.check", 0),
        "bounds.ms": ms(incl, "bounds.check"),
        "experiments.integrate.calls": calls.get("experiments.integrate", 0),
        "experiments.norm.ms": ms(incl, "experiments.norm"),
        "experiments.self_ms": ms(excl, "experiments.separation"),
        "config.parse_ms": ms(incl, "config.parse"),
        "fields.forcing_ms": ms(incl, "fields.forcing"),
        "fields.initial_ms": ms(incl, "fields.initial"),
        "trace.spans": count,
        "trace.unwrapped_frac": 1e3 * sum(self_t[i] for i in roots) / root_ms if root_ms else 0.0,
        # consistency inputs, not metrics
        "_root_ms": root_ms,
        "_self_sum_ms": 1e3 * sum(self_t),
        "_min_self_ms": 1e3 * min(self_t) if self_t else 0.0,
        "_open_spans": sum(1 for s in spans if s[_END] < s[_START]),
        "_step_ms": [1e3 * dur[i] for i, s in enumerate(spans) if s[_NAME] == "timestepping.step"],
    }
