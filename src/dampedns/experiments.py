"""Multi-run experiments: steady states, sweeps, trajectory separation.

The cylinder-forced box develops a steady circulation whose approach speed
depends on the damping parameters; these runners detect steadiness, sweep
the (alpha, beta) plane, compare initial conditions and probe continuous
dependence on the initial datum in the uniqueness regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bounds import RegimeError, REGIME_BY_CHECK, in_uniqueness_regime
from .config import RunConfig, InitialSpec, build_grid, build_physics, build_state
from .fields import SpectralVelocity, h_norm_sq, make_initial_condition
from .operators import check_physics
from .timestepping import Physics, SchemeConfig, SolverState, integrate

__all__ = [
    "ExperimentSpec",
    "SteadyRun",
    "SteadyCell",
    "SweepResult",
    "SeparationRun",
    "SeparationResult",
    "ICIndependenceResult",
    "detect_steady_state",
    "run_to_steady",
    "run_steady_state_experiment",
    "run_initial_condition_independence",
    "run_trajectory_separation",
    "run_convergence_speed_sweep",
]

RATIO_FACTOR = 2.0  # see run_trajectory_separation


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: base configuration plus sweep/perturbation axes."""

    kind: str  # steady_state | parameter_sweep | trajectory_separation
    config: RunConfig
    alphas: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    deltas: tuple[float, ...] = ()
    perturb_seed: int = 7
    steady_tol: float = 1e-6
    max_t: float = 200.0
    stride: float = 0.25
    snapshot_dir: str | None = None  # persist final cell states when set
    ic_pair: tuple[InitialSpec, InitialSpec] = (
        InitialSpec(kind="zero"),
        InitialSpec(kind="random", seed=5, energy=1.0),
    )

    def __post_init__(self):
        kinds = ("steady_state", "parameter_sweep", "trajectory_separation")
        if self.kind not in kinds:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {', '.join(kinds)}")
        if self.kind in ("steady_state", "parameter_sweep"):
            if not self.alphas or not self.betas:
                raise ValueError(f"{self.kind} experiments need non-empty alpha and beta lists")
        if self.kind == "trajectory_separation" and not self.deltas:
            raise ValueError("trajectory_separation experiments need perturbation amplitudes")
        if not all(0.0 < d < math.inf for d in self.deltas):
            raise ValueError(f"perturbation amplitudes must be > 0 and finite, got {self.deltas}")
        if not 0.0 < self.steady_tol < math.inf:
            raise ValueError(f"steady_tol must be > 0 and finite, got {self.steady_tol}")
        if not 0.0 < self.stride <= self.max_t < math.inf:
            raise ValueError(f"need 0 < stride <= max_t < inf, got stride={self.stride}, max_t={self.max_t}")
        strides = self.max_t / self.stride
        if self.kind == "trajectory_separation" and abs(strides - round(strides)) > 1e-9 * strides:
            raise ValueError(
                f"trajectory_separation needs a horizon of whole strides, got max_t={self.max_t}, stride={self.stride}"
            )
        for alpha in self.alphas:
            for beta in self.betas:
                check_physics(alpha, beta)


# ----------------------------------------------------------------------
# steady-state detection
# ----------------------------------------------------------------------

def detect_steady_state(
    times: np.ndarray,
    rates: np.ndarray,
    steady_tol: float,
    window: int = 10,
) -> tuple[bool, float | None]:
    """First time where the normalized difference quotient stays small.

    ``rates[i]`` is |u(t_i + stride) - u(t_i)| / (stride * max(1, |u(t_i)|));
    convergence is declared at the first t_i opening ``window`` consecutive
    rates at or below ``steady_tol``. Non-convergence is a valid outcome.
    """
    times = np.asarray(times, float)
    rates = np.asarray(rates, float)
    if times.shape != rates.shape:
        raise ValueError("times and rates must have matching shapes")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    ok = rates <= steady_tol
    run = 0
    for i, good in enumerate(ok):
        run = run + 1 if good else 0
        if run >= window:
            return True, float(times[i - window + 1])
    return False, None


@dataclass
class SteadyRun:
    converged: bool
    t_c: float | None
    state: SolverState
    times: np.ndarray
    rates: np.ndarray


def run_to_steady(
    state: SolverState,
    scheme: SchemeConfig,
    physics: Physics,
    *,
    stride: float,
    steady_tol: float,
    max_t: float,
    window: int = 10,
) -> SteadyRun:
    """Integrate until the difference quotient stays below steady_tol.

    Monitors |u(t + stride) - u(t)|_H between snapshots at a uniform time
    stride and stops at the first sustained window (as
    :func:`detect_steady_state` finds it), or at t0 + max_t. When the
    stride does not divide max_t, the last stride is cut short to end there.
    """
    t0 = state.t
    times: list[float] = []
    rates: list[float] = []
    n_strides = int(math.ceil(max_t / stride - 1e-9))
    for k in range(1, n_strides + 1):
        prev = state.u.coeffs.copy()
        prev_t = state.t
        prev_norm = math.sqrt(h_norm_sq(prev, state.u.grid))
        # only a stride that does not divide max_t overshoots it by more than rounding
        target = t0 + max_t if k * stride - max_t > 1e-9 * stride else t0 + k * stride
        state = integrate(state, target, scheme, physics)
        diff = state.u.coeffs - prev
        rate = math.sqrt(h_norm_sq(diff, state.u.grid)) / ((state.t - prev_t) * max(1.0, prev_norm))
        times.append(prev_t)
        rates.append(rate)
        converged, t_c = detect_steady_state(times[-window:], rates[-window:], steady_tol, window)
        if converged:
            return SteadyRun(True, t_c, state, np.array(times), np.array(rates))
    return SteadyRun(False, None, state, np.array(times), np.array(rates))


# ----------------------------------------------------------------------
# steady-state sweep
# ----------------------------------------------------------------------

@dataclass
class SteadyCell:
    alpha: float
    beta: float
    converged: bool
    t_c: float | None
    final_norm_sq: float
    final_umax: float
    state: SolverState = field(repr=False)
    snapshot_path: str | None = None


@dataclass
class SweepResult:
    cells: list[SteadyCell]
    alpha_nonincreasing: dict[float, bool] = field(default_factory=dict)
    beta_nonincreasing: dict[float, bool] = field(default_factory=dict)

    def cell(self, alpha: float, beta: float) -> SteadyCell:
        for c in self.cells:
            if c.alpha == alpha and c.beta == beta:
                return c
        raise KeyError(f"no cell for alpha={alpha}, beta={beta}")

    def table(self) -> list[dict]:
        return [
            {
                "alpha": c.alpha, "beta": c.beta, "converged": c.converged,
                "t_c": c.t_c, "final_norm_sq": c.final_norm_sq, "final_umax": c.final_umax,
                "snapshot": c.snapshot_path,
            }
            for c in self.cells
        ]


def _config_to_steady(cfg: RunConfig, spec: ExperimentSpec) -> tuple[Physics, SteadyRun]:
    """Build the grid, physics and initial state of ``cfg`` and run it to
    steadiness with the spec's stride, tolerance and horizon."""
    grid = build_grid(cfg)
    physics = build_physics(cfg, grid)
    state = build_state(cfg, grid)
    return physics, run_to_steady(
        state, cfg.scheme, physics,
        stride=spec.stride, steady_tol=spec.steady_tol, max_t=spec.max_t,
    )


def run_steady_state_experiment(spec: ExperimentSpec) -> SweepResult:
    """Run every (alpha, beta) cell from the base configuration to steadiness.

    Cells are independent; a blow-up propagates with the offending pair
    attached. Final states stay on the returned cells and are additionally
    written to ``spec.snapshot_dir`` (one file per cell) when it is set.
    """
    cells: list[SteadyCell] = []
    for alpha in spec.alphas:
        for beta in spec.betas:
            cfg = spec.config.with_damping(alpha, beta)
            try:
                physics, run = _config_to_steady(cfg, spec)
            except Exception as exc:
                raise RuntimeError(f"steady-state cell alpha={alpha}, beta={beta} failed: {exc}") from exc
            snap_path = None
            if spec.snapshot_dir is not None:
                from .storage import write_snapshot

                out = Path(spec.snapshot_dir)
                out.mkdir(parents=True, exist_ok=True)
                snap_path = str(out / f"{cfg.run_id}-a{alpha:g}-b{beta:g}.snap")
                write_snapshot(run.state, physics, snap_path)
            phys_v = run.state.u.to_physical()
            cells.append(SteadyCell(
                alpha=alpha, beta=beta, converged=run.converged, t_c=run.t_c,
                final_norm_sq=run.state.u.norm_h_sq, final_umax=phys_v.max_speed(),
                state=run.state, snapshot_path=snap_path,
            ))
    return SweepResult(cells)


def _nonincreasing(values: list[float | None], max_t: float) -> bool:
    seq = [max_t * 2.0 if v is None else v for v in values]
    return all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))


def run_convergence_speed_sweep(spec: ExperimentSpec) -> SweepResult:
    """Steady-state sweep plus monotonicity verdicts of the convergence time.

    Verdicts are observational: per beta, whether T_c is non-increasing as
    alpha grows; per alpha, whether T_c is non-increasing as beta grows.
    Non-converged cells count as slower than any converged one.
    """
    result = run_steady_state_experiment(spec)
    alphas = sorted(spec.alphas)
    betas = sorted(spec.betas)
    for beta in betas:
        col = [result.cell(a, beta).t_c for a in alphas]
        result.alpha_nonincreasing[beta] = _nonincreasing(col, spec.max_t)
    for alpha in alphas:
        row = [result.cell(alpha, b).t_c for b in betas]
        result.beta_nonincreasing[alpha] = _nonincreasing(row, spec.max_t)
    return result


# ----------------------------------------------------------------------
# initial-condition independence
# ----------------------------------------------------------------------

@dataclass
class ICIndependenceResult:
    status: str  # converged | inconclusive
    distance: float | None
    same_steady_state: bool
    t_c_a: float | None
    t_c_b: float | None


def run_initial_condition_independence(spec: ExperimentSpec) -> ICIndependenceResult:
    """Drive two initial conditions to steadiness and compare final states.

    Returns the H-distance between the two final states and whether it is
    within 10 * steady_tol. Non-convergence of either run is inconclusive.
    """
    a, b = (_config_to_steady(replace(spec.config, initial=ic), spec)[1] for ic in spec.ic_pair)
    if not (a.converged and b.converged):
        return ICIndependenceResult("inconclusive", None, False, a.t_c, b.t_c)
    grid = a.state.u.grid
    distance = math.sqrt(h_norm_sq(a.state.u.coeffs - b.state.u.coeffs, grid))
    return ICIndependenceResult(
        "converged", distance, distance <= 10.0 * spec.steady_tol, a.t_c, b.t_c,
    )


# ----------------------------------------------------------------------
# trajectory separation (continuous dependence on the initial datum)
# ----------------------------------------------------------------------

@dataclass
class SeparationRun:
    delta: float
    times: np.ndarray
    distances: np.ndarray
    ratio: float        # max_t d(t) / delta
    growth_rate: float  # least-squares exponent of d(t)


@dataclass
class SeparationResult:
    runs: list[SeparationRun]
    ratio_spread: float
    uniform_in_delta: bool


def run_trajectory_separation(spec: ExperimentSpec) -> SeparationResult:
    """Separation d(t) = |u1(t) - u2(t)| of delta-perturbed trajectories.

    Requires the uniqueness regime (beta > 3, or beta = 3 with
    4 alpha mu >= 1). The base trajectory is run once with a fixed step and
    compared against one perturbed run per amplitude; the perturbation is a
    fixed random divergence-free field of unit norm, so d(0) = delta. The
    ratio test sup_t d(t)/delta across amplitudes quantifies uniform
    continuous dependence: a spread within ``RATIO_FACTOR`` means the
    response scales linearly with the perturbation.
    """
    cfg = spec.config
    if not in_uniqueness_regime(cfg.mu, cfg.alpha, cfg.beta):
        raise RegimeError(
            f"trajectory separation requires {REGIME_BY_CHECK['trajectory_separation']}; "
            f"got mu={cfg.mu}, alpha={cfg.alpha}, beta={cfg.beta}"
        )
    # lockstep comparison needs a shared dt sequence: force the fixed step
    scheme = replace(cfg.scheme, adaptive=False)
    grid = build_grid(cfg)
    physics = build_physics(cfg, grid)
    base0 = build_state(cfg, grid)
    perturb = make_initial_condition(grid, "random", seed=spec.perturb_seed, energy=1.0)

    n_strides = int(round(spec.max_t / spec.stride))
    # base trajectory snapshots at the stride boundaries
    base_snaps = [base0.u.coeffs.copy()]
    state = base0.copy()
    for k in range(1, n_strides + 1):
        state = integrate(state, k * spec.stride, scheme, physics)
        base_snaps.append(state.u.coeffs.copy())

    runs: list[SeparationRun] = []
    for delta in spec.deltas:
        pert = SolverState(0.0, SpectralVelocity(grid, base0.u.coeffs + delta * perturb.coeffs))
        times = [0.0]
        dists = [math.sqrt(h_norm_sq(pert.u.coeffs - base_snaps[0], grid))]
        for k in range(1, n_strides + 1):
            pert = integrate(pert, k * spec.stride, scheme, physics)
            times.append(pert.t)
            dists.append(math.sqrt(h_norm_sq(pert.u.coeffs - base_snaps[k], grid)))
        d = np.array(dists)
        t = np.array(times)
        positive = d > 0
        rate = float(np.polyfit(t[positive], np.log(d[positive]), 1)[0]) if positive.sum() >= 2 else 0.0
        runs.append(SeparationRun(delta, t, d, float(d.max() / delta), rate))

    ratios = [r.ratio for r in runs]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    return SeparationResult(runs, spread, spread <= RATIO_FACTOR)
