"""Multi-run experiments: steady states, sweeps, trajectory separation.

The cylinder-forced box develops a steady circulation whose approach speed
depends on the damping parameters; these runners detect steadiness, sweep
the (alpha, beta) plane, compare initial conditions and probe continuous
dependence on the initial datum in the uniqueness regime.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import RegimeError, REGIME_BY_CHECK, in_uniqueness_regime
from .config import RunConfig, build_grid, build_physics, build_state
from .diagnostics import record
from .fields import InitialSpec, SpectralVelocity, h_norm_sq, make_initial_condition
from .operators import check_physics
from .storage import make_output_dir, write_snapshot
from .timestepping import Physics, SchemeConfig, SolverError, SolverState, integrate

__all__ = [
    "DEFAULT_IC_PAIR",
    "SteadyRun",
    "SteadyCell",
    "SweepResult",
    "SeparationRun",
    "SeparationResult",
    "ICIndependenceResult",
    "check_steady",
    "check_sweep",
    "check_separation",
    "check_separation_regime",
    "stride_count",
    "detect_steady_state",
    "run_to_steady",
    "run_initial_condition_independence",
    "run_trajectory_separation",
    "run_convergence_speed_sweep",
]

RATIO_FACTOR = 2.0  # see run_trajectory_separation
STEADY_WINDOW = 10  # consecutive small rates that declare a steady state

# two different states: the fluid at rest and a seeded random field
DEFAULT_IC_PAIR = (InitialSpec(kind="zero"), InitialSpec(kind="random", seed=5, energy=1.0))


# ----------------------------------------------------------------------
# checks and the stride loop
# ----------------------------------------------------------------------

def stride_count(max_t: float, stride: float) -> tuple[int, bool]:
    """Number of strides that cover ``max_t``, and whether they fit it whole.

    A horizon within 1e-9 (relative) of a whole number n of strides is n
    whole strides; any other horizon takes ceil(max_t / stride) strides,
    the last one cut short.
    """
    strides = max_t / stride
    whole = round(strides)
    if abs(strides - whole) <= 1e-9 * strides:
        return whole, True
    return math.ceil(strides), False


def _check_horizon(stride: float, max_t: float) -> None:
    if not 0.0 < stride <= max_t < math.inf:
        raise ValueError(f"need 0 < stride <= max_t < inf, got stride={stride}, max_t={max_t}")


def check_steady(stride: float, steady_tol: float, max_t: float) -> None:
    """Raise ValueError unless steady_tol > 0 and 0 < stride <= max_t, all finite."""
    if not 0.0 < steady_tol < math.inf:
        raise ValueError(f"steady_tol must be > 0 and finite, got {steady_tol}")
    _check_horizon(stride, max_t)


def check_sweep(alphas, betas, *, stride: float, steady_tol: float, max_t: float) -> None:
    """Raise ValueError unless both axes are non-empty, every alpha and beta
    is valid physics and the steady-state run is valid. An axis error names
    its list, ``alphas`` or ``betas``."""
    # check_physics judges each parameter on its own, so each axis is checked
    # against a valid value of the other
    for key, values, check in (("alphas", alphas, lambda alpha: check_physics(alpha, 1.0)),
                               ("betas", betas, lambda beta: check_physics(1.0, beta))):
        if not values:
            raise ValueError(f"{key} must be non-empty")
        for value in values:
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    check_steady(stride, steady_tol, max_t)


def check_separation(deltas, *, stride: float, max_t: float, perturb_seed: int = 7) -> None:
    """Raise ValueError unless the amplitudes ``deltas`` are non-empty, > 0
    and finite, 0 < stride <= max_t, all finite, and perturb_seed >= 0."""
    if not deltas:
        raise ValueError("deltas (perturbation amplitudes) must be non-empty")
    if not all(0.0 < d < math.inf for d in deltas):
        raise ValueError(f"deltas (perturbation amplitudes) must be > 0 and finite, got {tuple(deltas)}")
    if perturb_seed < 0:
        raise ValueError(f"perturb_seed must be >= 0, got {perturb_seed}")
    _check_horizon(stride, max_t)


def check_separation_regime(config: RunConfig) -> None:
    """Raise RegimeError unless ``config`` lies in the uniqueness regime."""
    if not in_uniqueness_regime(config.mu, config.alpha, config.beta):
        raise RegimeError(
            f"trajectory separation requires {REGIME_BY_CHECK['trajectory_separation']}; "
            f"got mu={config.mu}, alpha={config.alpha}, beta={config.beta}"
        )


def _strides(state: SolverState, scheme: SchemeConfig, physics: Physics, *,
             stride: float, max_t: float) -> Iterator[SolverState]:
    """Integrate ``state`` over ``max_t``, yielding the state at each stride end.

    The targets are t0 + k stride, k = 1..n, for the n of :func:`stride_count`;
    when the strides do not fit the horizon whole, the last one ends on
    t0 + max_t instead.
    """
    t0 = state.t
    n, whole = stride_count(max_t, stride)
    for k in range(1, n + 1):
        target = t0 + max_t if k == n and not whole else t0 + k * stride
        state = integrate(state, target, scheme, physics)
        yield state


# ----------------------------------------------------------------------
# steady-state detection
# ----------------------------------------------------------------------

def detect_steady_state(
    times: np.ndarray,
    rates: np.ndarray,
    steady_tol: float,
) -> tuple[bool, float | None]:
    """First time where the normalized difference quotient stays small.

    ``rates[i]`` is |u(t_i + stride) - u(t_i)| / (stride * max(1, |u(t_i)|));
    convergence is declared at the first t_i opening :data:`STEADY_WINDOW`
    consecutive rates at or below ``steady_tol``. Non-convergence is a valid
    outcome.
    """
    times = np.asarray(times, float)
    rates = np.asarray(rates, float)
    if times.shape != rates.shape:
        raise ValueError("times and rates must have matching shapes")
    ok = rates <= steady_tol
    run = 0
    for i, good in enumerate(ok):
        run = run + 1 if good else 0
        if run >= STEADY_WINDOW:
            return True, float(times[i - STEADY_WINDOW + 1])
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
) -> SteadyRun:
    """Integrate until the difference quotient stays below steady_tol.

    Monitors |u(t + stride) - u(t)|_H between snapshots at a uniform time
    stride and stops at the first sustained window (as
    :func:`detect_steady_state` finds it), or at t0 + max_t. When the
    stride does not divide max_t, the last stride is cut short to end there.
    """
    check_steady(stride, steady_tol, max_t)
    grid = state.u.grid
    times: list[float] = []
    rates: list[float] = []
    prev = state
    for state in _strides(state, scheme, physics, stride=stride, max_t=max_t):
        prev_norm = math.sqrt(h_norm_sq(prev.u.coeffs, grid))
        diff = state.u.coeffs - prev.u.coeffs
        rate = math.sqrt(h_norm_sq(diff, grid)) / ((state.t - prev.t) * max(1.0, prev_norm))
        times.append(prev.t)
        rates.append(rate)
        prev = state
        converged, t_c = detect_steady_state(
            times[-STEADY_WINDOW:], rates[-STEADY_WINDOW:], steady_tol)
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
    alpha_nonincreasing: dict[float, bool]  # per beta: T_c non-increasing in alpha
    beta_nonincreasing: dict[float, bool]   # per alpha: T_c non-increasing in beta

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


def _config_to_steady(cfg: RunConfig, **steady) -> tuple[Physics, SteadyRun]:
    """Build the grid, physics and initial state of ``cfg`` and run it to
    steadiness with the given stride, steady_tol and max_t."""
    grid = build_grid(cfg)
    physics = build_physics(cfg, grid)
    state = build_state(cfg, grid)
    return physics, run_to_steady(state, cfg.scheme, physics, **steady)


def _nonincreasing(values: list[float | None], max_t: float) -> bool:
    seq = [max_t * 2.0 if v is None else v for v in values]
    return all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))


def run_convergence_speed_sweep(
    config: RunConfig,
    alphas,
    betas,
    *,
    stride: float,
    steady_tol: float,
    max_t: float,
    snapshot_dir: str | None = None,
) -> SweepResult:
    """Run every (alpha, beta) cell of ``config`` to steadiness, then judge
    how the convergence time T_c moves along each axis.

    Cells are independent; a cell's SolverError (a blow-up, say) propagates
    as a SolverError that names the offending pair. Final states stay on
    the returned cells and are additionally written to ``snapshot_dir``
    (one file per cell) when it is set; the directory is created before
    the first cell.

    Verdicts are observational: per beta, whether T_c is non-increasing as
    alpha grows; per alpha, whether T_c is non-increasing as beta grows.
    Non-converged cells count as slower than any converged one.
    """
    check_sweep(alphas, betas, stride=stride, steady_tol=steady_tol, max_t=max_t)
    out = None if snapshot_dir is None else make_output_dir(snapshot_dir)
    cells: list[SteadyCell] = []
    for alpha in alphas:
        for beta in betas:
            cfg = replace(config, alpha=alpha, beta=beta)
            try:
                physics, run = _config_to_steady(cfg, stride=stride, steady_tol=steady_tol, max_t=max_t)
            except SolverError as exc:
                raise SolverError(f"steady-state cell alpha={alpha}, beta={beta} failed: {exc}") from exc
            snap_path = None
            if out is not None:
                snap_path = str(out / f"{cfg.run_id}-a{alpha:g}-b{beta:g}.snap")
                write_snapshot(run.state, physics, snap_path)
            final = record(run.state.u, run.state.t, physics)
            cells.append(SteadyCell(
                alpha=alpha, beta=beta, converged=run.converged, t_c=run.t_c,
                final_norm_sq=final.E, final_umax=final.umax,
                state=run.state, snapshot_path=snap_path,
            ))
    t_c = {(c.alpha, c.beta): c.t_c for c in cells}
    alphas, betas = sorted(alphas), sorted(betas)
    return SweepResult(
        cells,
        {b: _nonincreasing([t_c[a, b] for a in alphas], max_t) for b in betas},
        {a: _nonincreasing([t_c[a, b] for b in betas], max_t) for a in alphas},
    )


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


def run_initial_condition_independence(
    config: RunConfig,
    ic_pair: tuple[InitialSpec, InitialSpec] = DEFAULT_IC_PAIR,
    *,
    stride: float,
    steady_tol: float,
    max_t: float,
) -> ICIndependenceResult:
    """Drive two initial conditions to steadiness and compare final states.

    Returns the H-distance between the two final states and whether it is
    within 10 * steady_tol. Non-convergence of either run is inconclusive.
    """
    check_steady(stride, steady_tol, max_t)
    a, b = (
        _config_to_steady(replace(config, initial=ic), stride=stride, steady_tol=steady_tol, max_t=max_t)[1]
        for ic in ic_pair
    )
    if not (a.converged and b.converged):
        return ICIndependenceResult("inconclusive", None, False, a.t_c, b.t_c)
    grid = a.state.u.grid
    distance = math.sqrt(h_norm_sq(a.state.u.coeffs - b.state.u.coeffs, grid))
    return ICIndependenceResult(
        "converged", distance, distance <= 10.0 * steady_tol, a.t_c, b.t_c,
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


def run_trajectory_separation(
    config: RunConfig,
    deltas,
    *,
    max_t: float,
    stride: float,
    perturb_seed: int = 7,
) -> SeparationResult:
    """Separation d(t) = |u1(t) - u2(t)| of delta-perturbed trajectories.

    Requires the uniqueness regime (beta > 3, or beta = 3 with
    4 alpha mu >= 1). The base trajectory is run once with a fixed step and
    compared at every stride end of :func:`_strides` (t = k stride, and
    t = max_t when the last stride is cut short) against one perturbed run
    per amplitude; the perturbation is a fixed random
    divergence-free field of unit norm, so d(0) = delta. The ratio test
    sup_t d(t)/delta across amplitudes quantifies uniform continuous
    dependence: a spread within ``RATIO_FACTOR`` means the response scales
    linearly with the perturbation.
    """
    check_separation(deltas, stride=stride, max_t=max_t, perturb_seed=perturb_seed)
    check_separation_regime(config)
    # lockstep comparison needs a shared dt sequence: force the fixed step
    scheme = replace(config.scheme, adaptive=False)
    grid = build_grid(config)
    physics = build_physics(config, grid)
    base0 = build_state(config, grid)
    perturb = make_initial_condition(grid, "random", seed=perturb_seed, energy=1.0)
    # states are never mutated, so the base run's coefficients need no copies
    base = [base0.u.coeffs]
    base += [s.u.coeffs for s in _strides(base0, scheme, physics, stride=stride, max_t=max_t)]

    runs: list[SeparationRun] = []
    for delta in deltas:
        pert = SolverState(0.0, SpectralVelocity(grid, base0.u.coeffs + delta * perturb.coeffs))
        times = [0.0]
        dists = [math.sqrt(h_norm_sq(pert.u.coeffs - base[0], grid))]
        for k, pert in enumerate(_strides(pert, scheme, physics, stride=stride, max_t=max_t), 1):
            times.append(pert.t)
            dists.append(math.sqrt(h_norm_sq(pert.u.coeffs - base[k], grid)))
        d = np.array(dists)
        t = np.array(times)
        positive = d > 0
        rate = float(np.polyfit(t[positive], np.log(d[positive]), 1)[0]) if positive.sum() >= 2 else 0.0
        runs.append(SeparationRun(delta, t, d, float(d.max() / delta), rate))

    ratios = [r.ratio for r in runs]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    return SeparationResult(runs, spread, spread <= RATIO_FACTOR)
