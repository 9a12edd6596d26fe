"""Integrating-factor Runge-Kutta time integration.

The projected system du/dt = -mu A u - B(u,u) - alpha P|u|^(beta-1) u + P f
is advanced with the viscous term handled exactly per mode through the
factor exp(-mu |k|^2 dt); the convective, damping and forcing parts are
explicit. The scheme is IF-RK2 (integrating-factor Heun).

A step's block-wide work runs in the parts of
:meth:`~dampedns.grid.WaveGrid.by_k1_half`, each on its own k1 rows of
every block: the predictor (into a per-grid workspace), and the corrector
fused with the post-step projection and the blow-up peak. The right-hand
side runs its own pipeline in the same parts
(:func:`~dampedns.operators.nonviscous_rhs`). Every mode sees the same
arithmetic in either part, so results do not depend on the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fields
from .grid import WaveGrid
from .fields import ForcingField, SpectralVelocity
from .operators import check_physics, nonviscous_rhs

__all__ = [
    "SolverError",
    "BlowUpError",
    "SchemeConfig",
    "Physics",
    "SolverState",
    "Observer",
    "step",
    "integrate",
]

BLOWUP_GUARD = 1e15
_SCHEME_METHODS = ("if-rk2",)


class SolverError(RuntimeError):
    """Time integration failed."""


class BlowUpError(SolverError):
    """Spectral amplitudes exceeded the overflow guard.

    Signals numerical instability (reduce dt), not a physical statement.
    """

    def __init__(self, t: float, peak: float):
        super().__init__(f"solution blew up at t={t:.6g} (max|u_hat|={peak:.3e}); reduce dt")
        self.t = t
        self.peak = peak


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping controls.

    ``dt`` is the fixed step. An adaptive step never reads it (it is only
    validated): :func:`step` takes dt from the first stage's peak speed, with
    a CFL target plus a damping stiffness guard, clamped to [dt_min, dt_max].
    """

    method: str = "if-rk2"
    dt: float = 1e-2
    dt_min: float = 1e-8
    dt_max: float = 0.1
    cfl_target: float = 0.4
    adaptive: bool = True

    def __post_init__(self):
        if self.method not in _SCHEME_METHODS:
            raise ValueError(f"unknown scheme {self.method!r}; choose from {list(_SCHEME_METHODS)}")
        if not (0.0 < self.dt_min <= self.dt <= self.dt_max < np.inf):
            raise ValueError(
                f"need 0 < dt_min <= dt <= dt_max < inf, got dt_min={self.dt_min}, dt={self.dt}, dt_max={self.dt_max}"
            )
        if not (0.0 < self.cfl_target <= 1.0):
            raise ValueError(f"cfl_target must lie in (0, 1], got {self.cfl_target}")


@dataclass(frozen=True)
class Physics:
    """Physical parameters of one run: viscosity, damping and forcing."""

    mu: float
    alpha: float
    beta: float
    forcing: ForcingField

    def __post_init__(self):
        check_physics(self.alpha, self.beta, self.mu)


@dataclass
class SolverState:
    """Trajectory point: time, velocity field and step bookkeeping."""

    t: float
    u: SpectralVelocity
    step_count: int = 0
    last_dt: float = 0.0


def _cfl_dt(speed: float, t: float, grid: WaveGrid, scheme: SchemeConfig, physics: Physics) -> float:
    if not np.isfinite(speed):
        raise SolverError(f"non-finite velocity at t={t:.6g}")
    if speed == 0.0:
        return scheme.dt_max
    dt = scheme.cfl_target * grid.dx / speed
    dt = min(dt, scheme.cfl_target / (physics.alpha * speed ** (physics.beta - 1.0)))
    return float(min(max(dt, scheme.dt_min), scheme.dt_max))


def step(
    state: SolverState,
    scheme: SchemeConfig,
    physics: Physics,
    until: float | None = None,
) -> SolverState:
    """Advance one step; returns a new state, never mutates the input.

    An adaptive scheme takes dt from max|u(x)| of the first stage: the CFL
    step cfl * dx / max|u|, capped by cfl / (alpha * max|u|^(beta-1)) so the
    explicit damping term stays stable for large amplitudes, and clamped to
    [dt_min, dt_max]; a fluid at rest imposes no constraint and gets dt_max.
    A fixed scheme uses ``scheme.dt``; ``until`` clips either so the step
    does not pass that time.
    The viscous factor exp(-mu |k|^2 dt) is exact per mode; the remaining
    terms are advanced explicitly, all on the retained block. The result is
    re-projected to keep the field invariants after every step, and a
    blow-up guard rejects runaway amplitudes, NaN included. A step
    allocates only its two right-hand sides, the first of which becomes the
    result; the predictor and every scratch array are per-grid workspaces.
    """
    grid = state.u.grid
    coeffs = state.u.coeffs
    al, be, f = physics.alpha, physics.beta, physics.forcing.coeffs
    k1, speed = nonviscous_rhs(coeffs, grid, al, be, f)
    dt = _cfl_dt(speed, state.t, grid, scheme, physics) if scheme.adaptive else scheme.dt
    if until is not None:
        dt = min(dt, until - state.t)
    if dt <= 0.0:
        raise SolverError(f"nonpositive step dt={dt}")
    peaks = np.full(2, -np.inf)
    visc = grid.viscous_factor(physics.mu, dt)
    pred = grid.workspace("step.pred", coeffs.shape)

    def predictor(part: int, rows: slice) -> None:
        mine = pred[:, rows]
        np.multiply(k1[:, rows], dt, out=mine)
        mine += coeffs[:, rows]
        mine *= visc[rows]

    grid.by_k1_half(predictor)
    k2, _ = nonviscous_rhs(pred, grid, al, be, f)

    def corrector(part: int, rows: slice) -> None:
        mine, late = k1[:, rows], k2[:, rows]
        mine *= 0.5 * dt
        mine += coeffs[:, rows]
        mine *= visc[rows]
        late *= 0.5 * dt
        mine += late
        # the projection goes through the fields module, as in nonviscous_rhs
        fields.project_coeffs(k1, grid, rows)
        mag = grid.workspace(f"step.abs{part}", mine.shape[1:], np.float64)
        peaks[part] = np.max([np.abs(comp, out=mag).max() for comp in mine])

    grid.by_k1_half(corrector)
    t_new = state.t + dt
    peak = float(peaks.max())  # NaN in either part propagates, unlike the builtin max
    if not np.isfinite(peak) or peak > BLOWUP_GUARD:
        raise BlowUpError(t_new, peak)
    return SolverState(t_new, SpectralVelocity(grid, k1), state.step_count + 1, dt)


@dataclass
class Observer:
    """Callback fired at t0, every ``stride`` steps, and at the final state."""

    stride: int
    fn: Callable[[SolverState], None]
    _last_fired: int | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"observer stride must be >= 1, got {self.stride}")

    def maybe_fire(self, state: SolverState, force: bool = False) -> None:
        due = force or state.step_count % self.stride == 0
        if due and self._last_fired != state.step_count:
            self._last_fired = state.step_count
            self.fn(state)


def integrate(
    state: SolverState,
    until: float,
    scheme: SchemeConfig,
    physics: Physics,
    observers: Sequence[Observer] = (),
) -> SolverState:
    """Step from state.t to ``until``, firing observers at their strides.

    Deterministic for a fixed configuration: the dt sequence depends only on
    the current state, so a run restarted from a snapshot continues the
    trajectory of the uninterrupted run exactly. The final step is clipped
    to land on ``until``, and the final state's time is set to exactly
    ``until``. Step failures propagate with the failing time attached.
    """
    if until < state.t:
        raise ValueError(f"target time {until} precedes state time {state.t}")
    for obs in observers:
        obs.maybe_fire(state, force=True)
    eps = 1e-12 * max(1.0, abs(until))
    while until - state.t > eps:
        state = step(state, scheme, physics, until=until)
        if until - state.t <= eps:
            state.t = until  # the clip or the tolerance ends the run: land on until, not ulps off
        for obs in observers:
            obs.maybe_fire(state)
    for obs in observers:
        obs.maybe_fire(state, force=True)
    return state
