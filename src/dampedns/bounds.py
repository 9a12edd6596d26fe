"""Machine-checkable energy estimates over recorded trajectories.

Each check turns one a-priori inequality of the damped system into a
tolerance-aware assertion on a diagnostics series and reports the signed
per-time margin (bound minus observed), so a failure distinguishes a real
violation from discretization slack. All checks are pure functions of the
records: identical inputs give bit-identical reports. A check that does not
apply to a run raises :class:`NotApplicable`, so a caller can skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord

__all__ = [
    "NotApplicable",
    "RegimeError",
    "BoundReport",
    "REGIME_BY_CHECK",
    "in_uniqueness_regime",
    "in_regularity_regime",
    "check_decay_bound",
    "check_integral_bound",
    "check_absorbing_ball",
    "check_norm_boundedness",
    "check_damping_positivity",
    "monotone_envelope_max_excess",
]

# Two closely related parameter regimes appear in the theory; each check
# records which variant it needs. Uniqueness / continuous dependence allows
# the boundary case 4*alpha*mu = 1 at beta = 3, the regularity estimates
# demand the strict inequality and beta < 5.
REGIME_BY_CHECK = {
    "norm_boundedness": "regularity: 3 < beta < 5, or beta = 3 with 4*alpha*mu > 1",
    "trajectory_separation": "uniqueness: beta > 3, or beta = 3 with 4*alpha*mu >= 1",
}


# The integrator (IF-RK2) is second order: the scheme slack of every check
# with a dt is dt ** SCHEME_ORDER times a scale.
SCHEME_ORDER = 2
SLOPE_TOL = 1e-3  # per time unit, see check_norm_boundedness
# check_absorbing_ball: the entry prediction is the time the decay bound
# takes to bring E0 down to ENTRY_TOL, and entry may lag it by T_SLACK.
ENTRY_TOL = 1.0
T_SLACK = 1.0


class NotApplicable(ValueError):
    """A check's precondition does not hold for this run, so it has no verdict."""


class RegimeError(NotApplicable):
    """Physics parameters violate the regime a check requires."""


def in_uniqueness_regime(mu: float, alpha: float, beta: float) -> bool:
    return beta > 3.0 or (beta == 3.0 and 4.0 * alpha * mu >= 1.0)


def in_regularity_regime(mu: float, alpha: float, beta: float) -> bool:
    return 3.0 < beta < 5.0 or (beta == 3.0 and 4.0 * alpha * mu > 1.0)


@dataclass
class BoundReport:
    """Pass/fail ledger for one inequality over one trajectory.

    ``margin`` holds bound - observed per checked time; the report passes
    iff min(margin) >= -tolerance.
    """

    bound_id: str
    checked_at: np.ndarray
    margin: np.ndarray
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def min_margin(self) -> float:
        return float(self.margin.min()) if self.margin.size else math.inf

    def row(self) -> dict:
        """Serializable summary (the structured-row external interface)."""
        return {
            "bound_id": self.bound_id,
            "pass": bool(self.passed),
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
        }


def _report(bound_id: str, times, margin, tolerance: float, **details) -> BoundReport:
    checked_at = np.asarray(times, float)
    margin = np.asarray(margin, float)
    passed = bool(margin.size == 0 or margin.min() >= -tolerance)
    return BoundReport(bound_id, checked_at, margin, float(tolerance), passed, details)


def _scheme_tolerance(dt: float, scale: float) -> float:
    return max(1e-8, dt ** SCHEME_ORDER * scale)


def check_decay_bound(
    records: list[DiagnosticsRecord],
    mu: float,
    lambda1: float,
    f_norm_sq: float,
    *,
    dt: float,
    tolerance: float | None = None,
) -> BoundReport:
    """E(t) <= exp(-mu lambda1 t) E(0) + |f|^2 / (mu^2 lambda1^2) + tol.

    E(0) is the first record's energy. Failures are reported, not raised.
    """
    t = np.array([r.t for r in records])
    e = np.array([r.E for r in records])
    e0 = records[0].E
    floor = f_norm_sq / (mu ** 2 * lambda1 ** 2)
    bound = np.exp(-mu * lambda1 * (t - t[0])) * e0 + floor
    tol = _scheme_tolerance(dt, e0) if tolerance is None else tolerance
    return _report(
        "energy_decay", t, bound - e, tol,
        e0=e0, f_floor=floor, rate=mu * lambda1,
    )


def check_integral_bound(
    records: list[DiagnosticsRecord],
    s: float,
    t: float,
    mu: float,
    alpha: float,
    lambda1: float,
    f_norm_sq: float,
    *,
    dt: float,
    tolerance: float | None = None,
) -> BoundReport:
    """Time-integrated dissipation bound over [s, t].

    mu int ||u||^2 + 2 alpha int |u|_{beta+1}^{beta+1}
      <= E(0) + |f|^2/(mu^2 lambda1^2) + |f|^2 (t - s)/(mu lambda1) + tol,
    with the left side integrated by the trapezoid rule over the records.
    The automatic tolerance adds the scheme slack and a trapezoid error
    estimate from the discrete curvature of the integrand.
    """
    if s > t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    times = np.array([r.t for r in records])
    if s < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"[{s}, {t}] is not covered by records spanning [{times[0]}, {times[-1]}]")
    sel = (times >= s - 1e-12) & (times <= t + 1e-12)
    sub_t = times[sel]
    if sub_t.size == 0 or abs(sub_t[0] - s) > 1e-9 * max(1.0, abs(s)) or abs(sub_t[-1] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("integration endpoints must coincide with record times")

    e0 = records[0].E
    floor = f_norm_sq / (mu ** 2 * lambda1 ** 2)
    rhs = e0 + floor + f_norm_sq * (t - s) / (mu * lambda1)
    if sub_t.size < 2:
        lhs = 0.0
        trap_slack = 0.0
    else:
        v2 = np.array([r.V2 for r in records])[sel]
        lbp = np.array([r.Lbp for r in records])[sel]
        g = mu * v2 + 2.0 * alpha * lbp
        lhs = float(np.trapezoid(g, sub_t))
        if g.size >= 3:
            d2 = np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2]).max()
            trap_slack = (t - s) * d2 / 12.0
        else:
            trap_slack = 0.0
    tol = (_scheme_tolerance(dt, e0) + trap_slack) if tolerance is None else tolerance
    return _report(
        "energy_integral", [s, t], [rhs - lhs], tol,
        lhs=lhs, rhs=rhs, trapezoid_slack=trap_slack,
    )


def check_absorbing_ball(
    records: list[DiagnosticsRecord],
    mu: float,
    lambda1: float,
    f_norm_sq: float,
    *,
    dt: float,
) -> BoundReport:
    """Entry into and residence in the ball |u|^2 <= 1 + |f|^2/(mu^2 lambda1^2).

    Reports the first record time t* inside the ball, asserts E stays below
    radius^2 + tol for all later records, and asserts t* does not exceed the
    decay-bound prediction log(E0/ENTRY_TOL)/(mu lambda1) + T_SLACK. The
    entry-time margin (in time units) is appended as the last margin entry.
    Raises NotApplicable if the run is too short: exp(-mu lambda1 T) E0 > ENTRY_TOL.
    """
    t = np.array([r.t for r in records])
    e = np.array([r.E for r in records])
    e0 = e[0]
    horizon = t[-1] - t[0]
    if math.exp(-mu * lambda1 * horizon) * e0 > ENTRY_TOL:
        raise NotApplicable(
            f"run too short to guarantee entry: exp(-mu lambda1 T) E0 = "
            f"{math.exp(-mu * lambda1 * horizon) * e0:.3e} > ENTRY_TOL = {ENTRY_TOL:g}"
        )
    radius_sq = 1.0 + f_norm_sq / (mu ** 2 * lambda1 ** 2)
    tol = _scheme_tolerance(dt, radius_sq)

    inside = np.flatnonzero(e <= radius_sq)
    if inside.size == 0:
        return _report(
            "absorbing_ball", t, radius_sq - e, tol,
            radius_sq=radius_sq, t_star=None, entered=False,
        )
    i_star = int(inside[0])
    t_star = float(t[i_star] - t[0])
    t_pred = math.log(e0 / ENTRY_TOL) / (mu * lambda1) if e0 > ENTRY_TOL else 0.0
    margin = np.concatenate([radius_sq - e[i_star:], [t_pred + T_SLACK - t_star]])
    checked = np.concatenate([t[i_star:], [t[i_star]]])
    return _report(
        "absorbing_ball", checked, margin, tol,
        radius_sq=radius_sq, t_star=t_star, t_pred=t_pred, entered=True,
    )


def check_norm_boundedness(
    records: list[DiagnosticsRecord],
    burn_in: float,
    mu: float,
    alpha: float,
    beta: float,
) -> BoundReport:
    """Empirical boundedness of ||u||^2, |u|_{beta+1}^{beta+1} and |Au|^2.

    The theory bounds these norms uniformly for t >= burn_in in the
    regularity regime but the constants are non-constructive, so the check
    is empirical: it reports the suprema after burn-in and asserts there is
    no growth trend over the final half of the run (slope of the log
    sup-envelope at most ``SLOPE_TOL`` per time unit). Raises RegimeError
    outside the regime, NotApplicable with under 4 records after burn-in.
    """
    if not in_regularity_regime(mu, alpha, beta):
        raise RegimeError(
            f"norm boundedness requires {REGIME_BY_CHECK['norm_boundedness']}; "
            f"got mu={mu}, alpha={alpha}, beta={beta}"
        )
    t = np.array([r.t for r in records])
    tail = t >= burn_in - 1e-12
    if tail.sum() < 4:
        raise NotApplicable("need at least 4 records after burn_in")
    t_tail = t[tail]
    quantities = {
        "V2": np.array([r.V2 for r in records])[tail],
        "Lbp": np.array([r.Lbp for r in records])[tail],
        "A2": np.array([r.A2 for r in records])[tail],
    }
    t_half = t_tail[0] + 0.5 * (t_tail[-1] - t_tail[0])
    margins = []
    details: dict = {"suprema": {}, "slopes": {}, "burn_in": burn_in}
    for name, q in quantities.items():
        details["suprema"][name] = float(q.max())
        env = np.maximum.accumulate(q)
        half = t_tail >= t_half
        th, eh = t_tail[half], env[half]
        if th.size < 2 or th[-1] == th[0]:
            slope = 0.0
        else:
            slope = float(np.polyfit(th, np.log(eh + 1e-300), 1)[0])
        details["slopes"][name] = slope
        margins.append(SLOPE_TOL - slope)
    return _report("norm_boundedness", [t_half, t_tail[-1]], margins, 0.0, **details)


def check_damping_positivity(records: list[DiagnosticsRecord]) -> BoundReport:
    """P_damp >= 0 at every record, exactly (a sum of nonnegative terms)."""
    t = [r.t for r in records]
    margin = [r.P_damp for r in records]
    return _report("damping_positivity", t, margin, 0.0)


def monotone_envelope_max_excess(
    records: list[DiagnosticsRecord],
    mu: float,
    lambda1: float,
    f_norm_sq: float,
    *,
    dt: float,
) -> BoundReport:
    """Non-increasing envelope J(t) = E(t) - |f|^2 t/(mu lambda1).

    For exact trajectories J never increases; discretely each adjacent pair
    may slip by the scheme slack. The margin at each pair's later time is
    minus its excess beyond the slack, so -min_margin is the worst excess.
    Raises NotApplicable with fewer than 2 records: there is no pair.
    """
    if len(records) < 2:
        raise NotApplicable("need at least 2 records for a pair")
    t = np.array([r.t for r in records])
    e = np.array([r.E for r in records])
    j = e - f_norm_sq * t / (mu * lambda1)
    jumps = np.diff(j)
    h = np.diff(t)
    slack = dt ** SCHEME_ORDER * (e[:-1] + f_norm_sq / (mu * lambda1) ** 2 + 1.0) * h + 1e-12
    # -(jumps - slack), not slack - jumps: an exact tie reads -0.0
    return _report("monotone_envelope", t[1:], -(jumps - slack), 0.0)
