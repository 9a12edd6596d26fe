"""Per-time norms and power-budget terms of a trajectory.

Each record carries every quantity appearing in the energy estimates:
the squared L2 and H1 norms, the damping norm |u|_{beta+1}^{beta+1}
(collocation-grid quadrature), the squared Stokes norm, the forcing and
damping powers, a centered-difference estimate of d|u|^2/dt, and the peak
pointwise speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .fields import SpectralVelocity, h_inner, h_norm_sq
from .timestepping import Physics

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "record",
    "energy_balance_residual",
]


@dataclass
class DiagnosticsRecord:
    """One observation of the trajectory.

    E = |u|^2, V2 = ||u||^2, Lbp = |u|_{beta+1}^{beta+1}, A2 = |Au|^2,
    P_f = (f, u), P_damp = alpha * Lbp, dEdt = centered difference of E
    (filled once neighbouring records exist), umax = max |u(x)|.
    """

    t: float
    E: float
    V2: float
    Lbp: float
    A2: float
    P_f: float
    P_damp: float
    dEdt: float
    umax: float

    def astuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in dc_fields(self))


CSV_COLUMNS = tuple(f.name for f in dc_fields(DiagnosticsRecord))


def record(u: SpectralVelocity, t: float, physics: Physics) -> DiagnosticsRecord:
    """Measure one state. dEdt is a series quantity and starts at NaN;
    :class:`~dampedns.storage.DiagnosticsWriter` fills it once neighbours
    are known."""
    grid = u.grid
    c = u.coeffs
    if not np.isfinite(c.view(np.float64)).all():
        raise ValueError(f"non-finite spectral coefficients at t={t:.6g}: upstream instability")
    w = grid.hermitian_weight
    vol = grid.length ** 3
    p = c.real ** 2 + c.imag ** 2
    e = h_norm_sq(c, grid)
    v2 = vol * float(np.einsum("cxyz,xyz,z->", p, grid.ksq, w))
    a2 = vol * float(np.einsum("cxyz,xyz,z->", p, grid.ksq2, w))

    u_phys = grid.to_physical(c)
    s2 = u_phys[0] ** 2 + u_phys[1] ** 2 + u_phys[2] ** 2
    umax = math.sqrt(float(s2.max()))
    lbp = grid.dx ** 3 * float((s2 ** ((physics.beta + 1.0) / 2.0)).sum())

    p_f = h_inner(physics.forcing.coeffs, c, grid)
    rec = DiagnosticsRecord(
        t=float(t), E=e, V2=v2, Lbp=lbp, A2=a2,
        P_f=p_f, P_damp=physics.alpha * lbp, dEdt=math.nan, umax=umax,
    )
    for name in ("E", "V2", "Lbp", "A2", "umax"):
        if not math.isfinite(getattr(rec, name)):
            raise ValueError(f"non-finite diagnostic {name} at t={t:.6g}: upstream instability")
    return rec


def _dEdt(before: DiagnosticsRecord, after: DiagnosticsRecord) -> float:
    """dE/dt between two records: the one stencil of every dE/dt in the package."""
    return (after.E - before.E) / (after.t - before.t)


def energy_balance_residual(
    records: list[DiagnosticsRecord], mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the power budget 0.5 d|u|^2/dt + mu ||u||^2 + alpha
    |u|_{beta+1}^{beta+1} - (f, u) at interior record times.

    The derivative is taken from the recorded E series by centered
    differences, so the residual measures the realized discrete trajectory
    against the continuous balance; it vanishes at the scheme's order as dt
    and the record stride shrink. Requires >= 3 records at uniform time
    stride.

    Returns (interior times, residuals).
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records for a centered residual")
    t = np.array([r.t for r in records])
    h = np.diff(t)
    if h.min() <= 0.0 or (h.max() - h.min()) > 1e-9 * h.max():
        raise ValueError("records are not at uniform time stride")
    v2 = np.array([r.V2 for r in records])
    p_damp = np.array([r.P_damp for r in records])
    p_f = np.array([r.P_f for r in records])
    dedt = np.array([_dEdt(a, b) for a, b in zip(records, records[2:])])
    r = 0.5 * dedt + mu * v2[1:-1] + p_damp[1:-1] - p_f[1:-1]
    return t[1:-1], r
