"""Spatial operators of the damped Navier-Stokes system.

Everything here acts on the projected spectral representation, the
retained 2/3-rule block ``(c, M, M, K)`` of :mod:`dampedns.grid`: the Leray
projection (:func:`~dampedns.fields.project_coeffs`) eliminates the
pressure, the viscous term is diagonal (handled by the time integrator),
and the convective and damping terms are evaluated pseudo-spectrally by
one kernel, :func:`nonviscous_rhs`, the only non-viscous operator. The
kernel leaves the transforms to
:meth:`~dampedns.grid.WaveGrid.transform_pointwise`, which runs it slab by
slab and keeps only the block of the result, so dealiasing holds by
construction.
The convective term is in rotational form: -(u . grad) u and u x omega
(omega = curl u) differ by the gradient of |u|^2/2, which the projection
removes, and u . (u x omega) = 0 at every grid point, so energy
orthogonality holds on the grid to rounding (Zang, Appl. Numer. Math. 7, 1991).
"""

from __future__ import annotations

import math

import numpy as np

from . import fields
from .grid import _CYCLIC, WaveGrid
from .fields import project_coeffs

__all__ = ["check_physics", "project_coeffs", "nonviscous_rhs"]


def check_physics(alpha: float, beta: float, mu: float | None = None) -> None:
    """Raise ValueError unless mu > 0 (when given), alpha > 0 and beta >= 1, all finite."""
    if mu is not None and not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be > 0 and finite (kinematic viscosity), got {mu}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be > 0 and finite (damping strength), got {alpha}")
    if not 1.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 1 and finite (damping exponent), got {beta}")


def nonviscous_rhs(
    coeffs: np.ndarray, grid: WaveGrid, alpha: float, beta: float,
    forcing_coeffs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Convective + damping + forcing right-hand side and the peak speed.

    Returns (P[u x omega - alpha |u|^(beta-1) u] + f_hat, max|u(x)|) on
    retained blocks, from six inverse and three forward component
    transforms. The viscous term is excluded; the integrator applies it
    exactly through the integrating factor, and the first stage of a step
    takes its CFL step from the peak speed. Each term can be read off the
    kernel: alpha = 0 with zero forcing gives the convective term
    P[u x omega], and rhs(u; alpha, beta) - rhs(u; 0, 1) the damping term.

    :meth:`WaveGrid.transform_pointwise` transforms u_hat with its curl and
    calls the pointwise force below on one slab of physical values at a
    time, with the slab's own arrays as its only scratch. s2 = u . u feeds
    both the damping factor and the peak speed, and sqrt of the max over
    the slabs' max s2 is bitwise the max of the pointwise speeds. The k1
    rows of the result are then projected and get the forcing added. The
    result is the only array allocated here.
    """
    expo = (beta - 1.0) / 2.0
    peaks = []  # one max s2 per slab

    def force(lo: int, values: np.ndarray, out: np.ndarray) -> None:
        u, w = values[:3], values[3:]
        # u x omega first, each component's temporary the next unwritten one,
        # the last's omega_3, read by the first two only; omega_1 then holds
        # s2 and omega_2 the damping product
        for i, j, k in _CYCLIC:
            tmp = out[i + 1] if i < 2 else w[2]
            np.multiply(u[j], w[k], out=out[i])
            np.multiply(u[k], w[j], out=tmp)
            out[i] -= tmp
        s2, tmp = w[0], w[1]
        np.multiply(u[0], u[0], out=s2)
        for c in (1, 2):
            np.multiply(u[c], u[c], out=tmp)
            s2 += tmp
        peaks.append(s2.max())
        # in place, with numpy's fast paths of s2 ** expo: exponent 0 (beta = 1)
        # fills ones, NaN and inf included, and 0.5 is sqrt, so the bits match
        fac = s2
        fac **= expo
        fac *= alpha
        for c in range(3):
            np.multiply(fac, u[c], out=tmp)
            out[c] -= tmp

    def finish(block: np.ndarray, rows: slice) -> None:
        # through the fields module: a wrapper put on this module's name (the
        # span tracer of perfbench/spans.py) keeps one span stack per process
        # and must not run on the pipeline worker
        fields.project_coeffs(block, grid, rows)
        block[:, rows] += forcing_coeffs[:, rows]

    out = grid.transform_pointwise(coeffs, force, finish)
    return out, math.sqrt(float(np.max(peaks)))  # NaN propagates, unlike the builtin max

