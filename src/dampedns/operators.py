"""Spatial operators of the damped Navier-Stokes system.

Everything here acts on the projected spectral representation, the
retained 2/3-rule block ``(c, M, M, K)`` of :mod:`dampedns.grid`: the Leray
projection eliminates the pressure, the viscous term is diagonal (handled
by the time integrator), and the convective and damping terms are
evaluated pseudo-spectrally, all by one kernel. The kernel leaves the
transforms to :meth:`~dampedns.grid.WaveGrid.transform_pointwise`, which
runs it slab by slab and keeps only the block of the result, so
dealiasing holds by construction.
The convective term is in rotational form: -(u . grad) u and u x omega
(omega = curl u) differ by the gradient of |u|^2/2, which the projection
removes, and u . (u x omega) = 0 at every grid point, so energy
orthogonality holds on the grid to rounding (Zang, Appl. Numer. Math. 7, 1991).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _CYCLIC, WaveGrid, slab_planes
from .fields import SpectralVelocity, project_coeffs

__all__ = [
    "check_physics",
    "project_coeffs",
    "leray_project",
    "nonlinear_term",
    "damping_term",
    "nonviscous_rhs",
]


def check_physics(alpha: float, beta: float, mu: float | None = None) -> None:
    """Raise ValueError unless mu > 0 (when given), alpha > 0 and beta >= 1, all finite."""
    if mu is not None and not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be > 0 and finite (kinematic viscosity), got {mu}")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be > 0 and finite (damping strength), got {alpha}")
    if not 1.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 1 and finite (damping exponent), got {beta}")


def leray_project(v_hat: np.ndarray, grid: WaveGrid) -> SpectralVelocity:
    """Project raw Hermitian-symmetric coefficients onto divergence-free fields.

    Returns a field satisfying every SpectralVelocity invariant: the gradient
    part of each mode is removed and the zero mode is dropped. The input is
    a block (c, M, M, K) and is not modified. Idempotent up to rounding.
    """
    u = SpectralVelocity(grid, np.array(v_hat, dtype=np.complex128))
    project_coeffs(u.coeffs, grid)
    return u


def nonviscous_rhs(
    coeffs: np.ndarray, grid: WaveGrid, alpha: float, beta: float,
    forcing_coeffs: np.ndarray | None, *, convective: bool = True,
) -> tuple[np.ndarray, float]:
    """Convective + damping + forcing right-hand side and the peak speed.

    Returns (P[u x omega - alpha |u|^(beta-1) u] + f_hat, max|u(x)|) on
    retained blocks: nonlinear_term(u) + damping_term(u, alpha, beta) + f_hat,
    from six inverse and three forward component transforms. The viscous
    term is excluded; the integrator applies it exactly through the
    integrating factor, and the first stage of a step takes its CFL step
    from the peak speed.

    :meth:`WaveGrid.transform_pointwise` transforms u_hat with its curl
    (only u_hat when ``convective`` is off) and calls the pointwise force
    below on one slab of physical values at a time, from one or two
    threads. s2 = u . u feeds both the damping factor and the peak speed;
    each half keeps its own scratch and running peak, and sqrt(max s2) is
    bitwise the max of the pointwise speeds. Apart from the result every
    array is a per-grid workspace.
    """
    n = grid.n
    planes = slab_planes(n)
    expo = (beta - 1.0) / 2.0
    peaks = [-math.inf, -math.inf]

    def force(part: int, lo: int, values: np.ndarray, out: np.ndarray) -> None:
        u = values[:3]
        work = grid.workspace(f"rhs.scratch{part}", (4, planes, n, n), np.float64)[:, :values.shape[1]]
        s2, prod = work[0], work[1:]
        tmp = prod[0]
        np.multiply(u[0], u[0], out=s2)
        for c in (1, 2):
            np.multiply(u[c], u[c], out=tmp)
            s2 += tmp
        peaks[part] = np.maximum(peaks[part], s2.max())  # NaN propagates, as in a whole-grid max
        if convective:
            w = values[3:]
            for i, j, k in _CYCLIC:
                np.multiply(u[j], w[k], out=out[i])
                np.multiply(u[k], w[j], out=tmp)
                out[i] -= tmp
        else:
            out[...] = 0.0  # 0 - x below, not -x: the signed zeros of the half-spectrum reference
        # in place, with numpy's fast paths of s2 ** expo: exponent 0 (beta = 1)
        # fills ones, NaN and inf included, and 0.5 is sqrt, so the bits match
        fac = s2
        fac **= expo
        fac *= alpha
        np.multiply(fac, u, out=prod)
        out -= prod

    out = grid.transform_pointwise(coeffs, force, curl=convective)
    project_coeffs(out, grid)
    if forcing_coeffs is not None:
        out += forcing_coeffs
    return out, math.sqrt(float(np.maximum(*peaks)))


def nonlinear_term(u: SpectralVelocity) -> SpectralVelocity:
    """Convective contribution N(u) = -P[(u . grad) u] = P[u x omega], dealiased.

    :func:`nonviscous_rhs` with alpha = 0 and no forcing. u . (u x omega)
    vanishes pointwise, so <N(u), u> = 0 holds to rounding.
    """
    return SpectralVelocity(u.grid, nonviscous_rhs(u.coeffs, u.grid, 0.0, 1.0, None)[0])


def damping_term(u: SpectralVelocity, alpha: float, beta: float) -> SpectralVelocity:
    """Damping contribution -P[alpha |u|^(beta-1) u].

    The pointwise magnitude is evaluated on the collocation grid, so
    <damping, u> = -alpha (dx^3 sum |u(x)|^(beta+1)) holds exactly by the
    discrete Parseval identity regardless of aliasing in the unretained
    modes. For beta = 1 the factor |u|^0 is identically one and the result
    is -alpha u with no transforms at all; otherwise it is
    :func:`nonviscous_rhs` without the convective term.
    """
    check_physics(alpha, beta)
    grid = u.grid
    if beta == 1.0:
        return SpectralVelocity(grid, -alpha * u.coeffs)
    return SpectralVelocity(grid, nonviscous_rhs(u.coeffs, grid, alpha, beta, None, convective=False)[0])
