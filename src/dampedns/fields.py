"""Velocity and forcing fields.

A :class:`SpectralVelocity` is the solver state: the retained 2/3-rule
block ``(3, M, M, K)`` of a real, zero-mean, divergence-free velocity
field (see :mod:`dampedns.grid`). It is dealiased by construction, because
the block holds no other mode; a half-spectrum array is refused, not
masked. Collocation-grid values come from
:meth:`~dampedns.grid.WaveGrid.to_physical`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import WaveGrid

__all__ = [
    "FieldError",
    "SpectralVelocity",
    "ForcingField",
    "project_coeffs",
    "h_norm_sq",
    "h_inner",
    "divergence_max",
    "hermitian_defect",
    "check_cylinder",
    "check_initial",
    "make_initial_condition",
]

DIV_TOL = 1e-12


class FieldError(ValueError):
    """Invalid field construction or invariant violation."""


# ----------------------------------------------------------------------
# norms and projection on raw coefficient arrays
# ----------------------------------------------------------------------

def h_inner(a: np.ndarray, b: np.ndarray, grid: WaveGrid) -> float:
    """L2 inner product (a, b) of two real fields given as block coefficients (Parseval)."""
    p = a.real * b.real + a.imag * b.imag
    return grid.length ** 3 * float(np.einsum("az,z->", p.reshape(-1, grid.kb), grid.hermitian_weight))


def h_norm_sq(coeffs: np.ndarray, grid: WaveGrid) -> float:
    """Squared L2 norm |u|^2 = (u, u)."""
    return h_inner(coeffs, coeffs, grid)


def project_coeffs(coeffs: np.ndarray, grid: WaveGrid, rows: slice | None = None) -> np.ndarray:
    """In-place Leray projection: u_hat -= k (k . u_hat) / |k|^2, zero mean.

    Acts mode-by-mode with the real symmetric matrix I - k k^T/|k|^2, so it
    is idempotent and preserves Hermitian symmetry. The k = 0 mode is
    zeroed outright (zero-mean constraint).

    ``rows`` limits it to the k1 rows a part of :meth:`WaveGrid.by_k1_half`
    gets (a part must pass them); without it the whole block goes through
    that split. The modes do not interact, so the bits do not depend on the
    split. The scratch is a per-grid workspace named by the first row, so
    calls on disjoint row ranges may run concurrently.
    """
    if rows is None:
        grid.by_k1_half(lambda part, share: project_coeffs(coeffs, grid, share))
        return coeffs
    kv, c = grid.kvec[:, rows], coeffs[:, rows]
    div, tmp = grid.workspace(f"project.row{rows.start}", (2,) + kv.shape[1:])
    np.multiply(kv[0], c[0], out=div)
    for i in (1, 2):
        np.multiply(kv[i], c[i], out=tmp)
        div += tmp
    div *= grid.inv_ksq[rows]
    for i in range(3):
        np.multiply(kv[i], div, out=tmp)
        c[i] -= tmp
    if rows.start == 0:
        c[:, 0, 0, 0] = 0.0
    return coeffs


# ----------------------------------------------------------------------
# invariant probes
# ----------------------------------------------------------------------

def divergence_max(coeffs: np.ndarray, grid: WaveGrid) -> float:
    """max_k |k . u_hat(k)|."""
    div = (
        grid.kvec[0] * coeffs[0]
        + grid.kvec[1] * coeffs[1]
        + grid.kvec[2] * coeffs[2]
    )
    return float(np.abs(div).max())


def hermitian_defect(coeffs: np.ndarray, grid: WaveGrid) -> float:
    """Self-conjugacy defect of the k3 = 0 plane.

    Columns with k3 > 0 are Hermitian by the storage layout, and no Nyquist
    plane is stored; the k3 = 0 plane must satisfy c(-k1,-k2) = conj(c(k1,k2)).
    """
    neg = grid._negated
    p = coeffs[..., 0]
    refl = p[..., neg, :][..., :, neg]
    return float(np.abs(p - np.conj(refl)).max())


def _check_shape(coeffs: np.ndarray, grid: WaveGrid, what: str) -> None:
    if coeffs.shape != grid.shape():
        raise FieldError(
            f"{what} coefficients have shape {coeffs.shape}, expected the retained block {grid.shape()}; "
            "pass a half-spectrum array through grid.gather first"
        )


# ----------------------------------------------------------------------
# field containers
# ----------------------------------------------------------------------

@dataclass
class SpectralVelocity:
    """Divergence-free velocity as truncated Fourier coefficients.

    Invariants (enforced by the constructors in this package, probed by
    the validators above): real field (Hermitian symmetry), zero mean,
    |k . u_hat| <= 1e-12 max|u_hat|. Dealiasing needs no check: the shape,
    checked on construction, is the retained block.
    """

    grid: WaveGrid
    coeffs: np.ndarray  # complex128, shape grid.shape() = (3, M, M, K)

    def __post_init__(self):
        _check_shape(self.coeffs, self.grid, "velocity")

    def max_coeff(self) -> float:
        return float(np.abs(self.coeffs).max())

    def validate(self) -> None:
        """Raise FieldError if any invariant is violated."""
        peak = self.max_coeff()
        if not np.isfinite(peak):
            raise FieldError("non-finite spectral coefficients")
        if np.abs(self.coeffs[:, 0, 0, 0]).max() != 0.0:
            raise FieldError("zero mode is not zero")
        scale = max(peak, 1e-300)
        if divergence_max(self.coeffs, self.grid) > DIV_TOL * scale:
            raise FieldError("field is not divergence-free")
        if hermitian_defect(self.coeffs, self.grid) > 1e-12 * scale:
            raise FieldError("field is not Hermitian-symmetric (not real)")


# ----------------------------------------------------------------------
# forcing
# ----------------------------------------------------------------------

def check_cylinder(axis: str, radius: float | None, height: float | None, smooth_cells: float,
                   force: tuple[float, float, float], center: tuple[float, float, float] | None) -> None:
    """Raise FieldError unless the cylinder is valid; None stands for the default size or centre."""
    if axis not in ("x", "y", "z"):
        raise FieldError(f"cylinder axis must be x, y or z, got {axis!r}")
    for name, size in (("radius", radius), ("height", height)):
        if size is not None and not 0.0 < size < math.inf:
            raise FieldError(f"cylinder {name} must be > 0 and finite, got {size}")
    if not 0.0 <= smooth_cells < math.inf:
        raise FieldError(f"smooth_cells must be >= 0 and finite, got {smooth_cells}")
    if not all(map(math.isfinite, (*force, *(center or ())))):
        raise FieldError(f"cylinder force and center must be finite, got {force} and {center}")


class ForcingField:
    """Autonomous body force, cached as projected block coefficients.

    The cached spectral form is divergence-free and zero-mean: the Leray
    projection is applied once at construction, so the force can be added
    directly to the spectral right-hand side.
    """

    def __init__(self, grid: WaveGrid, coeffs: np.ndarray):
        _check_shape(coeffs, grid, "forcing")
        c = np.array(coeffs, dtype=np.complex128, order="C")
        project_coeffs(c, grid)
        self.grid = grid
        self.coeffs = c
        self.norm_sq = h_norm_sq(c, grid)

    @classmethod
    def zero(cls, grid: WaveGrid) -> "ForcingField":
        return cls(grid, np.zeros(grid.shape(), np.complex128))

    @classmethod
    def cylinder(
        cls,
        grid: WaveGrid,
        *,
        center: tuple[float, float, float] | None = None,
        radius: float | None = None,
        height: float | None = None,
        axis: str = "y",
        force: tuple[float, float, float] = (0.0, 2.0, 0.0),
        smooth_cells: float = 1.0,
    ) -> "ForcingField":
        """Constant force inside a cylinder, zero outside.

        Defaults mirror the canonical configuration: a cylinder of radius
        and height L/3 centred in the box with its axis along y, carrying
        the force (0, 2, 0). The indicator is smoothed over ``smooth_cells``
        grid cells in spectral space to limit Gibbs ringing.
        """
        check_cylinder(axis, radius, height, smooth_cells, force, center)
        L = grid.length
        if center is None:
            center = (L / 2.0, L / 2.0, L / 2.0)
        if radius is None:
            radius = L / 3.0
        if height is None:
            height = L / 3.0

        x = grid.axis_points()
        # periodic minimum-image offsets from the centre, one axis each, broadcast over the grid
        d = [(x - ctr - L * np.round((x - ctr) / L)).reshape(shape)
             for ctr, shape in zip(center, ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))]
        ax = "xyz".index(axis)
        radial = [d[i] for i in range(3) if i != ax]
        inside = (radial[0] ** 2 + radial[1] ** 2 <= radius ** 2) & (np.abs(d[ax]) <= height / 2.0)

        values = np.zeros((3, grid.n, grid.n, grid.n))
        for j in range(3):
            if force[j] != 0.0:
                values[j][inside] = force[j]
        c = grid.to_spectral(values)
        if smooth_cells > 0.0:
            sigma = smooth_cells * grid.dx
            c *= np.exp(-0.5 * grid.ksq * sigma ** 2)
        return cls(grid, c)


# ----------------------------------------------------------------------
# initial conditions
# ----------------------------------------------------------------------

def _zero(grid: WaveGrid) -> SpectralVelocity:
    return SpectralVelocity(grid, np.zeros(grid.shape(), np.complex128))


def _shear(grid: WaveGrid, amplitude: float) -> SpectralVelocity:
    """u(x) = (A sin(2 pi y / L), 0, 0): a single divergence-free mode."""
    c = np.zeros(grid.shape(), np.complex128)
    c[0, 0, 1, 0] = -0.5j * amplitude
    c[0, 0, grid.mb - 1, 0] = +0.5j * amplitude
    return SpectralVelocity(grid, c)


def _random_divfree(grid: WaveGrid, seed: int, energy: float, slope: float) -> SpectralVelocity:
    """Seeded random divergence-free field scaled to |u|^2 = energy.

    Each retained mode takes one complex Gaussian per component, the real
    and imaginary parts of all three being six consecutive standard normals
    of one stream drawn in :attr:`WaveGrid.shell_order`. The draws for the
    block at n are thus a prefix of those at any larger n: one seed gives
    the same field on the common modes at every n, up to the energy scale.
    The k3 = 0 plane is made self-conjugate by
    c <- (c + conj c(-m1, -m2, 0)) / sqrt(2), which keeps each mode's variance.
    Per-mode energy follows |u_hat(k)|^2 ~ |k|^slope before projection;
    negative slopes concentrate energy at large scales.
    """
    rng = np.random.default_rng(seed)
    order = grid.shell_order
    draws = rng.standard_normal((order.size, 3, 2)).view(np.complex128)[..., 0]
    c = np.empty(grid.shape(), np.complex128)
    c.reshape(3, -1)[:, order] = draws.T
    plane, neg = c[..., 0], grid._negated
    plane[:] = (plane + np.conj(plane[:, neg][:, :, neg])) / math.sqrt(2.0)
    kmag = np.sqrt(grid.ksq)
    k0 = 2.0 * np.pi / grid.length
    amp = np.zeros_like(kmag)
    np.power(kmag / k0, slope / 2.0, out=amp, where=kmag > 0.0)
    c *= amp
    project_coeffs(c, grid)
    if energy == 0.0:
        c[:] = 0.0
        return SpectralVelocity(grid, c)
    e = h_norm_sq(c, grid)
    if e == 0.0:
        raise FieldError("random field degenerated to zero; cannot scale to target energy")
    c *= np.sqrt(energy / e)
    return SpectralVelocity(grid, c)


def check_initial(kind: str, energy: float, amplitude: float, slope: float, seed: int) -> None:
    """Raise FieldError unless ``kind`` (ic) is known, energy >= 0, seed >= 0 and every value is finite."""
    if kind not in ("zero", "shear", "random"):
        raise FieldError(f"ic must be zero, shear or random, got {kind!r}")
    if seed < 0:
        raise FieldError(f"ic_seed must be >= 0, got {seed}")
    if not 0.0 <= energy < math.inf:
        raise FieldError(f"ic_energy must be >= 0 and finite, got {energy}")
    if not (math.isfinite(amplitude) and math.isfinite(slope)):
        raise FieldError(f"ic_amplitude and ic_slope must be finite, got {amplitude}, {slope}")


def make_initial_condition(
    grid: WaveGrid,
    kind: str,
    *,
    amplitude: float = 1.0,
    seed: int = 0,
    energy: float = 1.0,
    slope: float = -4.0,
) -> SpectralVelocity:
    """Build an initial velocity satisfying all field invariants.

    ``kind`` is one of ``zero``, ``shear`` or ``random`` (deterministic for
    a fixed seed, scaled so |u0|^2 = energy).
    """
    check_initial(kind, energy, amplitude, slope, seed)
    if kind == "zero":
        return _zero(grid)
    if kind == "shear":
        return _shear(grid, amplitude)
    return _random_divfree(grid, seed, energy, slope)
