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
import numpy.random  # numpy loads it lazily; load it with the package, not in the first random field's set-up

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
    "ForcingSpec",
    "InitialSpec",
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

    ``rows`` limits it to those k1 rows, as :meth:`WaveGrid.by_k1_half`
    hands them out; without it the whole block goes through
    :meth:`WaveGrid.by_k1_half`. The modes do not interact, so the bits do
    not depend on the rows. The scratch is a per-grid workspace named by the
    first row, so calls on disjoint row ranges may run concurrently.
    """
    if rows is None:
        grid.by_k1_half(lambda share: project_coeffs(coeffs, grid, share))
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

    @staticmethod
    def zero(grid: WaveGrid) -> "ForcingField":
        return ForcingSpec().build(grid)

    @staticmethod
    def cylinder(grid: WaveGrid, **params) -> "ForcingField":
        """Constant force inside a cylinder; ``params`` are :class:`ForcingSpec` fields."""
        return ForcingSpec("cylinder", **params).build(grid)


def _zeros(grid: WaveGrid, spec: ForcingSpec | InitialSpec) -> np.ndarray:
    return np.zeros(grid.shape(), np.complex128)


def _cylinder_force(grid: WaveGrid, spec: ForcingSpec) -> np.ndarray:
    """Constant force inside a cylinder, zero outside.

    The indicator is smoothed over ``smooth_cells`` grid cells in spectral
    space to limit Gibbs ringing.
    """
    L = grid.length
    center = (L / 2.0, L / 2.0, L / 2.0) if spec.center is None else spec.center
    radius = L / 3.0 if spec.radius is None else spec.radius
    height = L / 3.0 if spec.height is None else spec.height

    x = grid.axis_points()
    # periodic minimum-image offsets from the centre, one axis each, broadcast over the grid
    d = [(x - ctr - L * np.round((x - ctr) / L)).reshape(shape)
         for ctr, shape in zip(center, ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))]
    ax = "xyz".index(spec.axis)
    radial = [d[i] for i in range(3) if i != ax]
    inside = (radial[0] ** 2 + radial[1] ** 2 <= radius ** 2) & (np.abs(d[ax]) <= height / 2.0)

    values = np.zeros((3, grid.n, grid.n, grid.n))
    for j in range(3):
        if spec.force[j] != 0.0:
            values[j][inside] = spec.force[j]
    c = grid.to_spectral(values)
    if spec.smooth_cells > 0.0:
        sigma = spec.smooth_cells * grid.dx
        c *= np.exp(-0.5 * grid.ksq * sigma ** 2)
    return c


_FORCINGS = {"zero": _zeros, "cylinder": _cylinder_force}


@dataclass(frozen=True)
class ForcingSpec:
    """A body force by ``kind`` (zero | cylinder), checked on construction.

    The cylinder defaults are the canonical configuration: radius and height
    L/3 and the box centre (each given as None), the axis along y and the
    force (0, 2, 0). Every parameter is checked whatever the kind.
    """

    kind: str = "zero"
    radius: float | None = None
    height: float | None = None
    axis: str = "y"
    force: tuple[float, float, float] = (0.0, 2.0, 0.0)
    center: tuple[float, float, float] | None = None
    smooth_cells: float = 1.0

    def __post_init__(self):
        if self.kind not in _FORCINGS:
            raise FieldError(f"kind must be {' or '.join(map(repr, _FORCINGS))}, got {self.kind!r}")
        if self.axis not in ("x", "y", "z"):
            raise FieldError(f"cylinder axis must be x, y or z, got {self.axis!r}")
        for name, size in (("radius", self.radius), ("height", self.height)):
            if size is not None and not 0.0 < size < math.inf:
                raise FieldError(f"cylinder {name} must be > 0 and finite, got {size}")
        if not 0.0 <= self.smooth_cells < math.inf:
            raise FieldError(f"smooth_cells must be >= 0 and finite, got {self.smooth_cells}")
        if not all(map(math.isfinite, (*self.force, *(self.center or ())))):
            raise FieldError(f"cylinder force and center must be finite, got {self.force} and {self.center}")

    def build(self, grid: WaveGrid) -> ForcingField:
        return ForcingField(grid, _FORCINGS[self.kind](grid, self))


# ----------------------------------------------------------------------
# initial conditions
# ----------------------------------------------------------------------

def _shear(grid: WaveGrid, spec: InitialSpec) -> np.ndarray:
    """u(x) = (A sin(2 pi y / L), 0, 0): a single divergence-free mode."""
    c = np.zeros(grid.shape(), np.complex128)
    c[0, 0, 1, 0] = -0.5j * spec.amplitude
    c[0, 0, grid.mb - 1, 0] = +0.5j * spec.amplitude
    return c


def _random_divfree(grid: WaveGrid, spec: InitialSpec) -> np.ndarray:
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
    rng = np.random.default_rng(spec.seed)
    order = grid.shell_order
    draws = rng.standard_normal((order.size, 3, 2)).view(np.complex128)[..., 0]
    c = np.empty(grid.shape(), np.complex128)
    c.reshape(3, -1)[:, order] = draws.T
    plane, neg = c[..., 0], grid._negated
    plane[:] = (plane + np.conj(plane[:, neg][:, :, neg])) / math.sqrt(2.0)
    kmag = np.sqrt(grid.ksq)
    k0 = 2.0 * np.pi / grid.length
    amp = np.zeros_like(kmag)
    np.power(kmag / k0, spec.slope / 2.0, out=amp, where=kmag > 0.0)
    c *= amp
    project_coeffs(c, grid)
    if spec.energy == 0.0:
        c[:] = 0.0
        return c
    e = h_norm_sq(c, grid)
    if e == 0.0:
        raise FieldError("random field degenerated to zero; cannot scale to target energy")
    c *= np.sqrt(spec.energy / e)
    return c


_INITIALS = {"zero": _zeros, "shear": _shear, "random": _random_divfree}


@dataclass(frozen=True)
class InitialSpec:
    """An initial velocity by ``kind`` (zero | shear | random), checked on construction.

    ``shear`` is one mode of peak speed ``amplitude``; ``random`` is
    deterministic for a fixed ``seed``, with per-mode energy ~ |k|^slope,
    scaled so |u0|^2 = energy. Every parameter is checked whatever the kind.
    """

    kind: str = "zero"
    amplitude: float = 1.0
    seed: int = 0
    energy: float = 1.0
    slope: float = -4.0

    def __post_init__(self):
        if self.kind not in _INITIALS:
            *rest, last = _INITIALS
            raise FieldError(f"ic must be {', '.join(rest)} or {last}, got {self.kind!r}")
        if self.seed < 0:
            raise FieldError(f"ic_seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.energy < math.inf:
            raise FieldError(f"ic_energy must be >= 0 and finite, got {self.energy}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.slope)):
            raise FieldError(f"ic_amplitude and ic_slope must be finite, got {self.amplitude}, {self.slope}")

    def build(self, grid: WaveGrid) -> SpectralVelocity:
        """Build the velocity; it satisfies all field invariants."""
        return SpectralVelocity(grid, _INITIALS[self.kind](grid, self))


def make_initial_condition(grid: WaveGrid, kind: str, **params) -> SpectralVelocity:
    """Build an initial velocity; ``params`` are :class:`InitialSpec` fields."""
    return InitialSpec(kind, **params).build(grid)
