"""Periodic wavenumber grid and FFT plumbing.

Velocity fields live on the torus [0, L)^3 sampled on an N^3 collocation
grid. Spectral data is stored in the real-FFT half-spectrum layout
``(..., N, N, N//2 + 1)`` with the ``norm="forward"`` convention, so a
stored coefficient is the trigonometric-polynomial coefficient c_k of
``u(x) = sum_k c_k exp(i k.x)``. Modes with negative k3 are implied by
Hermitian symmetry; the k3 = 0 (and Nyquist) planes carry their own
conjugate pairs and must stay self-conjugate.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np
import scipy.fft as _fft

__all__ = ["GridError", "WaveGrid", "check_grid", "stokes_lambda1", "set_fft_workers", "get_fft_workers"]


class GridError(ValueError):
    """Invalid grid parameters."""


_FFT_WORKERS = int(os.environ.get("DAMPEDNS_FFT_WORKERS", "1"))


def set_fft_workers(n: int) -> None:
    """Set the worker count for all FFT calls (default 1, deterministic)."""
    global _FFT_WORKERS
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _FFT_WORKERS = int(n)


def get_fft_workers() -> int:
    return _FFT_WORKERS


def check_grid(n: int, length: float) -> None:
    """Raise GridError unless n is an even integer >= 4 and the period is positive and finite."""
    if n < 4 or n % 2 != 0:
        raise GridError(f"n must be an even integer >= 4, got {n}")
    if not 0.0 < length < np.inf:
        raise GridError(f"torus period l must be > 0 and finite, got {length}")


class WaveGrid:
    """Wavenumbers, dealias mask and transforms for one N^3 periodic box.

    Parameters
    ----------
    n : int
        Collocation points (and Fourier modes) per axis. Even, >= 4.
    length : float
        Torus period L per axis.
    """

    def __init__(self, n: int, length: float):
        check_grid(n, length)
        self.n = int(n)
        self.length = float(length)
        self.nk = self.n // 2 + 1  # stored modes along the last axis

        # Signed integer modes per axis, FFT ordering: 0, 1, ..., N/2-1, -N/2, ..., -1.
        self.modes = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        self.modes_half = np.arange(self.nk, dtype=np.int64)

        k0 = 2.0 * np.pi / self.length
        k1 = k0 * self.modes
        k3 = k0 * self.modes_half
        kx = k1[:, None, None]
        ky = k1[None, :, None]
        kz = k3[None, None, :]
        self.kvec = np.stack(np.broadcast_arrays(kx, ky, kz)).astype(np.float64)
        self.ksq = self.kvec[0] ** 2 + self.kvec[1] ** 2 + self.kvec[2] ** 2
        inv = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=inv, where=self.ksq > 0.0)
        self.inv_ksq = inv
        self._ikvec = 1j * self.kvec

        # 2/3-rule mask: keep |m_i| < N/3 on every axis.
        cutoff = self.n / 3.0
        keep = np.abs(self.modes) < cutoff
        keep_half = np.abs(self.modes_half) < cutoff
        self.dealias_mask = keep[:, None, None] & keep[None, :, None] & keep_half[None, None, :]
        self.dealias_mask_f = self.dealias_mask.astype(np.float64)
        self.n_retained = int(np.count_nonzero(keep)) ** 3

        # Parseval multiplicity of each stored k3 column (conjugates are implied
        # for 0 < k3 < Nyquist).
        w = np.full(self.nk, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self.hermitian_weight = w

        # Index map i -> index of -m on a full axis, for plane-symmetry checks.
        self._negated = (-np.arange(self.n)) % self.n

        self._visc_cache: dict[tuple[float, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def dx(self) -> float:
        """Collocation spacing L/N."""
        return self.length / self.n

    @property
    def lambda1(self) -> float:
        """Smallest |k|^2 over nonzero modes: the Poincare constant (2 pi / L)^2."""
        return (2.0 * np.pi / self.length) ** 2

    @cached_property
    def ksq2(self) -> np.ndarray:
        return self.ksq ** 2

    def shape(self, components: int = 3) -> tuple[int, ...]:
        return (components, self.n, self.n, self.nk)

    def compatible(self, other: "WaveGrid") -> bool:
        return self.n == other.n and self.length == other.length

    def viscous_factor(self, mu: float, dt: float) -> np.ndarray:
        """exp(-mu |k|^2 dt) per stored mode, cached for fixed-step runs."""
        key = (mu, dt)
        factor = self._visc_cache.get(key)
        if factor is None:
            factor = np.exp((-mu * dt) * self.ksq)
            if len(self._visc_cache) >= 8:
                self._visc_cache.pop(next(iter(self._visc_cache)))
            self._visc_cache[key] = factor
        return factor

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients -> real collocation values (batched)."""
        return _fft.irfftn(
            coeffs, s=(self.n, self.n, self.n), axes=(-3, -2, -1),
            norm="forward", workers=_FFT_WORKERS,
        )

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Real collocation values -> half-spectrum coefficients (batched)."""
        return _fft.rfftn(values, axes=(-3, -2, -1), norm="forward", workers=_FFT_WORKERS)

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    def axis_points(self) -> np.ndarray:
        """Collocation coordinates along one axis."""
        return self.dx * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.axis_points()
        return np.meshgrid(x, x, x, indexing="ij")

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaveGrid(n={self.n}, length={self.length})"


def stokes_lambda1(grid: WaveGrid) -> float:
    """Smallest eigenvalue of the Stokes operator on the zero-mean torus.

    Equals (2 pi / L)^2, the sharp Poincare constant for zero-mean periodic
    fields; also the smallest |k|^2 over retained nonzero modes.
    """
    return grid.lambda1
