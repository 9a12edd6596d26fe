"""Periodic wavenumber grid and FFT plumbing.

Velocity fields live on the torus [0, L)^3 sampled on an N^3 collocation
grid. Spectral data is stored in the real-FFT half-spectrum layout
``(..., N, N, N//2 + 1)`` with the ``norm="forward"`` convention, so a
stored coefficient is the trigonometric-polynomial coefficient c_k of
``u(x) = sum_k c_k exp(i k.x)``. Modes with negative k3 are implied by
Hermitian symmetry; the k3 = 0 (and Nyquist) planes carry their own
conjugate pairs and must stay self-conjugate.

The time integrator works on the retained block of that layout instead:
``(..., M, M, K)`` in FFT order, where K modes 0..K-1 survive the 2/3 rule
on the half axis and M = 2K - 1 modes -(K-1)..K-1 on each full axis.
:meth:`WaveGrid.gather` and :meth:`WaveGrid.scatter` convert between the two.
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

        # 2/3-rule mask: keep |m_i| < N/3 on every axis.
        cutoff = self.n / 3.0
        keep = np.abs(self.modes) < cutoff
        keep_half = np.abs(self.modes_half) < cutoff
        self.dealias_mask = keep[:, None, None] & keep[None, :, None] & keep_half[None, None, :]
        self.dealias_mask_f = self.dealias_mask.astype(np.float64)
        self.n_retained = int(np.count_nonzero(keep)) ** 3
        self.kb = int(np.count_nonzero(keep_half))  # K: retained half-axis modes
        self.mb = 2 * self.kb - 1  # M: retained modes per full axis
        # (full-axis slice, block-axis slice) pairs: non-negative modes, then negative ones
        kb, lo = self.kb, self.n - self.kb + 1
        self._halves = ((slice(0, kb), slice(0, kb)), (slice(lo, None), slice(kb, None)))
        self._work: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # Parseval multiplicity of each stored k3 column (conjugates are implied
        # for 0 < k3 < Nyquist).
        w = np.full(self.nk, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self.hermitian_weight = w

        # Index map i -> index of -m on a full axis, for plane-symmetry checks.
        self._negated = (-np.arange(self.n)) % self.n

        self._visc_cache: dict[tuple[float, float, bool], np.ndarray] = {}

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

    def block_shape(self, components: int = 3) -> tuple[int, ...]:
        return (components, self.mb, self.mb, self.kb)

    def is_block(self, arr: np.ndarray) -> bool:
        """True for the retained-block layout (K < N//2 + 1 tells it apart)."""
        return arr.shape[-1] == self.kb

    # block copies of the wavenumber arrays, for the integrator
    @cached_property
    def kvec_b(self) -> np.ndarray:
        return self.gather(self.kvec)

    @cached_property
    def ksq_b(self) -> np.ndarray:
        return self.gather(self.ksq)

    @cached_property
    def inv_ksq_b(self) -> np.ndarray:
        return self.gather(self.inv_ksq)

    @cached_property
    def ikvec_b(self) -> np.ndarray:
        return 1j * self.kvec_b

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Half-spectrum array (..., N, N, N//2+1) -> its retained block (..., M, M, K)."""
        out = np.empty(full.shape[:-3] + (self.mb, self.mb, self.kb), full.dtype)
        for f1, b1 in self._halves:
            for f2, b2 in self._halves:
                out[..., b1, b2, :] = full[..., f1, f2, :self.kb]
        return out

    def scatter(self, block: np.ndarray) -> np.ndarray:
        """Retained block (..., M, M, K) -> half-spectrum array, zero outside the block."""
        out = np.zeros(block.shape[:-3] + (self.n, self.n, self.nk), block.dtype)
        for f1, b1 in self._halves:
            for f2, b2 in self._halves:
                out[..., f1, f2, :self.kb] = block[..., b1, b2, :]
        return out

    def compatible(self, other: "WaveGrid") -> bool:
        return self.n == other.n and self.length == other.length

    def viscous_factor(self, mu: float, dt: float, block: bool = False) -> np.ndarray:
        """exp(-mu |k|^2 dt) per stored mode (per retained mode with ``block``),
        cached for fixed-step runs."""
        key = (mu, dt, block)
        factor = self._visc_cache.get(key)
        if factor is None:
            factor = np.exp((-mu * dt) * (self.ksq_b if block else self.ksq))
            if len(self._visc_cache) >= 8:
                self._visc_cache.pop(next(iter(self._visc_cache)))
            self._visc_cache[key] = factor
        return factor

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Half-spectrum or retained-block coefficients -> real collocation
        values (batched over the leading axis).

        A block is transformed pruned and bitwise equal to ``irfftn`` of its
        scattered form, which runs the same 1D transforms in the same axis
        order: the k1 transform runs only on the M retained k2 columns and
        the k2 transform only on the K retained k3 columns, each in place in
        a per-grid workspace whose zero padding is restored before every use.
        The workspace makes concurrent calls on one grid unsafe.
        """
        if not self.is_block(coeffs):
            return _fft.irfftn(
                coeffs, s=(self.n, self.n, self.n), axes=(-3, -2, -1),
                norm="forward", workers=_FFT_WORKERS,
            )
        comps = coeffs.shape[0]
        work = self._work.get(comps)
        if work is None:
            # columns k3 >= K of the second workspace are never written: they stay zero
            work = self._work[comps] = (
                np.empty((comps, self.n, self.mb, self.kb), np.complex128),
                np.zeros((comps, self.n, self.n, self.nk), np.complex128),
            )
        w1, w2 = work
        (f_lo, b_lo), (f_hi, b_hi) = self._halves
        pad = slice(self.kb, self.n - self.kb + 1)
        w1[:, f_lo] = coeffs[:, b_lo]
        w1[:, f_hi] = coeffs[:, b_hi]
        w1[:, pad] = 0.0
        w1 = _fft.ifft(w1, axis=-3, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
        cols = w2[..., :self.kb]
        cols[:, :, f_lo] = w1[:, :, b_lo]
        cols[:, :, f_hi] = w1[:, :, b_hi]
        cols[:, :, pad] = 0.0
        res = _fft.ifft(cols, axis=-2, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
        if not np.may_share_memory(res, w2):  # the transform was not done in place
            cols[...] = res
        return _fft.irfft(w2, n=self.n, axis=-1, norm="forward", workers=_FFT_WORKERS)

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
