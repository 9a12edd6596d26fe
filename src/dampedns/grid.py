"""Periodic wavenumber grid and FFT plumbing.

Velocity fields live on the torus [0, L)^3 sampled on an N^3 collocation
grid. Spectral data is stored in one layout, the block of modes the 2/3
rule retains: ``(..., M, M, K)`` in FFT order, where K modes 0..K-1 survive
on the half axis (k3 >= 0) and M = 2K - 1 modes -(K-1)..K-1 on each full
axis, with the ``norm="forward"`` convention, so a stored coefficient is
the trigonometric-polynomial coefficient c_k of ``u(x) = sum_k c_k exp(i k.x)``.
Dealiasing holds by construction: no mode outside the block can be stored.
Modes with negative k3 are implied by Hermitian symmetry; the k3 = 0 plane
carries its own conjugate pairs and must stay self-conjugate. The block
never reaches the Nyquist modes. The real-FFT half-spectrum
``(..., N, N, N//2 + 1)`` exists only inside the transforms; the tests'
``gather`` and ``scatter`` (``tests/blocks.py``) convert between the two
layouts to check the transforms against ``irfftn`` and ``rfftn``.

Each direction has one pruned transform. The inverse
(:meth:`WaveGrid._inverse_lines`) runs the c2c passes k1 on the M retained
k2 columns, then k2 on the K retained k3 columns. The forward
(:meth:`WaveGrid._forward_lines`) works through the grid in slabs of
x1-planes (:data:`SLAB_BYTES`): per slab an ``rfft`` along x3 of which only
the K retained columns are kept, scaled by 1/N^3 as pocketfft scales them,
then the c2c passes along x1 on those columns and along x2 on the M
retained k1 rows only.
:meth:`WaveGrid.to_physical` ends the inverse with ``irfft`` along k3 and
:meth:`WaveGrid.to_spectral` runs the forward on given values.
:meth:`WaveGrid.transform_pointwise`, the pseudo-spectral pipeline of the
right-hand side, runs the inverse on a velocity block and its curl, and
feeds the forward per slab with a pointwise map of that slab's ``irfft``.
Every 1D transform is a direct call into scipy's compiled pocketfft module
with the arguments that scipy.fft's ``fft``, ``ifft``, ``rfft`` and
``irfft`` pass it, and the ``scipy.fft`` package itself is never imported.
Each is one that ``irfftn``/``rfftn`` would run on the same line, so
results equal the half-spectrum path bit for bit. The worker count
:data:`FFT_WORKERS` goes straight to pocketfft; scipy.fft's worker context
is never consulted. Workspaces are kept per grid and allocated on first use.

Once the grid outgrows one slab and the process may run on two CPUs
(:func:`pipeline_parts`), every stage of both transforms runs in two halves
of independent lines, one of them on the process's one pipeline worker
thread (:func:`_in_parts`). Each half owns whole contiguous blocks of the
workspace it writes: the inverse c2c passes split by component, the slab
loop by x1-plane, the forward x1 pass by x2 row and the forward x2 pass by
retained k1 half, which also finishes its rows of the result block. The
block-wide work of a time step splits the same way
(:meth:`WaveGrid.by_k1_half`). Each line and each mode still sees the same
transform and the same arithmetic, so results do not depend on the split.
The split is known here alone: a callback gets a slab or a range of k1
rows, never a part. It takes scratch from its own slab or a workspace
named by its first row, and keeps a peak as one value per call in a list
(``list.append`` is atomic), reduced by ``np.max`` so that NaN propagates.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "GridError", "WaveGrid", "check_grid", "retained_half_modes", "slab_planes", "pipeline_parts",
    "get_fft_workers",
]


class GridError(ValueError):
    """Invalid grid parameters."""


# Worker count of every transform. It goes straight to pocketfft, so
# scipy.fft's worker context (``scipy.fft.set_workers``) is never consulted.
FFT_WORKERS = 1


def _load_pocketfft():
    """scipy's compiled pocketfft module, loaded from its file so that the
    ``scipy.fft`` package (and the array-API layer it imports) never runs.
    Under its full name the interpreter hands a later
    ``import scipy.fft._pocketfft.pypocketfft`` the same module."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed: its compiled pocketfft module runs every transform")
    where = os.path.join(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "pypocketfft" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.fft._pocketfft.pypocketfft", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled pocketfft module (pypocketfft) not found in {where}")


_pocketfft = _load_pocketfft()

# (i, j, k) cyclic: (a x b)_i = a_j b_k - a_k b_j
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# Physical-space budget of one slab of x1-planes: a slab holds the largest
# number of planes whose six real components (velocity and vorticity) fit
# in 1.5 MiB, so its pointwise work stays in a 2 MiB L2 instead of
# streaming through memory. That is the whole grid for n <= 32, 14 planes
# at n = 48 and 8 at n = 64. Results do not depend on it.
SLAB_BYTES = 3 << 19


def slab_planes(n: int) -> int:
    """x1-planes per slab of :meth:`WaveGrid._forward_lines` on an n^3 grid."""
    return max(1, min(n, SLAB_BYTES // (6 * 8 * n * n)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pipeline_parts(n: int) -> int:
    """Halves that the transforms and :meth:`WaveGrid.by_k1_half` run side
    by side on an n^3 grid: 2 once the grid outgrows one slab
    (:func:`slab_planes` < n) and the process may run on two CPUs, else 1.
    On a one-slab grid the handoff at each stage boundary costs more than
    the second core saves."""
    return 2 if slab_planes(n) < n and _usable_cpus() >= 2 else 1


def get_fft_workers() -> int:
    """The fixed FFT worker count, :data:`FFT_WORKERS`."""
    return FFT_WORKERS


def retained_half_modes(n: int) -> int:
    """K: the 2/3 rule keeps the half-axis modes 0..K-1, those with m < n/3."""
    return -(-n // 3)


def check_grid(n: int, length: float) -> None:
    """Raise GridError unless n is an even integer >= 4 and the period is positive and finite."""
    if n < 4 or n % 2 != 0:
        raise GridError(f"n must be an even integer >= 4, got {n}")
    if not 0.0 < length < np.inf:
        raise GridError(f"torus period l must be > 0 and finite, got {length}")


class WaveGrid:
    """Wavenumbers of the retained block and transforms for one N^3 periodic box.

    Parameters
    ----------
    n : int
        Collocation points per axis. Even, >= 4.
    length : float
        Torus period L per axis.
    """

    def __init__(self, n: int, length: float):
        check_grid(n, length)
        self.n = int(n)
        self.length = float(length)
        self.nk = self.n // 2 + 1  # half-spectrum modes along the last axis, inside the transforms

        # 2/3 rule: keep |m_i| < N/3 on every axis.
        self.kb = retained_half_modes(self.n)  # K: retained half-axis modes
        self.mb = 2 * self.kb - 1  # M: retained modes per full axis
        # Signed retained modes, FFT ordering: 0, 1, ..., K-1, -(K-1), ..., -1 on a full axis.
        self.modes_half = np.arange(self.kb, dtype=np.int64)
        self.modes = np.concatenate([self.modes_half, -self.modes_half[:0:-1]])

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

        # (full-axis slice, block-axis slice) pairs: non-negative modes, then negative ones
        kb, lo = self.kb, self.n - self.kb + 1
        self._halves = ((slice(0, kb), slice(0, kb)), (slice(lo, None), slice(kb, None)))
        self._pad = slice(kb, lo)  # full-axis modes dropped by the 2/3 rule
        self._work: dict[tuple, np.ndarray] = {}

        # Parseval multiplicity of each stored k3 column (conjugates are implied
        # for k3 > 0; the block stops short of the Nyquist column).
        w = np.full(self.kb, 2.0)
        w[0] = 1.0
        self.hermitian_weight = w

        # Index map i -> index of -m on a block axis, for the k3 = 0 symmetry check.
        self._negated = (-np.arange(self.mb)) % self.mb

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
        """Smallest Stokes eigenvalue on the zero-mean torus: the smallest |k|^2
        over nonzero modes, the sharp Poincare constant (2 pi / L)^2."""
        return (2.0 * np.pi / self.length) ** 2

    @cached_property
    def _fwd_scale(self) -> float:
        """rfftn's norm="forward" factor as pocketfft forms it: 1/N^3 in long double, rounded."""
        return float(1 / np.longdouble(self.n ** 3))

    @cached_property
    def ksq2(self) -> np.ndarray:
        return self.ksq ** 2

    @cached_property
    def ikvec(self) -> np.ndarray:
        return 1j * self.kvec

    @cached_property
    def shell_order(self) -> np.ndarray:
        """Flat block indices shell by shell, s = max(|m1|, |m2|, m3) = 0..K-1,
        and within a shell in block order. Block order ranks the modes of an
        axis 0, 1, 2, ..., then the negative ones from the most negative up,
        which ranks two modes alike at every K. So the first (2s+1)^2 (s+1)
        entries list the block of K = s + 1 in its own shell order."""
        small = np.min_scalar_type(self.kb)  # so that the stable sort is a radix sort
        a, h = np.abs(self.modes).astype(small), self.modes_half.astype(small)
        shell = np.maximum(np.maximum(a[:, None, None], a[None, :, None]), h)
        return np.argsort(shell, axis=None, kind="stable")

    def shape(self, components: int = 3) -> tuple[int, ...]:
        """Shape of ``components`` coefficient arrays: the retained block (c, M, M, K)."""
        return (components, self.mb, self.mb, self.kb)

    def viscous_factor(self, mu: float, dt: float) -> np.ndarray:
        """exp(-mu |k|^2 dt) per retained mode, cached for fixed-step runs."""
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
    def workspace(self, name: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
        """A zero-initialised per-grid array kept across calls, one per
        (name, shape). Callers overwrite what they read; nothing re-zeroes it."""
        key = (name, shape)
        arr = self._work.get(key)
        if arr is None:
            arr = self._work[key] = np.zeros(shape, dtype)
        return arr

    def _inverse_lines(self, coeffs: np.ndarray, curl: bool = False) -> np.ndarray:
        """The c2c passes of the pruned inverse, in place in the leading c
        components of the per-grid workspace (six, or c if more), returned
        ready for ``irfft`` along k3: (c, N, N, N//2+1). With ``curl``, the
        velocity block (3, M, M, K) goes in with its curl ik x c, formed one
        component at a time, so c = 6. A part's share is a contiguous block
        of components. Columns k3 >= K are never written and stay zero; the
        padding the passes overwrite is re-zeroed on every call.
        """
        comps, kb = coeffs.shape[0], self.kb
        rows = 2 * comps if curl else comps
        work = self.workspace("inverse", (max(rows, 6), self.n, self.n, self.nk))[:rows]
        ik = self.ikvec if curl else None  # built on first use here, in the calling thread's malloc arena

        def components(part: int, share: slice) -> None:
            cols = work[share, ..., :kb]
            vel = slice(share.start, min(share.stop, comps))
            for f1, b1 in self._halves:
                for f2, b2 in self._halves:
                    work[vel, f1, f2, :kb] = coeffs[vel, b1, b2]
            if share.stop > comps:  # curl: one component at a time in a cache-sized block, then into the quadrants
                rot, tmp = self.workspace(f"inverse.curl{part}", (2,) + coeffs.shape[1:])
                for i, j, k in _CYCLIC[max(share.start - comps, 0):share.stop - comps]:
                    np.multiply(ik[j], coeffs[k], out=rot)
                    np.multiply(ik[k], coeffs[j], out=tmp)
                    rot -= tmp
                    for f1, b1 in self._halves:
                        for f2, b2 in self._halves:
                            work[comps + i, f1, f2, :kb] = rot[b1, b2]
            for f2, _ in self._halves:
                cols[:, self._pad, f2] = 0.0
                _c2c_inplace(cols[:, :, f2], -3, inverse=True)
            cols[:, :, self._pad] = 0.0
            _c2c_inplace(cols, -2, inverse=True)

        _in_parts(pipeline_parts(self.n), [(len(work), components)])
        return work

    def _forward_lines(
        self, comps: int, planes: Callable[[int, int, int], np.ndarray],
        finish: Callable[[np.ndarray, slice], None],
    ) -> np.ndarray:
        """The new block (comps, M, M, K) of the real values that
        ``planes(part, lo, hi)`` returns as (comps, hi - lo, N, N) for the
        x1-planes lo..hi-1, :func:`slab_planes` of them or fewer. One part's
        calls run in plane order on one thread, while the other part's may
        run at the same time on another. ``finish(block, rows)`` then acts in
        place on the k1 rows its part has just filled, on those rows alone
        (:meth:`by_k1_half`): once per part, on all M rows in one part.
        """
        n, kb = self.n, self.kb
        step = slab_planes(n)
        spec = self.workspace("forward.k3", (comps, n, n, kb))
        spec_re = spec.view(np.float64)

        def slabs(part: int, x1: slice) -> None:
            for lo in range(x1.start, x1.stop, step):
                hi = min(lo + step, x1.stop)
                half = _rfft(planes(part, lo, hi))
                np.multiply(half[..., :kb].view(np.float64), self._fwd_scale, out=spec_re[:, lo:hi])

        block = None

        def x1_lines(part: int, x2: slice) -> None:
            nonlocal block
            if part == 0:  # allocated once the slabs' temporaries are freed, so it can reuse their memory
                block = np.empty(self.shape(comps), spec.dtype)
            _c2c_inplace(spec[:, :, x2], -3)

        def x2_lines(part: int, halves: slice) -> None:
            for f1, b1 in self._halves[halves]:  # only the retained k1 rows go on to the k2 pass
                rows = spec[:, f1]
                _c2c_inplace(rows, -2)
                for f2, b2 in self._halves:
                    block[:, b1, b2] = rows[:, :, f2]
            finish(block, self._k1_rows(halves))

        _in_parts(pipeline_parts(n), [(n, slabs), (n, x1_lines), (len(self._halves), x2_lines)])
        return block

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Block coefficients (c, M, M, K) -> real collocation values
        (c, N, N, N), bitwise equal to ``irfftn`` of the scattered block.
        The per-grid workspaces make concurrent calls on one grid unsafe."""
        return _irfft(self._inverse_lines(coeffs), self.n)

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Real collocation values (..., N, N, N) -> their block (..., M, M, K),
        bitwise equal to the gathered ``rfftn`` with ``norm="forward"``."""
        lines = values.reshape((-1,) + (self.n,) * 3)
        block = self._forward_lines(len(lines), lambda part, lo, hi: lines[:, lo:hi], lambda *_: None)
        return block.reshape(values.shape[:-3] + block.shape[1:])

    def transform_pointwise(
        self, coeffs: np.ndarray, fn: Callable[[int, np.ndarray, np.ndarray], None],
        finish: Callable[[np.ndarray, slice], None],
    ) -> np.ndarray:
        """Velocity block (3, M, M, K) -> the block (3, M, M, K) of a
        pointwise map of the velocity and its curl, slab by slab.

        ``fn(lo, values, out)`` gets the real values (6, p, N, N) of the
        x1-planes lo..lo+p-1, the velocity and then its curl, may overwrite
        them, and fills ``out`` (3, p, N, N). Calls on different slabs may
        run at the same time on two threads, so state that ``fn`` shares
        across calls must tolerate that (``list.append`` does).
        ``finish`` is that of :meth:`_forward_lines`.

        Before ``finish``, the result equals
        ``gather(rfftn(fn(irfftn(scatter([c, ik x c]))), norm="forward"))``
        bit for bit, whatever the slab size or the number of parts. The
        workspaces make concurrent calls on one grid unsafe.
        """
        n = self.n
        lines = self._inverse_lines(coeffs, curl=True)

        def planes(part: int, lo: int, hi: int) -> np.ndarray:
            out = self.workspace(f"forward.slab{part}", (3, slab_planes(n), n, n), np.float64)[:, :hi - lo]
            fn(lo, _irfft(lines[:, lo:hi], n), out)
            return out

        return self._forward_lines(3, planes, finish)

    def _k1_rows(self, halves: slice) -> slice:
        """Block rows of a share of the retained k1 halves: 0..K-1 for the
        first, K..M-1 for the second, and 0..M-1 for both, which lie
        next to each other in the block."""
        bounds = (0, self.kb, self.mb)
        return slice(bounds[halves.start], bounds[halves.stop])

    def by_k1_half(self, work: Callable[[slice], None]) -> None:
        """Run ``work(rows)`` on the block's k1 rows in :func:`pipeline_parts`
        parts, split by retained k1 half as the forward x2 pass of
        :meth:`_forward_lines` splits them: rows 0..K-1 and K..M-1 side by
        side in two parts (:func:`_in_parts`; ``work`` must not call this
        again), or rows 0..M-1 in the calling thread. ``work`` writes only
        its own rows of every block, and scratch it needs can be named by
        ``rows.start``, so mode-wise work gives the same bits in either case."""
        halves = len(self._halves)
        _in_parts(pipeline_parts(self.n), [(halves, lambda part, share: work(self._k1_rows(share)))])

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    def axis_points(self) -> np.ndarray:
        """Collocation coordinates along one axis."""
        return self.dx * np.arange(self.n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaveGrid(n={self.n}, length={self.length})"


_pool: ThreadPoolExecutor | None = None  # the pipeline worker, made by the first two-part stage


def _forget_pool() -> None:
    """In a forked child: the parent's worker thread does not exist there."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # absent on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _in_parts(parts: int, stages: list[tuple[int, Callable[[int, slice], None]]]) -> None:
    """Run each stage ``(length, work)`` as ``work(part, share)`` on ``parts``
    (1 or 2) consecutive shares of range(length), one stage after another.
    A stage's range indexes the axis it splits along (components, x1-planes,
    x2 rows or k1 halves in the transforms, k1 halves in
    :meth:`WaveGrid.by_k1_half`), so that each share is a contiguous block
    of the arrays its part writes.

    Part 0 runs in the calling thread and part 1 on the process's one
    pipeline worker, made by the first two-part stage (a forked child makes
    its own). A stage ends when both shares are done, so no part reads what
    the other has not yet written, and no share runs on after an exception:
    part 0's is raised first, else part 1's. A stage's work must not start
    another two-part stage, which would wait on the worker it runs on.
    """
    if parts == 1:
        for length, work in stages:
            work(0, slice(0, length))
        return
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dampedns-pipeline")
    for length, work in stages:
        half = length // 2
        other = _pool.submit(work, 1, slice(half, length))
        try:
            work(0, slice(0, half))
        finally:
            other.exception()  # waits for part 1's share without raising its exception
        other.result()


def _c2c_inplace(x: np.ndarray, axis: int, inverse: bool = False) -> None:
    """Unnormalised c2c transform of ``x`` along ``axis``, in place: scipy.fft's
    ``fft`` (``norm="backward"``) or ``ifft`` (``norm="forward"``) with
    ``overwrite_x``, which both pass pocketfft ``inorm=0`` and ``out=x``."""
    _pocketfft.c2c(x, (axis,), not inverse, 0, x, FFT_WORKERS)


def _rfft(x: np.ndarray) -> np.ndarray:
    """Unnormalised r2c transform along the last axis: scipy.fft's ``rfft(x)``,
    which passes pocketfft ``inorm=0``."""
    return _pocketfft.r2c(x, (-1,), True, 0, None, FFT_WORKERS)


def _irfft(x: np.ndarray, n: int) -> np.ndarray:
    """Unnormalised c2r transform along the last axis to n real values:
    scipy.fft's ``irfft(x, n, norm="forward")``, which passes pocketfft ``inorm=0``."""
    return _pocketfft.c2r(x, (-1,), n, False, 0, None, FFT_WORKERS)
