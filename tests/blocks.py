"""The retained block against the real-FFT half-spectrum: the oracle layout
conversion for the pruned transforms.

The quadrants come from n alone. The 2/3 rule keeps the K modes m < n/3 of
the half axis, so a full axis keeps 0..K-1 at its start and -(K-1)..-1 at its
end, and the block stores them as M = 2K - 1 rows in that order. Nothing here
reads a grid, so the oracle shares no code with the transforms it checks.
"""

import numpy as np


def _quadrants(n):
    """K, and the (full-axis slice, block-axis slice) pairs of an n-point axis:
    the non-negative retained modes, then the negative ones."""
    k = int(np.count_nonzero(np.arange(n // 2 + 1) < n / 3))
    return k, ((slice(0, k), slice(0, k)), (slice(n - k + 1, n), slice(k, 2 * k - 1)))


def gather(full):
    """Half-spectrum array (..., N, N, N//2+1) -> its retained block (..., M, M, K)."""
    k, quads = _quadrants(full.shape[-3])
    out = np.empty(full.shape[:-3] + (2 * k - 1, 2 * k - 1, k), full.dtype)
    for f1, b1 in quads:
        for f2, b2 in quads:
            out[..., b1, b2, :] = full[..., f1, f2, :k]
    return out


def scatter(block, n):
    """Retained block (..., M, M, K) of an n^3 grid -> its half-spectrum
    array, zero outside the block."""
    k, quads = _quadrants(n)
    assert block.shape[-3:] == (2 * k - 1, 2 * k - 1, k), (block.shape, n)
    out = np.zeros(block.shape[:-3] + (n, n, n // 2 + 1), block.dtype)
    for f1, b1 in quads:
        for f2, b2 in quads:
            out[..., f1, f2, :k] = block[..., b1, b2, :]
    return out
