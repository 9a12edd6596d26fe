"""The invariants every velocity field built by the package keeps."""

import numpy as np

from dampedns.fields import divergence_max, hermitian_defect


def assert_invariants(u) -> None:
    """Assert that the SpectralVelocity ``u`` is finite, has a zero mean
    mode, is divergence-free and is real (Hermitian on its k3 = 0 plane),
    the last two to 1e-12 of its largest coefficient."""
    peak = float(np.abs(u.coeffs).max())
    assert np.isfinite(peak), "non-finite spectral coefficients"
    assert np.abs(u.coeffs[:, 0, 0, 0]).max() == 0.0, "zero mode is not zero"
    scale = max(peak, 1e-300)
    assert divergence_max(u.coeffs, u.grid) <= 1e-12 * scale, "field is not divergence-free"
    assert hermitian_defect(u.coeffs, u.grid) <= 1e-12 * scale, "field is not Hermitian-symmetric (not real)"
