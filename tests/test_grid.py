"""Grid construction, the retained block, transforms."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

import dampedns
import dampedns.grid as grid_module
from dampedns import WaveGrid, GridError, get_fft_workers
from dampedns.fields import make_initial_condition


class TestWaveGrid:
    def test_rejects_small_or_odd_n(self):
        for bad in (2, 3, 7, 0, -4):
            with pytest.raises(GridError):
                WaveGrid(bad, 1.0)

    def test_rejects_bad_length(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(GridError):
                WaveGrid(8, bad)

    def test_mode_layout(self):
        # n = 8 keeps |m| < 8/3 on every axis: FFT order on the full axes
        g = WaveGrid(8, 2 * np.pi)
        assert list(g.modes) == [0, 1, 2, -2, -1]
        assert list(g.modes_half) == [0, 1, 2]
        assert g.nk == 5  # the half-spectrum the transforms see
        assert g.shape() == (3, 5, 5, 3)

    def test_block_counts_and_symmetry(self):
        for n in (8, 16, 32):
            g = WaveGrid(n, 1.0)
            full = np.fft.fftfreq(n, d=1.0 / n)
            kept = np.count_nonzero(np.abs(full) < n / 3.0)
            assert g.mb == kept
            assert g.mb ** 3 < n ** 3
            # the block holds exactly the full-axis modes the 2/3 rule keeps
            assert sorted(g.modes) == sorted(full[np.abs(full) < n / 3.0])
            assert list(g.modes_half) == [m for m in range(n // 2 + 1) if m < n / 3.0]
            # within-plane symmetry under (k1, k2) -> (-k1, -k2)
            neg = (-np.arange(g.mb)) % g.mb
            assert np.array_equal(g.modes[neg], -g.modes)
            for plane in range(g.kb):
                p = g.ksq[:, :, plane]
                assert np.array_equal(p, p[neg][:, neg])
            # zero mode is stored (its exclusion is dynamical)
            assert g.modes[0] == 0 and g.modes_half[0] == 0
            # Nyquist is never stored
            assert n // 2 not in np.abs(g.modes)
            assert g.modes_half[-1] < n // 2

    def test_lambda1_values(self):
        assert WaveGrid(8, 2 * np.pi).lambda1 == pytest.approx(1.0, rel=1e-15)
        assert WaveGrid(8, 1.0).lambda1 == pytest.approx(4 * np.pi ** 2, rel=1e-15)
        assert WaveGrid(8, 6.0).lambda1 == pytest.approx((np.pi / 3) ** 2, rel=1e-15)

    def test_lambda1_is_smallest_retained_ksq(self):
        g = WaveGrid(16, 3.7)
        nonzero = g.ksq[g.ksq > 0]
        assert nonzero.min() == pytest.approx(g.lambda1, rel=1e-14)

    def test_spacing(self):
        g = WaveGrid(16, 4.0)
        assert g.dx == pytest.approx(0.25)
        assert g.axis_points()[1] == pytest.approx(0.25)


class TestTransforms:
    def test_round_trip_identity_on_dealiased_fields(self):
        g = WaveGrid(16, 2.5)
        u = make_initial_condition(g, "random", seed=0, energy=3.0)
        phys = g.to_physical(u.coeffs)
        back = g.to_spectral(phys)
        scale = np.abs(u.coeffs).max()
        assert np.abs(back - u.coeffs).max() <= 1e-13 * scale
        # and physical -> spectral -> physical on the same dealiased field
        phys2 = g.to_physical(back)
        assert np.abs(phys2 - phys).max() <= 1e-13 * np.abs(phys).max()

    def test_physical_values_are_real_container(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "random", seed=1, energy=1.0)
        phys = g.to_physical(u.coeffs)
        assert phys.dtype == np.float64
        assert phys.shape == (3, 8, 8, 8)

    def test_fft_worker_count_is_fixed(self):
        # the worker count goes straight to pocketfft, so scipy.fft's worker
        # context is never consulted and cannot change the transform order
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=2, energy=1.0)
        a = g.to_physical(u.coeffs)
        with scipy.fft.set_workers(2):
            b = g.to_physical(u.coeffs)
        assert get_fft_workers() == 1
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [4, 6, 16, 18, 32, 48, 64])
    def test_pocketfft_calls_equal_public_scipy_fft(self, n):
        """The direct pocketfft calls give public scipy.fft's bits on the
        views the transforms pass: the c2c passes in place on the retained
        k3 columns and the retained k1 rows of a (c, N, N, N//2+1) array,
        r2c and c2r on x1-slabs."""
        g = WaveGrid(n, 1.0)
        rng = np.random.default_rng(n)
        kb, lo = g.kb, n - g.kb + 1
        shape = (3, n, n, g.nk)
        full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        views = [
            (-3, lambda a: a[..., :kb]),  # the columns of the inverse k1 and forward x1 passes
            (-3, lambda a: a[:, :, lo:, :kb]),  # one k2 half of those columns
            (-2, lambda a: a[..., :kb]),  # the inverse k2 pass
            (-2, lambda a: a[:, :kb]),  # the forward x2 pass, on each retained k1 half
            (-2, lambda a: a[:, lo:]),
        ]
        for axis, view in views:
            for inverse in (False, True):
                a = full.copy()
                x = view(a)
                want = (scipy.fft.ifft(x, axis=axis, norm="forward") if inverse
                        else scipy.fft.fft(x, axis=axis))
                grid_module._c2c_inplace(x, axis, inverse)
                assert np.shares_memory(x, a)
                assert np.array_equal(view(a), want), (axis, inverse)
        values = rng.standard_normal((3, n, n, n))
        slab = values[:, 1:n - 1]
        assert np.array_equal(grid_module._rfft(slab), scipy.fft.rfft(slab, axis=-1))
        lines = full[:, 1:n - 1]
        assert np.array_equal(grid_module._irfft(lines, n), scipy.fft.irfft(lines, n=n, axis=-1, norm="forward"))

    def test_viscous_factor_cache(self):
        g = WaveGrid(8, 1.0)
        f1 = g.viscous_factor(0.1, 0.01)
        f2 = g.viscous_factor(0.1, 0.01)
        assert f1 is f2
        expected = np.exp(-0.1 * 0.01 * g.ksq)
        assert np.array_equal(f1, expected)


def test_import_loads_pocketfft_alone():
    """Importing the command line loads scipy's compiled pocketfft module and
    none of scipy.fft, scipy.special, scipy's array-API layer or numpy.f2py;
    a later import of the extension under its scipy name is the same file."""
    code = (
        "import sys, dampedns.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.fft', 'scipy.special', "
        "'scipy._lib._array_api', 'numpy.f2py'))))\n"
        "import scipy.fft._pocketfft.pypocketfft as p\n"
        "print(p.__file__ == sys.modules['dampedns.grid']._pocketfft.__file__)\n"
    )
    path = [os.path.dirname(os.path.dirname(dampedns.__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "True"]
