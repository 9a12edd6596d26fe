"""Projection, convective and damping operators."""

import numpy as np
import pytest

from dampedns import WaveGrid, ForcingField, make_initial_condition
from dampedns.fields import divergence_max, h_norm_sq, h_inner
from dampedns.operators import damping_term, leray_project, nonlinear_term, nonviscous_rhs


def random_hermitian_coeffs(grid, seed):
    """Raw (not divergence-free) coefficients of a real random field."""
    rng = np.random.default_rng(seed)
    return grid.to_spectral(rng.standard_normal((3, grid.n, grid.n, grid.n)))


class TestLerayProject:
    def test_divergence_free_input_unchanged(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        p = leray_project(u.coeffs, g)
        assert np.abs(p.coeffs - u.coeffs).max() <= 1e-14

    def test_pure_gradient_mode_annihilated(self):
        g = WaveGrid(8, 2 * np.pi)
        c = np.zeros(g.shape(), complex)
        # v_hat = k at one mode (and its conjugate pair on the k3=0 plane);
        # block indices: mode -m sits at M - m on a full axis
        i, j, k = 1, 2, 0
        kvec = g.kvec[:, i, j, k]
        c[:, i, j, k] = kvec
        c[:, (-i) % g.mb, (-j) % g.mb, k] = kvec.conj()
        p = leray_project(c, g)
        assert np.abs(p.coeffs).max() <= 1e-15 * np.abs(kvec).max()

    def test_random_input_divfree_and_idempotent(self):
        g = WaveGrid(8, 2 * np.pi)
        for seed in range(5):
            c = random_hermitian_coeffs(g, seed)
            once = leray_project(c, g)
            scale = np.abs(once.coeffs).max()
            assert divergence_max(once.coeffs, g) <= 1e-12 * scale
            twice = leray_project(once.coeffs, g)
            assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-13 * scale
            once.validate()

    def test_shape_rejected(self):
        g = WaveGrid(8, 1.0)
        with pytest.raises(ValueError):
            leray_project(np.zeros((3, 4, 4, 3), complex), g)


class TestNonlinearTerm:
    def test_zero_field(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        assert np.abs(nonlinear_term(u).coeffs).max() == 0.0

    def test_shear_mode_annihilated(self):
        # (u . grad) u vanishes for u = (A sin(2 pi y / L), 0, 0)
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        nl = nonlinear_term(u)
        assert np.abs(nl.coeffs).max() <= 1e-15

    def test_energy_orthogonality_random(self):
        g = WaveGrid(16, 2 * np.pi)
        for seed in range(5):
            u = make_initial_condition(g, "random", seed=seed, energy=1.0)
            nl = nonlinear_term(u)
            ip = h_inner(nl.coeffs, u.coeffs, g)
            denom = np.sqrt(h_norm_sq(nl.coeffs, g) * h_norm_sq(u.coeffs, g))
            assert abs(ip) <= 1e-10 * denom
            nl.validate()


class TestDampingTerm:
    def test_linear_damping_exact(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=0, energy=1.0)
        d = damping_term(u, 0.7, 1.0)
        assert np.array_equal(d.coeffs, -0.7 * u.coeffs)

    def test_zero_field(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        assert np.abs(damping_term(u, 1.0, 3.0).coeffs).max() == 0.0

    def test_cubic_shear_closed_form(self):
        # |u|^2 u on A sin(th) e1 is A^3 sin^3(th) e1, and
        # sin^3(th) = (3 sin(th) - sin(3 th)) / 4: modes 1 and 3 in ratio 3 : -1.
        g = WaveGrid(16, 2 * np.pi)
        amp, alpha = 1.3, 0.9
        u = make_initial_condition(g, "shear", amplitude=amp)
        d = damping_term(u, alpha, 3.0)
        c1 = d.coeffs[0, 0, 1, 0]
        c3 = d.coeffs[0, 0, 3, 0]
        assert c1 / c3 == pytest.approx(-3.0, rel=1e-10)
        # compare against the full physical-space closed form
        x = g.axis_points()
        expected_phys = -alpha * (amp * np.sin(2 * np.pi * x / g.length)) ** 3
        phys = g.to_physical(d.coeffs)
        assert np.abs(phys[0] - expected_phys[None, :, None]).max() <= 1e-10 * alpha * amp ** 3
        assert np.abs(phys[1:]).max() <= 1e-14

    def test_dissipativity_identity(self):
        # <damping, u> = -alpha * dx^3 sum |u|^(beta+1), exact by discrete Parseval
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=1, energy=2.0)
        phys = g.to_physical(u.coeffs)
        s2 = (phys ** 2).sum(axis=0)
        for alpha, beta in ((0.5, 1.0), (0.7, 2.0), (1.1, 3.0), (0.3, 4.5)):
            lbp = g.dx ** 3 * float((s2 ** ((beta + 1) / 2)).sum())
            d = damping_term(u, alpha, beta)
            ip = h_inner(d.coeffs, u.coeffs, g)
            assert ip == pytest.approx(-alpha * lbp, rel=1e-8)
            assert ip <= 0.0

    def test_sign_symmetry(self):
        g = WaveGrid(8, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=2, energy=1.0)
        neg = u.copy()
        neg.coeffs *= -1.0
        for beta in (3.0, 5.0):
            d_pos = damping_term(u, 0.4, beta)
            d_neg = damping_term(neg, 0.4, beta)
            scale = np.abs(d_pos.coeffs).max()
            assert np.abs(d_neg.coeffs + d_pos.coeffs).max() <= 1e-13 * scale

    def test_parameter_validation(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "random", seed=3, energy=1.0)
        with pytest.raises(ValueError):
            damping_term(u, 0.0, 3.0)
        with pytest.raises(ValueError):
            damping_term(u, -1.0, 3.0)
        with pytest.raises(ValueError):
            damping_term(u, 1.0, 0.5)


class TestFusedRhs:
    def test_matches_sum_of_parts(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=4, energy=2.0)
        f = ForcingField.cylinder(g, force=(0.0, 0.5, 0.0))
        for beta in (1.0, 2.5, 3.0):
            fused, _ = nonviscous_rhs(u.coeffs, g, 0.7, beta, f.coeffs)
            parts = nonlinear_term(u).coeffs + damping_term(u, 0.7, beta).coeffs + f.coeffs
            scale = np.abs(parts).max()
            assert np.abs(fused - parts).max() <= 1e-12 * scale

    def test_power_identity(self):
        # <rhs, u> = -alpha |u|_{beta+1}^{beta+1} + (f, u): the convective term
        # contributes nothing
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=5, energy=1.0)
        f = ForcingField.cylinder(g, force=(0.0, 0.5, 0.0))
        alpha, beta = 0.6, 3.0
        rhs, _ = nonviscous_rhs(u.coeffs, g, alpha, beta, f.coeffs)
        phys = g.to_physical(u.coeffs)
        s2 = (phys ** 2).sum(axis=0)
        lbp = g.dx ** 3 * float((s2 ** ((beta + 1) / 2)).sum())
        expected = -alpha * lbp + h_inner(f.coeffs, u.coeffs, g)
        assert h_inner(rhs, u.coeffs, g) == pytest.approx(expected, rel=1e-8)
