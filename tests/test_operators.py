"""Projection, convective and damping terms, all read off the integrator's kernel.

The convective term N(u) = P[u x omega] is the kernel at alpha = 0 with zero
forcing, and the damping term -P[alpha |u|^(beta-1) u] is the kernel's change
when the damping is switched on: rhs(u; alpha, beta) - rhs(u; 0, 1).
"""

import numpy as np
import pytest

from dampedns import WaveGrid, ForcingField, SpectralVelocity, make_initial_condition
from dampedns.fields import divergence_max, h_norm_sq, h_inner
from dampedns.operators import nonviscous_rhs, project_coeffs

from invariants import assert_invariants


def random_hermitian_coeffs(grid, seed):
    """Raw (not divergence-free) coefficients of a real random field."""
    rng = np.random.default_rng(seed)
    return grid.to_spectral(rng.standard_normal((3, grid.n, grid.n, grid.n)))


def rhs(u, alpha, beta):
    """The kernel's right-hand side of u with zero forcing."""
    return nonviscous_rhs(u.coeffs, u.grid, alpha, beta, ForcingField.zero(u.grid).coeffs)[0]


def convective(u):
    return rhs(u, 0.0, 1.0)


def damping(u, alpha, beta):
    return rhs(u, alpha, beta) - convective(u)


def textbook_terms(u, alpha, beta):
    """P[u x omega] and -P[alpha |u|^(beta-1) u] from whole-grid transforms of
    the velocity and its curl, without the kernel's slab pipeline."""
    g, c = u.grid, u.coeffs
    ik = g.ikvec
    omega = np.stack([ik[1] * c[2] - ik[2] * c[1], ik[2] * c[0] - ik[0] * c[2], ik[0] * c[1] - ik[1] * c[0]])
    v, w = g.to_physical(c), g.to_physical(omega)
    speed = np.sqrt((v ** 2).sum(axis=0))
    conv = project_coeffs(g.to_spectral(np.cross(v, w, axis=0)), g)
    damp = project_coeffs(g.to_spectral(-alpha * speed ** (beta - 1.0) * v), g)
    return conv, damp


class TestLerayProject:
    def test_divergence_free_input_unchanged(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        p = project_coeffs(u.coeffs.copy(), g)
        assert np.abs(p - u.coeffs).max() <= 1e-14

    def test_pure_gradient_mode_annihilated(self):
        g = WaveGrid(8, 2 * np.pi)
        c = np.zeros(g.shape(), complex)
        # v_hat = k at one mode (and its conjugate pair on the k3=0 plane);
        # block indices: mode -m sits at M - m on a full axis
        i, j, k = 1, 2, 0
        kvec = g.kvec[:, i, j, k]
        c[:, i, j, k] = kvec
        c[:, (-i) % g.mb, (-j) % g.mb, k] = kvec.conj()
        p = project_coeffs(c, g)
        assert np.abs(p).max() <= 1e-15 * np.abs(kvec).max()

    def test_random_input_divfree_and_idempotent(self):
        g = WaveGrid(8, 2 * np.pi)
        for seed in range(5):
            once = project_coeffs(random_hermitian_coeffs(g, seed), g)
            scale = np.abs(once).max()
            assert divergence_max(once, g) <= 1e-12 * scale
            twice = project_coeffs(once.copy(), g)
            assert np.abs(twice - once).max() <= 1e-13 * scale
            assert_invariants(SpectralVelocity(g, once))

    def test_shape_rejected(self):
        g = WaveGrid(8, 1.0)
        with pytest.raises(ValueError):
            project_coeffs(np.zeros((3, 4, 4, 3), complex), g)


class TestNonlinearTerm:
    def test_zero_field(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        assert np.abs(convective(u)).max() == 0.0

    def test_shear_mode_annihilated(self):
        # (u . grad) u vanishes for u = (A sin(2 pi y / L), 0, 0)
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        assert np.abs(convective(u)).max() <= 1e-15

    def test_energy_orthogonality_random(self):
        g = WaveGrid(16, 2 * np.pi)
        for seed in range(5):
            u = make_initial_condition(g, "random", seed=seed, energy=1.0)
            nl = convective(u)
            ip = h_inner(nl, u.coeffs, g)
            denom = np.sqrt(h_norm_sq(nl, g) * h_norm_sq(u.coeffs, g))
            assert abs(ip) <= 1e-10 * denom
            assert_invariants(SpectralVelocity(g, nl))


class TestDampingTerm:
    @pytest.mark.parametrize("n", [16, 64])  # 64: slabs, and two parts where two CPUs are usable
    def test_linear_damping_is_minus_alpha_u(self, n):
        """At beta = 1 the factor |u|^0 is one, so the damping term is -alpha u."""
        g = WaveGrid(n, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=0, energy=1.0)
        d = damping(u, 0.7, 1.0)
        assert np.abs(d + 0.7 * u.coeffs).max() <= 1e-14 * 0.7 * np.abs(u.coeffs).max()

    def test_zero_field(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        assert np.abs(damping(u, 1.0, 3.0)).max() == 0.0

    def test_cubic_shear_closed_form(self):
        # |u|^2 u on A sin(th) e1 is A^3 sin^3(th) e1, and
        # sin^3(th) = (3 sin(th) - sin(3 th)) / 4: modes 1 and 3 in ratio 3 : -1.
        g = WaveGrid(16, 2 * np.pi)
        amp, alpha = 1.3, 0.9
        u = make_initial_condition(g, "shear", amplitude=amp)
        d = damping(u, alpha, 3.0)
        c1 = d[0, 0, 1, 0]
        c3 = d[0, 0, 3, 0]
        assert c1 / c3 == pytest.approx(-3.0, rel=1e-10)
        # compare against the full physical-space closed form
        x = g.axis_points()
        expected_phys = -alpha * (amp * np.sin(2 * np.pi * x / g.length)) ** 3
        phys = g.to_physical(d)
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
            ip = h_inner(damping(u, alpha, beta), u.coeffs, g)
            assert ip == pytest.approx(-alpha * lbp, rel=1e-8)
            assert ip <= 0.0

    def test_sign_symmetry(self):
        # The difference of kernel calls carries the rounding of the convective
        # term, which at alpha = 0.4 is 1000 times the beta = 5 damping term of
        # this field; at alpha = 400 the damping term dominates.
        g = WaveGrid(8, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=2, energy=1.0)
        neg = SpectralVelocity(g, -u.coeffs)
        for beta in (3.0, 5.0):
            d_pos = damping(u, 400.0, beta)
            d_neg = damping(neg, 400.0, beta)
            scale = np.abs(d_pos).max()
            assert np.abs(d_neg + d_pos).max() <= 1e-13 * scale


class TestFusedRhs:
    def test_matches_sum_of_parts(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=4, energy=2.0)
        f = ForcingField.cylinder(g, force=(0.0, 0.5, 0.0))
        for beta in (1.0, 2.5, 3.0):
            fused, _ = nonviscous_rhs(u.coeffs, g, 0.7, beta, f.coeffs)
            parts = sum(textbook_terms(u, 0.7, beta)) + f.coeffs
            scale = np.abs(parts).max()
            assert np.abs(fused - parts).max() <= 1e-12 * scale

    def test_power_identity(self):
        # <rhs, u> = -alpha |u|_{beta+1}^{beta+1} + (f, u): the convective term
        # contributes nothing
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=5, energy=1.0)
        f = ForcingField.cylinder(g, force=(0.0, 0.5, 0.0))
        alpha, beta = 0.6, 3.0
        fused, _ = nonviscous_rhs(u.coeffs, g, alpha, beta, f.coeffs)
        phys = g.to_physical(u.coeffs)
        s2 = (phys ** 2).sum(axis=0)
        lbp = g.dx ** 3 * float((s2 ** ((beta + 1) / 2)).sum())
        expected = -alpha * lbp + h_inner(f.coeffs, u.coeffs, g)
        assert h_inner(fused, u.coeffs, g) == pytest.approx(expected, rel=1e-8)
