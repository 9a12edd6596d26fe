"""Norms, power budget, energy-balance residual."""

import math

import numpy as np
import pytest

from dampedns import (
    DiagnosticsWriter,
    ForcingSpec,
    Observer,
    Physics,
    SchemeConfig,
    SolverError,
    SolverState,
    WaveGrid,
    energy_balance_residual,
    h_norm_sq,
    integrate,
    make_initial_condition,
    read_diagnostics,
    record,
    step,
)
from dampedns.diagnostics import DiagnosticsRecord


def physics_for(grid, mu=0.1, alpha=0.2, beta=1.0, forcing=None):
    return Physics(mu=mu, alpha=alpha, beta=beta,
                   forcing=forcing or ForcingSpec().build(grid))


class TestRecord:
    def test_zero_field_all_zero(self):
        g = WaveGrid(8, 1.0)
        r = record(make_initial_condition(g, "zero"), 0.0, physics_for(g))
        assert (r.E, r.V2, r.Lbp, r.A2, r.P_f, r.P_damp, r.umax) == (0,) * 7

    def test_shear_norms_closed_form(self):
        # E = A^2 L^3 / 2; single |k| = 1 mode so V2 = E and A2 = E
        g = WaveGrid(16, 2 * np.pi)
        amp = 1.1
        u = make_initial_condition(g, "shear", amplitude=amp)
        r = record(u, 0.0, physics_for(g, beta=3.0, alpha=0.5))
        e_exact = amp ** 2 * (2 * np.pi) ** 3 / 2
        assert r.E == pytest.approx(e_exact, rel=1e-13)
        assert r.V2 == pytest.approx(e_exact, rel=1e-13)
        assert r.A2 == pytest.approx(e_exact, rel=1e-13)
        assert r.umax == pytest.approx(amp, rel=1e-12)

    def test_shear_lbp_beta3_quartic_integral(self):
        # dx^3 sum |A sin|^4 -> A^4 L^2 * integral of sin^4 = (3/8) A^4 L^3,
        # cross-checked against an independent high-resolution quadrature.
        g = WaveGrid(16, 2 * np.pi)
        amp = 1.3
        u = make_initial_condition(g, "shear", amplitude=amp)
        r = record(u, 0.0, physics_for(g, beta=3.0, alpha=0.5))
        closed = (3.0 / 8.0) * amp ** 4 * (2 * np.pi) ** 3
        theta = np.linspace(0.0, 2 * np.pi, 20001)
        quad_1d = np.trapezoid((amp * np.sin(theta)) ** 4, theta)
        independent = quad_1d * (2 * np.pi) ** 2
        assert independent == pytest.approx(closed, rel=1e-9)
        assert r.Lbp == pytest.approx(closed, rel=1e-12)
        assert r.P_damp == pytest.approx(0.5 * closed, rel=1e-12)

    def test_v2_over_e_is_ksq_for_single_mode(self):
        g = WaveGrid(16, 3.0)
        u = make_initial_condition(g, "shear", amplitude=2.0)
        r = record(u, 0.0, physics_for(g))
        assert r.V2 / r.E == pytest.approx(g.lambda1, rel=1e-13)

    def test_parseval_consistency(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=0, energy=2.0)
        r = record(u, 0.0, physics_for(g))
        phys = g.to_physical(u.coeffs)
        e_phys = g.dx ** 3 * float((phys ** 2).sum())
        assert r.E == pytest.approx(e_phys, rel=1e-12)

    def test_poincare_chain(self):
        g = WaveGrid(16, 2 * np.pi)
        lam1 = g.lambda1
        # strict inequality for a broadband field
        u = make_initial_condition(g, "random", seed=1, energy=1.0)
        r = record(u, 0.0, physics_for(g))
        assert r.V2 > lam1 * r.E
        assert r.A2 > lam1 * r.V2
        # equality when only |k|^2 = lambda1 modes are populated
        s = make_initial_condition(g, "shear", amplitude=1.0)
        rs = record(s, 0.0, physics_for(g))
        assert rs.V2 == pytest.approx(lam1 * rs.E, rel=1e-13)
        assert rs.A2 == pytest.approx(lam1 * rs.V2, rel=1e-13)

    def test_lbp_equals_e_for_beta_one(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=2, energy=3.0)
        r = record(u, 0.0, physics_for(g, beta=1.0))
        assert r.Lbp == pytest.approx(r.E, rel=1e-12)

    def test_forcing_power(self):
        g = WaveGrid(16, 2 * np.pi)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        u = make_initial_condition(g, "random", seed=3, energy=1.0)
        r = record(u, 0.0, physics_for(g, forcing=f))
        phys_u = g.to_physical(u.coeffs)
        phys_f = g.to_physical(f.coeffs)
        assert r.P_f == pytest.approx(g.dx ** 3 * float((phys_u * phys_f).sum()), rel=1e-11)

    def test_nonfinite_signals(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        u.coeffs[0, 0, 1, 0] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            record(u, 0.0, physics_for(g))


class TestFillDEdt:
    """The dE/dt end rules, which only the CSV writer applies."""

    def rec(self, t, e):
        return DiagnosticsRecord(t=t, E=e, V2=0, Lbp=0, A2=0, P_f=0, P_damp=0,
                                 dEdt=math.nan, umax=0)

    def written(self, tmp_path, records):
        path = tmp_path / "d.csv"
        with DiagnosticsWriter(path) as writer:
            for r in records:
                writer.append(r)
        return read_diagnostics(path)

    def test_singleton_is_zero(self, tmp_path):
        rs = self.written(tmp_path, [self.rec(0.0, 5.0)])
        assert rs[0].dEdt == 0.0

    def test_pair_one_sided(self, tmp_path):
        rs = self.written(tmp_path, [self.rec(0.0, 1.0), self.rec(0.5, 2.0)])
        assert rs[0].dEdt == pytest.approx(2.0)
        assert rs[1].dEdt == pytest.approx(2.0)

    def test_interior_centered(self, tmp_path):
        rs = self.written(tmp_path, [self.rec(0.0, 0.0), self.rec(1.0, 1.0), self.rec(2.0, 4.0)])
        assert rs[1].dEdt == pytest.approx(2.0)  # (4 - 0) / 2
        assert rs[0].dEdt == pytest.approx(1.0)
        assert rs[2].dEdt == pytest.approx(3.0)


class TestEnergyBalanceResidual:
    def test_needs_three_uniform_records(self):
        g = WaveGrid(8, 1.0)
        ph = physics_for(g)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        r0 = record(u, 0.0, ph)
        with pytest.raises(ValueError):
            energy_balance_residual([r0, r0], ph.mu)
        bad = [record(u, t, ph) for t in (0.0, 0.1, 0.3)]
        with pytest.raises(ValueError, match="uniform"):
            energy_balance_residual(bad, ph.mu)

    def test_stationary_balance(self):
        # constant records: residual reduces to mu V2 + P_damp - P_f
        r = DiagnosticsRecord(t=0.0, E=1.0, V2=2.0, Lbp=3.0, A2=4.0,
                              P_f=5.0, P_damp=1.5, dEdt=math.nan, umax=1.0)
        recs = [DiagnosticsRecord(**{**r.__dict__, "t": t}) for t in (0.0, 1.0, 2.0)]
        t, res = energy_balance_residual(recs, mu=0.5)
        assert res[0] == pytest.approx(0.5 * 2.0 + 1.5 - 5.0)

    def test_shear_decay_residual_small(self):
        # closed-form trajectory: residual bounded by 1e-6 E0 / T at dt = 1e-3
        g = WaveGrid(16, 2 * np.pi)
        ph = physics_for(g, mu=0.1, alpha=0.2, beta=1.0)
        sc = SchemeConfig(dt=1e-3, adaptive=False)
        st = SolverState(0.0, make_initial_condition(g, "shear", amplitude=1.0))
        e0 = h_norm_sq(st.u.coeffs, g)
        T = 1.0
        recs = [record(st.u, st.t, ph)]
        for _ in range(int(T / 1e-3)):
            st = step(st, sc, ph)
            recs.append(record(st.u, st.t, ph))
        _, res = energy_balance_residual(recs, ph.mu)
        assert np.abs(res).max() <= 1e-6 * e0 / T

    def test_residual_richardson(self):
        # halving dt and the record stride cuts the residual by ~2^p
        g = WaveGrid(8, 2 * np.pi)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = physics_for(g, mu=0.05, alpha=0.5, beta=3.0, forcing=f)
        u0 = make_initial_condition(g, "random", seed=7, energy=1.0)

        def max_residual(dt):
            st = SolverState(0.0, u0)
            recs = [record(st.u, st.t, ph)]
            for k in range(int(round(1.0 / dt))):
                st = step(st, SchemeConfig(dt=dt, adaptive=False), ph)
                if st.step_count % 5 == 0:
                    recs.append(record(st.u, st.t, ph))
            _, res = energy_balance_residual(recs, ph.mu)
            return np.abs(res).max()

        m1, m2 = max_residual(0.02), max_residual(0.01)
        assert m1 / m2 == pytest.approx(4.0, rel=0.3)


class TestLog:
    def test_log_observer_collects_and_finalizes(self, tmp_path):
        g = WaveGrid(8, 2 * np.pi)
        ph = physics_for(g)
        sc = SchemeConfig(dt=0.01, adaptive=False)
        path = tmp_path / "d.csv"
        st = SolverState(0.0, make_initial_condition(g, "shear", amplitude=1.0))
        with DiagnosticsWriter(path) as writer:
            integrate(st, 0.1, sc, ph, [Observer(5, lambda s: writer.append(record(s.u, s.t, ph)))])
        recs = read_diagnostics(path)
        assert [round(r.t, 10) for r in recs] == [0.0, 0.05, 0.1]
        assert all(math.isfinite(r.dEdt) for r in recs)
        assert recs[1].dEdt == pytest.approx((recs[2].E - recs[0].E) / (recs[2].t - recs[0].t))
