"""Energy-estimate checks over recorded trajectories."""

import math

import numpy as np
import pytest

from dampedns import (
    BoundReport,
    ForcingField,
    NotApplicable,
    Physics,
    RegimeError,
    SchemeConfig,
    SolverState,
    WaveGrid,
    check_absorbing_ball,
    check_damping_positivity,
    check_decay_bound,
    check_integral_bound,
    check_norm_boundedness,
    in_regularity_regime,
    in_uniqueness_regime,
    integrate,
    make_initial_condition,
    monotone_envelope_max_excess,
    record,
)
from dampedns.bounds import REGIME_BY_CHECK
from dampedns.diagnostics import DiagnosticsRecord


def synth(t, e, v2=0.0, lbp=0.0, a2=0.0, p_f=0.0, p_damp=0.0):
    return DiagnosticsRecord(t=t, E=e, V2=v2, Lbp=lbp, A2=a2,
                             P_f=p_f, P_damp=p_damp, dEdt=0.0, umax=0.0)


def shear_decay_records(mu=0.1, alpha=0.2, e0=4.0, lam1=1.0, T=10.0, n=101, beta=1.0):
    """Closed-form trajectory of the linearly damped shear mode."""
    rate = 2.0 * (mu * lam1 + alpha)
    recs = []
    for t in np.linspace(0.0, T, n):
        e = e0 * math.exp(-rate * t)
        recs.append(synth(t, e, v2=lam1 * e, lbp=e, a2=lam1 ** 2 * e, p_damp=alpha * e))
    return recs


class TestRegimes:
    def test_uniqueness_regime(self):
        assert in_uniqueness_regime(0.5, 0.5, 4.0)
        assert in_uniqueness_regime(1.0, 1.0, 3.5)
        assert in_uniqueness_regime(0.5, 0.5, 3.0)      # 4 a m = 1 boundary included
        assert not in_uniqueness_regime(0.4, 0.5, 3.0)  # 4 a m = 0.8
        assert not in_uniqueness_regime(10.0, 10.0, 2.0)

    def test_regularity_regime(self):
        assert in_regularity_regime(0.5, 0.5, 4.0)
        assert not in_regularity_regime(0.5, 0.5, 5.0)  # beta < 5 strict
        assert not in_regularity_regime(0.5, 0.5, 3.0)  # needs strict > 1
        assert in_regularity_regime(0.5, 0.6, 3.0)      # 4 a m = 1.2
        assert not in_regularity_regime(1.0, 1.0, 2.0)

    def test_each_check_documents_its_variant(self):
        assert "strict" not in REGIME_BY_CHECK["trajectory_separation"]
        assert ">=" in REGIME_BY_CHECK["trajectory_separation"]
        assert ">" in REGIME_BY_CHECK["norm_boundedness"]


class TestReportInvariant:
    def test_pass_iff_min_margin_within_tolerance(self):
        recs = [synth(t, e) for t, e in ((0.0, 1.0), (1.0, 2.0))]
        rep = check_decay_bound(recs, 1.0, 1.0, 0.0, dt=1e-3, tolerance=0.5)
        # bound at t=1 is e^{-1}, observed 2.0: margin < -0.5 -> fail
        assert not rep.passed
        rep2 = check_decay_bound(recs, 1.0, 1.0, 0.0, dt=1e-3, tolerance=2.0)
        assert rep2.passed
        assert rep2.min_margin == pytest.approx(math.exp(-1.0) - 2.0)

    def test_reports_reproducible(self):
        recs = shear_decay_records()
        a = check_decay_bound(recs, 0.1, 1.0, 0.0, dt=1e-3)
        b = check_decay_bound(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert np.array_equal(a.margin, b.margin)
        assert a.row() == b.row()

    def test_row_interface(self):
        rep = check_damping_positivity(shear_decay_records())
        row = rep.row()
        assert set(row) == {"bound_id", "pass", "min_margin", "tolerance"}


class TestDecayBound:
    def test_shear_decay_strict_margin(self):
        # true rate 2(mu lam1 + alpha) exceeds the bound rate mu lam1
        recs = shear_decay_records(mu=0.1, alpha=0.2, e0=4.0)
        rep = check_decay_bound(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert rep.passed
        assert rep.margin[1:].min() > 0.0
        assert rep.margin[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_initial_data_reduces_to_floor(self):
        recs = [synth(t, 0.0 if t == 0.0 else 0.5) for t in np.linspace(0, 5, 6)]
        rep = check_decay_bound(recs, 1.0, 1.0, 1.0, dt=1e-3)
        assert rep.passed  # E = 0.5 <= floor = 1.0
        assert rep.min_margin == pytest.approx(0.5)

    def test_floor_margin_at_t0(self):
        recs = [synth(0.0, 1.0)]
        rep = check_decay_bound(recs, 2.0, 1.5, 9.0, dt=1e-3)
        assert rep.min_margin == pytest.approx(9.0 / (2.0 ** 2 * 1.5 ** 2))

    def test_violation_detected(self):
        recs = shear_decay_records()
        recs[5].E = 100.0
        rep = check_decay_bound(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert not rep.passed


class TestIntegralBound:
    def test_degenerate_interval(self):
        recs = shear_decay_records()
        rep = check_integral_bound(recs, 0.0, 0.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3)
        assert rep.passed
        assert rep.min_margin > 0.0

    def test_shear_closed_form_strict(self):
        mu, alpha, e0, lam1 = 0.1, 0.2, 4.0, 1.0
        recs = shear_decay_records(mu, alpha, e0, lam1, T=10.0, n=2001)
        rep = check_integral_bound(recs, 0.0, 10.0, mu, alpha, lam1, 0.0, dt=1e-3)
        assert rep.passed
        # analytic: lhs = (mu lam1 + 2 alpha) e0 (1 - exp(-rate T)) / rate <= e0
        rate = 2.0 * (mu * lam1 + alpha)
        lhs = (mu * lam1 + 2 * alpha) * e0 * (1 - math.exp(-rate * 10.0)) / rate
        assert rep.details["lhs"] == pytest.approx(lhs, rel=1e-6)
        assert rep.details["rhs"] == pytest.approx(e0)

    def test_subinterval(self):
        recs = shear_decay_records(T=10.0, n=101)
        rep = check_integral_bound(recs, 5.0, 10.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3)
        assert rep.passed

    def test_coverage_and_alignment_errors(self):
        recs = shear_decay_records(T=10.0, n=11)
        with pytest.raises(ValueError, match="covered"):
            check_integral_bound(recs, 0.0, 11.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3)
        with pytest.raises(ValueError, match="coincide"):
            check_integral_bound(recs, 0.5, 10.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3)
        with pytest.raises(ValueError):
            check_integral_bound(recs, 5.0, 1.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3)

    def test_violation_detected(self):
        recs = shear_decay_records()
        for r in recs:
            r.V2 = 1e6
        rep = check_integral_bound(recs, 0.0, 10.0, 0.1, 0.2, 1.0, 0.0, dt=1e-3, tolerance=0.0)
        assert not rep.passed


class TestAbsorbingBall:
    def test_already_inside_enters_at_zero(self):
        recs = [synth(t, 0.5) for t in np.linspace(0, 30, 31)]
        rep = check_absorbing_ball(recs, 1.0, 1.0, 0.0, dt=1e-3)
        assert rep.passed
        assert rep.details["t_star"] == 0.0

    def test_shear_decay_entry_before_prediction(self):
        mu, lam1, e0 = 0.1, 1.0, 100.0
        recs = shear_decay_records(mu=mu, alpha=0.2, e0=e0, T=60.0, n=601)
        rep = check_absorbing_ball(recs, mu, lam1, 0.0, dt=1e-3)
        assert rep.passed
        t_star = rep.details["t_star"]
        # actual decay rate 2(mu lam1 + alpha) beats the bound rate mu lam1
        assert t_star <= math.log(e0) / (2 * (mu * lam1 + 0.2)) + 0.2
        assert t_star <= rep.details["t_pred"]

    def test_never_entering_fails(self):
        recs = [synth(t, 50.0) for t in np.linspace(0, 80, 81)]
        rep = check_absorbing_ball(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert not rep.passed
        assert rep.details["entered"] is False

    def test_reexit_beyond_tolerance_fails(self):
        recs = shear_decay_records(e0=100.0, T=60.0, n=601)
        recs[-1].E = 5.0  # jumps back out of the unit ball
        rep = check_absorbing_ball(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert not rep.passed

    def test_short_run_precondition(self):
        recs = shear_decay_records(e0=100.0, T=1.0, n=11)
        with pytest.raises(NotApplicable, match="too short"):
            check_absorbing_ball(recs, 0.1, 1.0, 0.0, dt=1e-3)


class TestNormBoundedness:
    def test_regime_precondition(self):
        recs = shear_decay_records()
        assert issubclass(RegimeError, NotApplicable)
        with pytest.raises(RegimeError):
            check_norm_boundedness(recs, 1.0, mu=0.5, alpha=0.5, beta=2.0)
        with pytest.raises(RegimeError):
            # 4 alpha mu = 1 exactly: the regularity variant demands strict
            check_norm_boundedness(recs, 1.0, mu=0.5, alpha=0.5, beta=3.0)

    def test_decaying_tail_passes(self):
        recs = shear_decay_records(T=20.0, n=201)
        rep = check_norm_boundedness(recs, 2.0, mu=0.5, alpha=0.6, beta=3.0)
        assert rep.passed
        assert rep.details["suprema"]["V2"] > 0.0

    def test_growing_tail_fails(self):
        recs = [synth(t, 1.0, v2=math.exp(0.5 * t), lbp=1.0, a2=1.0)
                for t in np.linspace(0, 20, 201)]
        rep = check_norm_boundedness(recs, 2.0, mu=0.5, alpha=0.6, beta=3.0)
        assert not rep.passed

    def test_needs_enough_tail(self):
        recs = shear_decay_records(T=10.0, n=11)
        with pytest.raises(NotApplicable, match="burn_in"):
            check_norm_boundedness(recs, 9.9, mu=0.5, alpha=0.6, beta=3.0)


class TestDampingPositivityAndEnvelope:
    def test_damping_positivity_exact(self):
        recs = shear_decay_records()
        rep = check_damping_positivity(recs)
        assert rep.passed
        assert rep.tolerance == 0.0
        recs[3].P_damp = -1e-300
        assert not check_damping_positivity(recs).passed

    def test_monotone_envelope_on_decay(self):
        recs = shear_decay_records()
        rep = monotone_envelope_max_excess(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert rep.passed
        assert -rep.min_margin <= 0.0

    def test_envelope_jump_detected(self):
        recs = shear_decay_records()
        recs[7].E = recs[6].E + 1.0
        rep = monotone_envelope_max_excess(recs, 0.1, 1.0, 0.0, dt=1e-3)
        assert not rep.passed
        assert -rep.min_margin > 0.0

    def test_envelope_needs_a_pair(self):
        recs = shear_decay_records()[:1]
        with pytest.raises(NotApplicable, match="2 records"):
            monotone_envelope_max_excess(recs, 0.1, 1.0, 0.0, dt=1e-3)


class TestOnRealTrajectories:
    def test_forced_run_all_checks(self):
        g = WaveGrid(16, 2 * np.pi)
        f = ForcingField.cylinder(g, force=(0.0, 0.5, 0.0))
        ph = Physics(mu=0.5, alpha=0.6, beta=3.0, forcing=f)
        sc = SchemeConfig(dt=0.01, adaptive=False)
        st = SolverState(0.0, make_initial_condition(g, "random", seed=12, energy=10.0))
        recs = [record(st.u, st.t, ph)]
        for k in range(1, 81):
            st = integrate(st, 0.25 * k, sc, ph)
            recs.append(record(st.u, st.t, ph))
        lam1, f2 = g.lambda1, f.norm_sq

        assert check_decay_bound(recs, ph.mu, lam1, f2, dt=sc.dt).passed
        assert check_integral_bound(recs, 0.0, 20.0, ph.mu, ph.alpha, lam1, f2, dt=sc.dt).passed
        assert check_integral_bound(recs, 10.0, 20.0, ph.mu, ph.alpha, lam1, f2, dt=sc.dt).passed
        assert check_absorbing_ball(recs, ph.mu, lam1, f2, dt=sc.dt).passed
        assert check_norm_boundedness(recs, 5.0, ph.mu, ph.alpha, ph.beta).passed
        assert check_damping_positivity(recs).passed
        assert monotone_envelope_max_excess(recs, ph.mu, lam1, f2, dt=sc.dt).passed
