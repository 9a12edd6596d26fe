"""Steady-state detection, sweeps, separation runs."""

from dataclasses import replace

import numpy as np
import pytest

from dampedns import (
    ForcingField,
    Physics,
    RegimeError,
    SchemeConfig,
    SolverState,
    WaveGrid,
    h_norm_sq,
    make_initial_condition,
)
from dampedns.config import ForcingSpec, InitialSpec, RunConfig, build_grid, build_initial
from dampedns.experiments import (
    DEFAULT_IC_PAIR,
    check_separation,
    check_steady,
    check_sweep,
    detect_steady_state,
    run_convergence_speed_sweep,
    run_initial_condition_independence,
    run_to_steady,
    run_trajectory_separation,
    stride_count,
)


def base_config(**over):
    defaults = dict(
        mu=1.0, alpha=0.2, beta=1.0, n=16, length=12.0,
        forcing=ForcingSpec(kind="cylinder"),
        initial=InitialSpec(kind="zero"),
        scheme=SchemeConfig(dt=0.01, dt_max=0.05, adaptive=True),
    )
    defaults.update(over)
    return RunConfig(**defaults)


@pytest.fixture
def no_steps(monkeypatch):
    """Fail the test if an experiment integrates at all."""
    def integrate(*args, **kwargs):
        raise AssertionError("an experiment stepped before refusing its arguments")
    monkeypatch.setattr("dampedns.experiments.integrate", integrate)


class TestSpecValidation:
    """Each runner checks the arguments it takes before its first step."""

    def test_sweep_needs_axes(self, no_steps):
        with pytest.raises(ValueError, match="non-empty"):
            check_sweep((), (1.0,), stride=0.25, steady_tol=1e-6, max_t=1.0)
        for alphas, betas in (((), (1.0,)), ((0.2,), ())):
            with pytest.raises(ValueError, match="non-empty"):
                run_convergence_speed_sweep(base_config(), alphas, betas,
                                            stride=0.25, steady_tol=1e-6, max_t=1.0)

    def test_separation_needs_positive_deltas(self, no_steps):
        for deltas in ((), (0.0,)):
            with pytest.raises(ValueError):
                check_separation(deltas, stride=0.25, max_t=1.0)
        with pytest.raises(ValueError, match="amplitudes"):
            run_trajectory_separation(base_config(beta=4.0), (), max_t=1.0, stride=0.25)

    def test_stride_within_horizon(self):
        with pytest.raises(ValueError, match="stride <= max_t"):
            check_separation((1e-2,), max_t=0.02, stride=0.25)
        with pytest.raises(ValueError, match="stride <= max_t"):
            check_steady(stride=0.25, steady_tol=1e-6, max_t=0.02)

    def test_separation_horizon_whole_strides(self):
        with pytest.raises(ValueError, match="whole strides"):
            check_separation((1e-2,), max_t=0.5, stride=0.3)
        check_separation((1e-2,), max_t=0.3, stride=0.1)  # 2.9999999999999996 strides
        check_sweep((0.2,), (1.0,), max_t=0.5, stride=0.3, steady_tol=1e-6)

    def test_separation_runner_refuses_partial_stride(self, no_steps):
        # the horizon is checked before the first step: no row past max_t
        with pytest.raises(ValueError, match="whole strides"):
            run_trajectory_separation(base_config(beta=4.0, n=8), (1e-2,), max_t=0.5, stride=0.3)

    def test_one_rule_for_whole_strides(self):
        # within 1e-9 relative of a whole count: that many whole strides,
        # for the separation check and the steady-state loop alike
        assert stride_count(1000.0000005, 1.0) == (1000, True)
        check_separation((1e-2,), max_t=1000.0000005, stride=1.0)
        assert stride_count(0.3, 0.1) == (3, True)
        assert stride_count(0.5, 0.3) == (2, False)
        assert stride_count(1.0, 1.0) == (1, True)

    def test_damping_axes_in_range(self, no_steps):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            check_sweep((0.2, 0.0), (1.0,), stride=0.25, steady_tol=1e-6, max_t=1.0)
        with pytest.raises(ValueError, match="alpha must be > 0"):
            run_convergence_speed_sweep(base_config(), (0.2, 0.0), (1.0,),
                                        stride=0.25, steady_tol=1e-6, max_t=1.0)

    def test_steady_tol_positive(self, no_steps):
        with pytest.raises(ValueError, match="steady_tol"):
            check_steady(stride=0.25, steady_tol=0.0, max_t=1.0)
        with pytest.raises(ValueError, match="steady_tol"):
            run_initial_condition_independence(base_config(), stride=0.25, steady_tol=0.0, max_t=1.0)


class TestDetectSteadyState:
    def test_exact_fixed_point_converges_at_zero(self):
        t = np.linspace(0.0, 9.0, 10)
        ok, t_c = detect_steady_state(t, np.zeros(10), 1e-6)
        assert ok and t_c == 0.0

    def test_first_sustained_window(self):
        t = np.arange(20.0)
        rates = np.ones(20)
        rates[5:] = 1e-9
        ok, t_c = detect_steady_state(t, rates, 1e-6)
        assert ok and t_c == 5.0

    def test_interrupted_window_restarts(self):
        t = np.arange(25.0)
        rates = np.full(25, 1e-9)
        rates[8] = 1.0
        ok, t_c = detect_steady_state(t, rates, 1e-6)
        assert ok and t_c == 9.0

    def test_nonconvergence_is_valid_outcome(self):
        t = np.arange(30.0)
        ok, t_c = detect_steady_state(t, np.ones(30), 1e-6)
        assert not ok and t_c is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            detect_steady_state(np.arange(3.0), np.zeros(4), 1e-6)


class TestRunToSteady:
    def test_shear_decay_reaches_rest(self):
        g = WaveGrid(8, 2 * np.pi)
        ph = Physics(mu=0.5, alpha=0.5, beta=1.0, forcing=ForcingField.zero(g))
        st = SolverState(0.0, make_initial_condition(g, "shear", amplitude=1.0))
        run = run_to_steady(st, SchemeConfig(dt=0.02, adaptive=False), ph,
                            stride=0.5, steady_tol=1e-6, max_t=60.0)
        assert run.converged
        # difference quotient ~ rate * A * exp(-rate t): solve for the tolerance
        rate = 0.5 * g.lambda1 + 0.5
        scale = np.sqrt(h_norm_sq(st.u.coeffs, g))
        t_expect = np.log(rate * scale / 1e-6) / rate
        assert run.t_c == pytest.approx(t_expect, abs=3.0)
        assert h_norm_sq(run.state.u.coeffs, g) < 1e-10

    def test_nonconvergence_reported(self):
        g = WaveGrid(8, 2 * np.pi)
        ph = Physics(mu=0.5, alpha=0.5, beta=1.0, forcing=ForcingField.zero(g))
        st = SolverState(0.0, make_initial_condition(g, "shear", amplitude=1.0))
        run = run_to_steady(st, SchemeConfig(dt=0.02, adaptive=False), ph,
                            stride=0.5, steady_tol=1e-12, max_t=3.0)
        assert not run.converged and run.t_c is None

    def test_last_stride_clipped_to_horizon(self):
        g = WaveGrid(8, 2 * np.pi)
        ph = Physics(mu=0.5, alpha=0.5, beta=1.0, forcing=ForcingField.zero(g))
        st = SolverState(0.0, make_initial_condition(g, "random", seed=3, energy=1.0))
        run = run_to_steady(st, SchemeConfig(dt=0.025, adaptive=False), ph,
                            stride=0.3, steady_tol=1e-12, max_t=0.5)
        assert run.state.t == 0.5
        assert list(run.times) == [0.0, 0.3]

    def test_near_whole_horizon_takes_whole_strides(self):
        # 3 + 2e-9 strides: whole under the separation check's relative rule,
        # so the loop runs 3 strides, not a 4th of 2e-10 time units
        g = WaveGrid(8, 2 * np.pi)
        ph = Physics(mu=0.5, alpha=0.5, beta=1.0, forcing=ForcingField.zero(g))
        st = SolverState(0.0, make_initial_condition(g, "random", seed=3, energy=1.0))
        max_t = 0.1 * (3 + 2e-9)
        check_separation((1e-2,), max_t=max_t, stride=0.1)
        run = run_to_steady(st, SchemeConfig(dt=0.025, adaptive=False), ph,
                            stride=0.1, steady_tol=1e-12, max_t=max_t)
        assert len(run.times) == 3
        assert run.state.t == 3 * 0.1


class TestSteadySweep:
    def test_zero_forcing_rest_state_everywhere(self):
        cfg = base_config(forcing=ForcingSpec(kind="zero"),
                          initial=InitialSpec(kind="shear", amplitude=1.0))
        res = run_convergence_speed_sweep(cfg, (0.2, 0.5), (1.0,),
                                          steady_tol=1e-6, max_t=80.0, stride=0.5)
        assert all(c.converged for c in res.cells)
        assert all(c.final_norm_sq < 1e-9 for c in res.cells)
        # analytic: higher alpha decays faster on every mode
        assert res.cell(0.5, 1.0).t_c <= res.cell(0.2, 1.0).t_c

    def test_sweep_verdicts_and_determinism(self):
        cfg = base_config(forcing=ForcingSpec(kind="zero"),
                          initial=InitialSpec(kind="shear", amplitude=1.0))
        sweep = dict(steady_tol=1e-6, max_t=80.0, stride=0.5)
        a = run_convergence_speed_sweep(cfg, (0.2, 0.5), (1.0,), **sweep)
        b = run_convergence_speed_sweep(cfg, (0.2, 0.5), (1.0,), **sweep)
        assert a.alpha_nonincreasing == {1.0: True}
        assert [c.t_c for c in a.cells] == [c.t_c for c in b.cells]
        assert [c.final_norm_sq for c in a.cells] == [c.final_norm_sq for c in b.cells]

    def test_sweep_table(self):
        cfg = base_config(forcing=ForcingSpec(kind="zero"),
                          initial=InitialSpec(kind="zero"))
        res = run_convergence_speed_sweep(cfg, (0.2,), (1.0,),
                                          steady_tol=1e-6, max_t=10.0, stride=0.5)
        row = res.table()[0]
        assert row["converged"] and row["t_c"] == 0.0
        assert row["snapshot"] is None

    def test_sweep_persists_cell_snapshots(self, tmp_path):
        from dampedns.storage import read_snapshot

        cfg = base_config(forcing=ForcingSpec(kind="zero"),
                          initial=InitialSpec(kind="zero"))
        res = run_convergence_speed_sweep(cfg, (0.2, 0.5), (1.0,),
                                          steady_tol=1e-6, max_t=10.0, stride=0.5,
                                          snapshot_dir=str(tmp_path / "cells"))
        paths = [c.snapshot_path for c in res.cells]
        assert len(set(paths)) == 2  # disjoint files per cell
        for cell in res.cells:
            state, header = read_snapshot(cell.snapshot_path)
            assert header.alpha == cell.alpha
            assert np.array_equal(state.u.coeffs, cell.state.u.coeffs)


class TestICIndependence:
    def test_identical_ics_are_identical(self):
        res = run_initial_condition_independence(
            base_config(), (InitialSpec(kind="zero"), InitialSpec(kind="zero")),
            steady_tol=1e-5, max_t=60.0, stride=0.5,
        )
        assert res.status == "converged"
        assert res.distance <= 1e-12

    def test_default_pair_differs(self):
        cfg = base_config()
        grid = build_grid(cfg)
        a, b = (build_initial(replace(cfg, initial=ic), grid) for ic in DEFAULT_IC_PAIR)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_distinct_ics_reach_same_forced_steady_state(self):
        steady_tol = 1e-6
        res = run_initial_condition_independence(
            base_config(),
            (InitialSpec(kind="zero"), InitialSpec(kind="random", seed=5, energy=1.0)),
            steady_tol=steady_tol, max_t=100.0, stride=0.25,
        )
        assert res.status == "converged"
        assert res.same_steady_state
        assert res.distance <= 10.0 * steady_tol

    def test_unforced_ics_both_reach_rest(self):
        res = run_initial_condition_independence(
            base_config(forcing=ForcingSpec(kind="zero")),
            (InitialSpec(kind="shear", amplitude=1.0), InitialSpec(kind="random", seed=3, energy=1.0)),
            steady_tol=1e-6, max_t=80.0, stride=0.5,
        )
        assert res.status == "converged"
        assert res.same_steady_state

    def test_inconclusive_on_nonconvergence(self):
        res = run_initial_condition_independence(base_config(), steady_tol=1e-12, max_t=2.0, stride=0.5)
        assert res.status == "inconclusive"
        assert res.distance is None


class TestTrajectorySeparation:
    def sep_config(self, mu=0.5, alpha=0.5, beta=4.0):
        return RunConfig(
            mu=mu, alpha=alpha, beta=beta, n=16, length=2 * np.pi,
            forcing=ForcingSpec(kind="cylinder", force=(0.0, 0.5, 0.0)),
            initial=InitialSpec(kind="random", seed=1, energy=1.0),
            scheme=SchemeConfig(dt=0.02, adaptive=False),
        )

    def test_regime_enforced(self):
        with pytest.raises(RegimeError):
            run_trajectory_separation(self.sep_config(beta=2.0), (1e-2,), max_t=1.0, stride=0.25)
        # beta = 3 boundary case 4 alpha mu = 1 is allowed
        run_trajectory_separation(self.sep_config(beta=3.0, mu=0.5, alpha=0.5), (1e-2,),
                                  max_t=0.5, stride=0.25)

    def test_initial_distance_is_delta(self):
        res = run_trajectory_separation(self.sep_config(), (1e-2, 1e-3), max_t=0.5, stride=0.25)
        for run in res.runs:
            assert run.distances[0] == pytest.approx(run.delta, rel=1e-12)

    def test_ratio_uniform_across_deltas(self):
        res = run_trajectory_separation(self.sep_config(), (1e-2, 1e-3, 1e-4), max_t=2.0, stride=0.25)
        assert res.uniform_in_delta
        assert res.ratio_spread < 2.0
        for run in res.runs:
            assert np.all(np.isfinite(run.distances))

    def test_distance_continuity_no_jumps(self):
        res = run_trajectory_separation(self.sep_config(), (1e-2,), max_t=2.0, stride=0.25)
        d = res.runs[0].distances
        jumps = np.abs(np.diff(d))
        # perturbation field speed is O(1): stride bounds the step-to-step change
        assert jumps.max() <= 2.0 * 0.25 * max(1.0, d.max())
