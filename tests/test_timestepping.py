"""Integrating-factor schemes, adaptivity, the integration driver."""

from dataclasses import replace

import numpy as np
import pytest

from dampedns import (
    BlowUpError,
    ForcingSpec,
    Observer,
    Physics,
    SchemeConfig,
    SolverError,
    SolverState,
    SpectralVelocity,
    WaveGrid,
    integrate,
    make_initial_condition,
    step,
)
from dampedns.config import build_grid, build_physics, build_state, load_preset
from dampedns.fields import h_inner, h_norm_sq
from dampedns.operators import nonviscous_rhs
from dampedns.timestepping import _cfl_dt

from invariants import assert_invariants


def shear_setup(n=16, length=2 * np.pi, mu=0.1, alpha=0.2, amp=1.0):
    g = WaveGrid(n, length)
    u = make_initial_condition(g, "shear", amplitude=amp)
    ph = Physics(mu=mu, alpha=alpha, beta=1.0, forcing=ForcingSpec().build(g))
    return g, u, ph


class TestConfigValidation:
    def test_scheme_ranges(self):
        with pytest.raises(ValueError):
            SchemeConfig(method="euler")
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, dt_min=1e-2)
        with pytest.raises(ValueError):
            SchemeConfig(cfl_target=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(cfl_target=1.5)
        with pytest.raises(ValueError, match="if-rk2"):
            SchemeConfig(method="if-rk4")  # IF-RK2 is the only scheme

    def test_physics_ranges(self):
        g = WaveGrid(8, 1.0)
        f = ForcingSpec().build(g)
        with pytest.raises(ValueError):
            Physics(mu=0.0, alpha=1.0, beta=1.0, forcing=f)
        with pytest.raises(ValueError):
            Physics(mu=1.0, alpha=0.0, beta=1.0, forcing=f)
        with pytest.raises(ValueError):
            Physics(mu=1.0, alpha=1.0, beta=0.5, forcing=f)


class TestExplicitRhs:
    def test_zero_field_zero_forcing(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        ph = Physics(mu=0.1, alpha=0.2, beta=1.0, forcing=ForcingSpec().build(g))
        rhs, _ = nonviscous_rhs(u.coeffs, g, ph.alpha, ph.beta, ph.forcing.coeffs)
        assert np.abs(rhs).max() == 0.0

    def test_shear_linear_damping_is_minus_alpha_u(self):
        g, u, ph = shear_setup(alpha=0.35)
        rhs, _ = nonviscous_rhs(u.coeffs, g, ph.alpha, ph.beta, ph.forcing.coeffs)
        assert np.abs(rhs + 0.35 * u.coeffs).max() <= 1e-14

    def test_power_budget(self):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=0, energy=1.0)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = Physics(mu=0.05, alpha=0.5, beta=3.0, forcing=f)
        rhs, _ = nonviscous_rhs(u.coeffs, g, ph.alpha, ph.beta, f.coeffs)
        phys = g.to_physical(u.coeffs)
        lbp = g.dx ** 3 * float(((phys ** 2).sum(0) ** 2).sum())
        expected = -ph.alpha * lbp + h_inner(f.coeffs, u.coeffs, g)
        assert h_inner(rhs, u.coeffs, g) == pytest.approx(expected, rel=1e-8)


class TestStep:
    def test_rest_state_unchanged(self):
        g = WaveGrid(8, 1.0)
        u = make_initial_condition(g, "zero")
        ph = Physics(mu=0.1, alpha=0.2, beta=1.0, forcing=ForcingSpec().build(g))
        st = step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), ph)
        assert st.t == pytest.approx(0.01)
        assert st.step_count == 1
        assert np.abs(st.u.coeffs).max() == 0.0

    @pytest.mark.parametrize("method,order", [("if-rk2", 2)])
    def test_shear_single_step_scalar_ode(self, method, order):
        # On the shear mode the system reduces to c' = -(mu k^2 + alpha) c with
        # the viscous part exact, so one step errs only in the damping factor.
        g, u, ph = shear_setup(mu=0.1, alpha=0.2)
        dt = 0.05
        st = step(SolverState(0.0, u), SchemeConfig(method=method, dt=dt, adaptive=False), ph)
        exact = np.exp(-(0.1 * g.lambda1 + 0.2) * dt)
        got = st.u.coeffs[0, 0, 1, 0] / u.coeffs[0, 0, 1, 0]
        assert abs(got.real - exact) <= 2.0 * (0.2 * dt) ** (order + 1)
        assert abs(got.imag) <= 1e-15

    @pytest.mark.parametrize("method,expect", [("if-rk2", 4.0)])
    def test_richardson_one_step_order(self, method, expect):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=4, energy=1.0)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = Physics(mu=0.05, alpha=0.5, beta=3.0, forcing=f)
        h = 0.04

        def run(nsteps):
            sc = SchemeConfig(method=method, dt=h / nsteps, dt_max=h, adaptive=False)
            st = SolverState(0.0, u)
            for _ in range(nsteps):
                st = step(st, sc, ph)
            return st.u.coeffs

        ref = run(8)
        e1 = np.abs(run(1) - ref).max()
        e2 = np.abs(run(2) - ref).max()
        assert e1 / e2 == pytest.approx(expect, rel=0.35)

    @pytest.mark.parametrize("method", ["if-rk2"])
    def test_invariants_hold_after_every_step(self, method):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=5, energy=1.0)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = Physics(mu=0.1, alpha=0.5, beta=3.0, forcing=f)
        sc = SchemeConfig(method=method, dt=0.02, adaptive=False)
        st = SolverState(0.0, u)
        for _ in range(10):
            st = step(st, sc, ph)
            assert_invariants(st.u)

    def test_discrete_energy_inequality_unforced(self):
        # with f = 0 any energy increase is a scheme artifact of size
        # O(dt^(p+1)) per step
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=6, energy=1.0)
        ph = Physics(mu=1e-6, alpha=1e-8, beta=1.0, forcing=ForcingSpec().build(g))
        for dt in (0.02, 0.01):
            st = SolverState(0.0, u)
            e_prev = h_norm_sq(st.u.coeffs, g)
            for _ in range(10):
                st = step(st, SchemeConfig(dt=dt, adaptive=False), ph)
                e_new = h_norm_sq(st.u.coeffs, g)
                assert e_new <= e_prev * (1.0 + 50.0 * dt ** 3)
                e_prev = e_new

    def test_blowup_guard(self):
        g, u, ph = shear_setup()
        st = SolverState(0.0, u)
        huge = SpectralVelocity(g, u.coeffs * 1e16)
        with pytest.raises(BlowUpError) as err:
            step(SolverState(0.0, huge), SchemeConfig(dt=1e-3, adaptive=False), ph)
        assert err.value.t > 0.0


class TestAdaptDt:
    """The dt an adaptive step takes, read back from the step itself."""

    def make(self, n=16, length=2 * np.pi):
        g = WaveGrid(n, length)
        return g, Physics(mu=0.1, alpha=0.5, beta=3.0, forcing=ForcingSpec().build(g))

    def test_rest_state_gives_dt_max(self):
        g, ph = self.make()
        st = SolverState(0.0, make_initial_condition(g, "zero"))
        sc = SchemeConfig(dt=1e-3, dt_max=0.7, adaptive=True)
        assert step(st, sc, ph).last_dt == 0.7

    def test_underflowed_damping_stiffness_gives_dt_max(self):
        # alpha * 1e-110 ** 3 underflows to 0.0: no damping limit, not a division by zero
        g = WaveGrid(8, 2 * np.pi)
        ph = Physics(mu=1.0, alpha=0.2, beta=4.0, forcing=ForcingSpec().build(g))
        sc = SchemeConfig(dt=1e-3, dt_max=0.1, adaptive=True)
        assert _cfl_dt(1e-110, 0.0, g, sc, ph) == 0.1

    def test_damping_guard_binds(self):
        # max|u| = 1, alpha = 0.5, beta = 3: damping cap is cfl / 0.5
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "shear", amplitude=1.0)
        ph = Physics(mu=0.1, alpha=0.5, beta=3.0, forcing=ForcingSpec().build(g))
        sc = SchemeConfig(dt=1e-3, dt_max=1e3, dt_min=1e-12, cfl_target=0.4, adaptive=True)
        dt = step(SolverState(0.0, u), sc, ph).last_dt
        assert dt <= 0.4 / 0.5 + 1e-12

    def test_doubling_n_halves_advective_bound(self):
        sc = SchemeConfig(dt=1e-6, dt_min=1e-12, dt_max=1e6, cfl_target=0.4, adaptive=True)
        dts = []
        for n in (16, 32):
            g = WaveGrid(n, 2 * np.pi)
            u = make_initial_condition(g, "shear", amplitude=100.0)  # advective limit binds
            ph = Physics(mu=0.1, alpha=1e-6, beta=1.0, forcing=ForcingSpec().build(g))
            dts.append(step(SolverState(0.0, u), sc, ph).last_dt)
        assert dts[0] / dts[1] == pytest.approx(2.0, rel=1e-10)

    def test_nonfinite_velocity_signals(self):
        g, ph = self.make()
        u = make_initial_condition(g, "shear", amplitude=1.0)
        u.coeffs[0, 0, 1, 0] = np.nan
        sc = SchemeConfig(adaptive=True)
        with pytest.raises(SolverError):
            step(SolverState(0.0, u), sc, ph)


class TestIntegrate:
    def test_zero_span_fires_observers_once(self):
        g, u, ph = shear_setup()
        seen = []
        obs = Observer(5, lambda st: seen.append(st.t))
        out = integrate(SolverState(1.5, u), 1.5, SchemeConfig(dt=0.01, adaptive=False), ph, [obs])
        assert out.t == 1.5
        assert seen == [1.5]

    def test_backward_target_rejected(self):
        g, u, ph = shear_setup()
        with pytest.raises(ValueError):
            integrate(SolverState(1.0, u), 0.5, SchemeConfig(), ph)

    def test_shear_decay_matches_exact_energy(self):
        g, u, ph = shear_setup(mu=0.1, alpha=0.2)
        sc = SchemeConfig(dt=1e-3, adaptive=False)
        e0 = h_norm_sq(u.coeffs, g)
        out = integrate(SolverState(0.0, u), 1.0, sc, ph)
        exact = e0 * np.exp(-2.0 * (0.1 * g.lambda1 + 0.2) * 1.0)
        assert h_norm_sq(out.u.coeffs, g) == pytest.approx(exact, rel=1e-6)

    def test_observer_stride_and_final_capture(self):
        g, u, ph = shear_setup()
        counts = []
        obs = Observer(4, lambda st: counts.append(st.step_count))
        integrate(SolverState(0.0, u), 0.01 * 10, SchemeConfig(dt=0.01, adaptive=False), ph, [obs])
        assert counts[0] == 0
        assert counts[-1] == 10
        assert counts == [0, 4, 8, 10]

    def test_determinism_bitwise(self):
        g = WaveGrid(16, 2 * np.pi)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = Physics(mu=0.1, alpha=0.5, beta=3.0, forcing=f)
        sc = SchemeConfig(dt=0.01, dt_max=0.02, adaptive=True)

        def run():
            u = make_initial_condition(g, "random", seed=9, energy=1.0)
            return integrate(SolverState(0.0, u), 0.5, sc, ph).u.coeffs

        assert np.array_equal(run(), run())

    def test_lands_exactly_on_target(self):
        g, u, ph = shear_setup()
        out = integrate(SolverState(0.0, u), 0.123, SchemeConfig(dt=0.01, adaptive=False), ph)
        assert out.t == pytest.approx(0.123, abs=1e-12)

    def test_full_steps_end_exactly_on_target(self):
        # 150 additions of 0.05 give 7.499999999999981; the run must still end at 7.5
        g, u, ph = shear_setup(n=8)
        seen = []
        out = integrate(SolverState(0.0, u), 7.5, SchemeConfig(dt=0.05, adaptive=False), ph,
                        [Observer(50, lambda st: seen.append(st.t))])
        assert out.step_count == 150
        assert out.t == 7.5
        assert seen[-1] == 7.5


def cylinder_config(n, dt_max=None):
    cfg = load_preset("cylinder-a05-b2")
    scheme = cfg.scheme if dt_max is None else replace(cfg.scheme, dt_max=dt_max)
    return replace(cfg, n=n, scheme=scheme)


@pytest.fixture(scope="module")
def cylinder_run():
    """Every state of an adaptive cylinder-a05-b2 run at n = 16. dt_max is
    raised so the CFL constraint, not the clamp, sets most steps."""
    cfg = cylinder_config(16, dt_max=0.5)
    grid = build_grid(cfg)
    physics = build_physics(cfg, grid)
    states = []
    integrate(build_state(cfg, grid), 5.0, cfg.scheme, physics, [Observer(1, states.append)])
    return cfg, physics, states, 5.0


class TestStageOneDt:
    def test_step_dt_is_cfl_dt_of_whole_grid_speed_bitwise(self, cylinder_run):
        """The in-slab peak speed of the first stage against max|u| of one
        whole-grid inverse transform."""
        cfg, physics, states, until = cylinder_run

        def cfl_dt(st):
            v = st.u.grid.to_physical(st.u.coeffs)
            speed = float(np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2).max())
            return _cfl_dt(speed, st.t, st.u.grid, cfg.scheme, physics)

        pairs = list(zip(states, states[1:]))
        assert [b.step_count for _, b in pairs] == list(range(1, len(states)))
        for before, after in pairs[:-1]:
            assert after.last_dt == cfl_dt(before)
        before, last = pairs[-1]
        assert last.last_dt == min(cfl_dt(before), until - before.t)
        assert last.t == until
        cfl_bound = sum(after.last_dt < cfg.scheme.dt_max for _, after in pairs[:-1])
        assert cfl_bound >= len(pairs) // 2

    def test_views_sum_to_kernel_along_run(self, cylinder_run):
        """On the run's states the kernel splits into its convective term (alpha
        = 0, zero forcing), its damping term (the change when the damping is
        switched on) and the forcing, with the power of each as the energy
        estimates use it."""
        cfg, physics, states, _ = cylinder_run
        al, be, f = physics.alpha, physics.beta, physics.forcing.coeffs
        zero = np.zeros_like(f)
        for st in states[1:]:
            c, g = st.u.coeffs, st.u.grid
            fused, _ = nonviscous_rhs(c, g, al, be, f)
            conv = nonviscous_rhs(c, g, 0.0, 1.0, zero)[0]
            damp = nonviscous_rhs(c, g, al, be, zero)[0] - conv
            parts = conv + damp + f
            assert np.abs(fused - parts).max() <= 1e-12 * np.abs(parts).max()
            assert abs(h_inner(conv, c, g)) <= 1e-10 * np.sqrt(h_norm_sq(conv, g) * h_norm_sq(c, g))
            v = g.to_physical(c)
            lbp = g.dx ** 3 * float(((v ** 2).sum(axis=0) ** ((be + 1) / 2)).sum())
            assert h_inner(damp, c, g) == pytest.approx(-al * lbp, rel=1e-8)


class TestTransformCount:
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_if_rk2_step_components(self, monkeypatch, adaptive):
        g = WaveGrid(16, 2 * np.pi)
        u = make_initial_condition(g, "random", seed=7, energy=1.0)
        ph = Physics(mu=0.1, alpha=0.5, beta=3.0, forcing=ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g))
        counts = {"inverse": 0, "forward": 0}

        def counting(name, kind):
            orig = getattr(WaveGrid, name)

            def wrapped(self, *args, **kwargs):
                res = orig(self, *args, **kwargs)
                counts[kind] += len(res)  # components
                return res
            return wrapped

        # every transform passes through one of the two pruned halves: the
        # inverse returns its workspace, which holds the components it
        # transforms (the RHS forms the curl inside), the forward its block
        for name, kind in [("_inverse_lines", "inverse"), ("_forward_lines", "forward")]:
            monkeypatch.setattr(WaveGrid, name, counting(name, kind))
        step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=adaptive), ph)
        assert counts == {"inverse": 12, "forward": 6}
