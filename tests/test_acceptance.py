"""Acceptance suite: one test per criterion, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The slower criteria share session-scoped runs; the full module finishes in a
few minutes on a laptop-class machine.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from dampedns import (
    ForcingSpec,
    Physics,
    SchemeConfig,
    SolverState,
    WaveGrid,
    check_absorbing_ball,
    check_decay_bound,
    check_integral_bound,
    integrate,
    make_initial_condition,
    parse_config,
    record,
    step,
)
from dampedns.bounds import check_damping_positivity
from dampedns.config import ConfigError, InitialSpec, load_preset, build_grid, build_physics, build_state
from dampedns.diagnostics import energy_balance_residual
from dampedns.experiments import (
    run_convergence_speed_sweep,
    run_to_steady,
    run_trajectory_separation,
)
from dampedns.fields import divergence_max, h_inner, h_norm_sq
from dampedns.operators import nonviscous_rhs, project_coeffs
from dampedns.storage import read_snapshot, write_snapshot
from dampedns.timestepping import Observer


@contextmanager
def verdict(num, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


# ----------------------------------------------------------------------
# shared runs for the decay / integral / absorbing criteria
# ----------------------------------------------------------------------

BOUND_MU, BOUND_ALPHA, BOUND_BETA = 0.5, 0.5, 3.0
BOUND_T, BOUND_RECORDS = 20.0, 100
E0_CYCLE = (1.0, 10.0, 100.0, 1.0, 10.0)


def uniform_record_run(grid, physics, scheme, u0, t_end, n_chunks):
    """Adaptive integration with records at exactly uniform times."""
    state = SolverState(0.0, u0)
    recs = [record(state.u, state.t, physics)]
    for k in range(1, n_chunks + 1):
        state = integrate(state, t_end * k / n_chunks, scheme, physics)
        recs.append(record(state.u, state.t, physics))
    return state, recs


@pytest.fixture(scope="session")
def bound_runs():
    """Ten trajectories: five seeded initial energies, with and without forcing."""
    grid = WaveGrid(32, 2 * np.pi)
    scheme = SchemeConfig(dt=0.01, dt_max=0.02, adaptive=True)
    runs = []
    for forced in (False, True):
        forcing = (ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(grid)
                   if forced else ForcingSpec().build(grid))
        physics = Physics(mu=BOUND_MU, alpha=BOUND_ALPHA, beta=BOUND_BETA, forcing=forcing)
        for seed, e0 in enumerate(E0_CYCLE):
            u0 = make_initial_condition(grid, "random", seed=seed, energy=e0)
            _, recs = uniform_record_run(grid, physics, scheme, u0, BOUND_T, BOUND_RECORDS)
            runs.append({
                "seed": seed, "e0": e0, "forced": forced, "records": recs,
                "physics": physics, "grid": grid, "scheme": scheme,
            })
    return runs


@pytest.fixture(scope="session")
def steady_sweep():
    base = load_preset("cylinder-a02-b1")
    return base, run_convergence_speed_sweep(
        base, (0.2, 0.5), (1.0, 2.0, 4.0), steady_tol=1e-6, max_t=200.0, stride=0.25,
    )


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_analytic_decay_oracle():
    """Shear mode, beta = 1, f = 0: exact scalar ODE, 1e-6 relative, < 10 s."""
    with verdict(1, "analytic decay oracle"):
        cfg = load_preset("decay-shear-b1")
        assert (cfg.mu, cfg.alpha, cfg.beta) == (0.1, 0.2, 1.0)
        assert cfg.n == 16 and cfg.scheme.dt == 1e-3 and cfg.t_end == 5.0
        grid = build_grid(cfg)
        physics = build_physics(cfg, grid)
        state = build_state(cfg, grid)
        e0 = h_norm_sq(state.u.coeffs, grid)
        t0 = time.perf_counter()
        state = integrate(state, cfg.t_end, cfg.scheme, physics)
        elapsed = time.perf_counter() - t0
        exact = e0 * math.exp(-2.0 * (cfg.mu * grid.lambda1 + cfg.alpha) * cfg.t_end)
        rel = abs(h_norm_sq(state.u.coeffs, grid) - exact) / exact
        print(f"  |u(T)|^2 rel err = {rel:.2e}, runtime = {elapsed:.1f} s")
        assert rel <= 1e-6
        assert elapsed < 10.0


def test_criterion_2_energy_identity_convergence():
    """Power-budget residual drops by >= 3.5 when dt is halved; < 5 min."""
    with verdict(2, "energy identity residual order"):
        t0 = time.perf_counter()
        grid = WaveGrid(32, 12.0)
        forcing = ForcingSpec("cylinder").build(grid)
        physics = Physics(mu=0.05, alpha=0.5, beta=3.0, forcing=forcing)
        u0 = make_initial_condition(grid, "random", seed=11, energy=1.0)

        def max_residual(dt, stride=5, t_end=2.0):
            scheme = SchemeConfig(dt=dt, adaptive=False)
            st = SolverState(0.0, u0)
            recs = [record(st.u, st.t, physics)]
            for _ in range(int(round(t_end / dt))):
                st = step(st, scheme, physics)
                if st.step_count % stride == 0:
                    recs.append(record(st.u, st.t, physics))
            _, res = energy_balance_residual(recs, physics.mu)
            return float(np.abs(res).max())

        m_coarse = max_residual(0.01)
        m_fine = max_residual(0.005)
        elapsed = time.perf_counter() - t0
        ratio = m_coarse / m_fine
        print(f"  max|r|: {m_coarse:.3e} -> {m_fine:.3e}, ratio = {ratio:.2f}, "
              f"runtime = {elapsed:.0f} s")
        assert ratio >= 3.5
        assert elapsed < 300.0


def test_criterion_3_decay_bound(bound_runs):
    """Pointwise energy decay bound at tolerance 1e-6 E0 on all ten runs."""
    with verdict(3, "decay bound"):
        for run in bound_runs:
            recs = run["records"]
            physics = run["physics"]
            rep = check_decay_bound(
                recs, physics.mu, run["grid"].lambda1,
                physics.forcing.norm_sq, dt=run["scheme"].dt_max,
                tolerance=1e-6 * recs[0].E,
            )
            tag = f"seed={run['seed']} E0={run['e0']} forced={run['forced']}"
            print(f"  {tag}: min margin = {rep.min_margin:.3e}")
            assert rep.passed, tag


def test_criterion_4_integral_bound(bound_runs):
    """Time-integrated dissipation bound over [0, T] and [T/2, T]."""
    with verdict(4, "integral bound"):
        for run in bound_runs:
            recs = run["records"]
            physics = run["physics"]
            lam1 = run["grid"].lambda1
            f2 = physics.forcing.norm_sq
            for (s, t) in ((0.0, BOUND_T), (BOUND_T / 2, BOUND_T)):
                rep = check_integral_bound(
                    recs, s, t, physics.mu, physics.alpha, lam1, f2,
                    dt=run["scheme"].dt_max,
                )
                assert rep.passed, f"seed={run['seed']} window=({s},{t})"
        print("  all 20 interval checks passed")


def test_criterion_5_absorbing_ball(bound_runs):
    """E0 = 100 forced run enters the ball by the predicted time, stays in."""
    with verdict(5, "absorbing ball"):
        run = next(r for r in bound_runs if r["forced"] and r["e0"] == 100.0)
        physics = run["physics"]
        rep = check_absorbing_ball(
            run["records"], physics.mu, run["grid"].lambda1,
            physics.forcing.norm_sq, dt=run["scheme"].dt_max,
        )
        d = rep.details
        print(f"  radius^2 = {d['radius_sq']:.3f}, entered at t* = {d['t_star']:.2f} "
              f"(bound {d['t_pred']:.2f} + 1)")
        assert rep.passed
        assert d["t_star"] <= d["t_pred"] + 1.0


def test_criterion_6_structural_invariants():
    """Five structural invariants over 100 random fields at N = 8."""
    with verdict(6, "structural property tests"):
        grid = WaveGrid(8, 2 * np.pi)
        zero = np.zeros(grid.shape(), complex)
        worst = dict.fromkeys(
            ("idempotence", "divergence", "orthogonality", "damping", "parseval"), 0.0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            once = project_coeffs(grid.to_spectral(rng.standard_normal((3, 8, 8, 8))), grid)
            scale = np.abs(once).max()
            twice = project_coeffs(once.copy(), grid)
            worst["idempotence"] = max(worst["idempotence"], np.abs(twice - once).max() / scale)
            worst["divergence"] = max(worst["divergence"], divergence_max(once, grid) / scale)

            # the integrator's kernel: its convective term at alpha = 0, its
            # damping term as the change when the damping is switched on
            u = make_initial_condition(grid, "random", seed=seed, energy=1.0 + seed % 3)
            nl = nonviscous_rhs(u.coeffs, grid, 0.0, 1.0, zero)[0]
            denom = math.sqrt(h_norm_sq(nl, grid) * h_norm_sq(u.coeffs, grid))
            worst["orthogonality"] = max(
                worst["orthogonality"], abs(h_inner(nl, u.coeffs, grid)) / denom)

            phys = grid.to_physical(u.coeffs)
            s2 = (phys ** 2).sum(axis=0)
            lbp = grid.dx ** 3 * float((s2 ** 2).sum())  # beta = 3
            damping = nonviscous_rhs(u.coeffs, grid, 0.7, 3.0, zero)[0] - nl
            ip = h_inner(damping, u.coeffs, grid)
            worst["damping"] = max(worst["damping"], abs(ip + 0.7 * lbp) / (0.7 * lbp))

            e_phys = grid.dx ** 3 * float((phys ** 2).sum())
            e_spec = h_norm_sq(u.coeffs, grid)
            worst["parseval"] = max(worst["parseval"], abs(e_spec - e_phys) / e_phys)

        print("  worst:", {k: f"{v:.2e}" for k, v in worst.items()})
        assert worst["idempotence"] <= 1e-13
        assert worst["divergence"] <= 1e-12
        assert worst["orthogonality"] <= 1e-10
        assert worst["damping"] <= 1e-8
        assert worst["parseval"] <= 1e-12


def test_criterion_7_uniqueness_regime_continuity():
    """Perturbation response scales linearly with delta across three decades."""
    with verdict(7, "uniqueness-regime continuity"):
        t0 = time.perf_counter()
        from dampedns.config import RunConfig
        for mu, alpha, beta in ((0.5, 0.5, 4.0), (0.5, 0.6, 3.0)):
            if beta == 3.0:
                assert 4.0 * alpha * mu == pytest.approx(1.2)
            cfg = RunConfig(
                mu=mu, alpha=alpha, beta=beta, n=32, length=2 * np.pi,
                forcing=ForcingSpec(kind="cylinder", force=(0.0, 0.5, 0.0)),
                initial=InitialSpec(kind="random", seed=1, energy=1.0),
                scheme=SchemeConfig(dt=0.01, adaptive=False),
            )
            res = run_trajectory_separation(cfg, (1e-2, 1e-3, 1e-4), max_t=5.0, stride=0.25)
            ratios = [f"{r.ratio:.4f}" for r in res.runs]
            print(f"  beta={beta}: max_t d/delta per delta = {ratios}, "
                  f"spread = {res.ratio_spread:.3f}")
            assert res.ratio_spread < 2.0
        elapsed = time.perf_counter() - t0
        print(f"  runtime = {elapsed:.0f} s")
        assert elapsed < 900.0


def test_criterion_8_steady_state_reproduction(steady_sweep):
    """Cylinder-forced box: all cells steady, faster along the alpha axis."""
    with verdict(8, "steady-state sweep"):
        base, result = steady_sweep
        for cell in result.cells:
            print(f"  alpha={cell.alpha} beta={cell.beta}: T_c={cell.t_c} "
                  f"umax={cell.final_umax:.2f}")
            assert cell.converged, f"cell ({cell.alpha}, {cell.beta}) did not converge"
            assert cell.t_c is not None and cell.t_c <= 200.0
        # forcing is strong enough that the velocity exceeds 1 somewhere
        assert max(c.final_umax for c in result.cells) > 1.0
        # hard assertion along the alpha axis
        for beta, ok in result.alpha_nonincreasing.items():
            assert ok, f"T_c increased with alpha at beta={beta}"
        # beta axis is observational: report, never fail
        print(f"  observational beta-axis verdicts: {result.beta_nonincreasing}")

        # the pair: the fluid at rest against a seeded random field. The rest
        # run is the sweep's first cell, (0.2, 1), the base config itself.
        steady_tol = 1e-6
        rest = result.cells[0]
        assert (rest.alpha, rest.beta) == (base.alpha, base.beta) == (0.2, 1.0)
        assert base.initial == InitialSpec(kind="zero")
        cfg = replace(base, initial=InitialSpec(kind="random", seed=5, energy=1.0))
        grid = build_grid(cfg)
        other = run_to_steady(build_state(cfg, grid), cfg.scheme, build_physics(cfg, grid),
                              stride=0.25, steady_tol=steady_tol, max_t=200.0)
        assert rest.converged and other.converged
        distance = math.sqrt(h_norm_sq(rest.state.u.coeffs - other.state.u.coeffs, grid))
        print(f"  IC independence: distance={distance:.2e}")
        assert 0.0 < distance <= 10.0 * steady_tol  # 0.0 would mean one state run twice


def test_criterion_9_infrastructure(tmp_path):
    """Snapshot and restart fidelity, config range rejection."""
    with verdict(9, "infrastructure"):
        grid = WaveGrid(16, 2 * np.pi)
        forcing = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(grid)
        physics = Physics(mu=0.2, alpha=0.5, beta=3.0, forcing=forcing)
        scheme = SchemeConfig(dt=0.01, dt_max=0.02, adaptive=True)
        u0 = make_initial_condition(grid, "random", seed=8, energy=1.0)

        # snapshot round trip is bitwise
        state = integrate(SolverState(0.0, u0), 0.3, scheme, physics)
        snap = tmp_path / "state.snap"
        write_snapshot(state, physics, snap)
        back, header = read_snapshot(snap)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)
        assert (back.t, back.step_count, back.last_dt) == (state.t, state.step_count, state.last_dt)

        # restart reproduces the uninterrupted diagnostics bitwise
        from dampedns.storage import DiagnosticsWriter

        def diag_observer(writer):
            return Observer(5, lambda st: writer.append(record(st.u, st.t, physics)))

        t_half, t_end = 0.5, 1.0
        full_csv, restart_csv = tmp_path / "full.csv", tmp_path / "restart.csv"
        st = SolverState(0.0, u0)
        wa = DiagnosticsWriter(full_csv)
        mid = tmp_path / "mid.snap"
        snap_obs = Observer(1, lambda s: write_snapshot(s, physics, mid) if s.t == t_half else None)
        st = integrate(st, t_half, scheme, physics, [diag_observer(wa), snap_obs])
        st = integrate(st, t_end, scheme, physics, [diag_observer(wa)])
        wa.close()
        st_re, _ = read_snapshot(mid)
        wb = DiagnosticsWriter(restart_csv)
        st_re = integrate(st_re, t_end, scheme, physics, [diag_observer(wb)])
        wb.close()
        assert np.array_equal(st_re.u.coeffs, st.u.coeffs)
        tail = lambda p: [l for l in p.read_text().splitlines()[1:]
                          if float(l.split(",")[0]) > t_half]
        assert tail(full_csv) and tail(full_csv) == tail(restart_csv)

        # config validation rejects out-of-range damping parameters
        base = "[physics]\nmu = 0.1\nalpha = {a}\nbeta = {b}\n[grid]\nn = 8\nl = 1.0\n"
        with pytest.raises(ConfigError, match="beta"):
            parse_config(base.format(a="0.2", b="0.5"))
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(base.format(a="0.0", b="1.0"))
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(base.format(a="-0.1", b="1.0"))
        print("  snapshot, restart and config-rejection checks passed")
