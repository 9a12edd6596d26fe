"""The retained-block solver against a full half-spectrum reference.

The reference below is the solver written on full half-spectrum arrays:
``irfftn`` inverse transforms, a dealias-mask multiply after the forward
transform, and the Leray projection over every stored mode. Its wavenumbers
and mask are built here (:class:`Full`), from the grid's size alone. The
block solver must reproduce it bit for bit, because it does the same
arithmetic on the retained modes only, slab by slab, whatever the slab size.
"""

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft as sfft

import dampedns.grid as grid_module
import dampedns.timestepping as timestepping
from dampedns import (
    BlowUpError, ForcingSpec, Physics, SchemeConfig, SolverState, WaveGrid, make_initial_condition, step,
)
from dampedns.diagnostics import record
from dampedns.grid import pipeline_parts, slab_planes
from dampedns.operators import nonviscous_rhs
from dampedns.timestepping import BLOWUP_GUARD, _cfl_dt

from blocks import gather, scatter

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class Full:
    """Half-spectrum wavenumbers and 2/3-rule mask of a grid, shape (N, N, N//2+1)."""

    def __init__(self, grid):
        n = grid.n
        self.nk = n // 2 + 1
        modes = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        half = np.arange(self.nk, dtype=np.int64)
        k0 = 2.0 * np.pi / grid.length
        kx, ky, kz = (k0 * modes)[:, None, None], (k0 * modes)[None, :, None], (k0 * half)[None, None, :]
        self.kvec = np.stack(np.broadcast_arrays(kx, ky, kz)).astype(np.float64)
        self.ksq = self.kvec[0] ** 2 + self.kvec[1] ** 2 + self.kvec[2] ** 2
        self.inv_ksq = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=self.inv_ksq, where=self.ksq > 0.0)
        keep, keep_half = np.abs(modes) < n / 3.0, half < n / 3.0
        self.mask = keep[:, None, None] & keep[None, :, None] & keep_half[None, None, :]
        self.mask_f = self.mask.astype(np.float64)
        self.n = n

    def shape(self, comps=3):
        return (comps, self.n, self.n, self.nk)


def ref_project(c, grid):
    full = Full(grid)
    kv = full.kvec
    div = kv[0] * c[0]
    div += kv[1] * c[1]
    div += kv[2] * c[2]
    div *= full.inv_ksq
    for i in range(3):
        c[i] -= kv[i] * div
    c[:, 0, 0, 0] = 0.0
    return c


def ref_rhs(c, grid, alpha, beta, f):
    n, full = grid.n, Full(grid)
    stack = np.empty(full.shape(6), np.complex128)
    stack[:3] = c
    ik = 1j * full.kvec
    for i, j, k in _CYCLIC:
        np.multiply(ik[j], c[k], out=stack[3 + i])
        stack[3 + i] -= ik[k] * c[j]
    phys = sfft.irfftn(stack, s=(n, n, n), axes=(-3, -2, -1), norm="forward")
    u, w = phys[:3], phys[3:]
    s2 = u[0] * u[0]
    s2 += u[1] * u[1]
    s2 += u[2] * u[2]
    force = np.empty_like(u)
    for i, j, k in _CYCLIC:
        np.multiply(u[j], w[k], out=force[i])
        force[i] -= u[k] * w[j]
    if beta == 1.0:
        fac = alpha
    else:
        fac = s2 ** ((beta - 1.0) / 2.0)
        fac *= alpha
    force -= fac * u
    out = sfft.rfftn(force, axes=(-3, -2, -1), norm="forward")
    out *= full.mask_f
    ref_project(out, grid)
    out += f
    return out, math.sqrt(float(s2.max()))


def ref_step(t, c, grid, scheme, physics):
    al, be, f = physics.alpha, physics.beta, scatter(physics.forcing.coeffs, grid.n)
    ksq = Full(grid).ksq
    k1, speed = ref_rhs(c, grid, al, be, f)
    dt = _cfl_dt(speed, t, grid, scheme, physics) if scheme.adaptive else scheme.dt
    visc = np.exp((-physics.mu * dt) * ksq)
    pred = c + dt * k1
    pred *= visc
    k2 = ref_rhs(pred, grid, al, be, f)[0]
    k1 *= 0.5 * dt
    k1 += c
    k1 *= visc
    k2 *= 0.5 * dt
    k1 += k2
    ref_project(k1, grid)
    return t + dt, k1


def setup(n, beta):
    grid = WaveGrid(n, 2 * np.pi)
    u = make_initial_condition(grid, "random", seed=11, energy=2.0)
    physics = Physics(mu=0.05, alpha=0.7, beta=beta,
                      forcing=ForcingSpec("cylinder", force=(0.0, 1.0, 0.0)).build(grid))
    return grid, u, physics


def forcing(grid, physics, forced):
    """The run's forcing, or the zero forcing with which the invariant tests
    read the convective and damping terms off the kernel."""
    return physics.forcing.coeffs if forced else ForcingSpec().build(grid).coeffs


NS = [16, 18, 32]
BETAS = [1.0, 2.0, 3.5]


def set_slab(monkeypatch, n, planes):
    """Make the RHS pipeline cut an n^3 grid into slabs of ``planes`` x1-planes."""
    monkeypatch.setattr(grid_module, "SLAB_BYTES", planes * 6 * 8 * n * n)
    assert slab_planes(n) == planes


def set_cpus(monkeypatch, cpus):
    """Make the RHS pipeline see ``cpus`` usable CPUs."""
    monkeypatch.setattr(grid_module, "_usable_cpus", lambda: cpus)


def record_threads(monkeypatch):
    """List every thread started while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


@pytest.fixture
def fresh_pool(monkeypatch):
    """Empty the pipeline worker slot for the test, and shut down any
    worker the test started."""
    monkeypatch.setattr(grid_module, "_pool", None)
    yield
    if grid_module._pool is not None:
        grid_module._pool.shutdown()


def random_block(grid, comps, rng):
    shape = grid.shape(comps)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlockGeometry:
    @pytest.mark.parametrize("n, k", [(4, 2), (6, 2), (16, 6), (18, 6), (32, 11), (64, 22)])
    def test_sizes(self, n, k):
        grid = WaveGrid(n, 1.0)
        assert (grid.kb, grid.mb) == (k, 2 * k - 1)
        assert grid.mb ** 2 * grid.kb == np.count_nonzero(Full(grid).mask)

    @pytest.mark.parametrize("n", NS)
    def test_gather_scatter_round_trip(self, n):
        grid, ref = WaveGrid(n, 1.0), Full(WaveGrid(n, 1.0))
        rng = np.random.default_rng(n)
        full = rng.standard_normal(ref.shape()) + 1j * rng.standard_normal(ref.shape())
        full *= ref.mask_f
        block = gather(full)
        assert block.shape == grid.shape()
        assert np.array_equal(scatter(block, grid.n), full)
        assert np.array_equal(grid.ksq, gather(ref.ksq))
        assert np.array_equal(grid.kvec, gather(ref.kvec))
        assert np.array_equal(grid.inv_ksq, gather(ref.inv_ksq))
        assert np.array_equal(grid.viscous_factor(0.1, 0.01),
                              gather(np.exp((-0.1 * 0.01) * ref.ksq)))


class TestPrunedInverse:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_alternating_fields_and_grids(self, monkeypatch, cpus):
        """Stale workspace padding would show up as a mismatch on a later
        call. n = 48 and 64 run in two parts on two CPUs."""
        set_cpus(monkeypatch, cpus)
        grids = [WaveGrid(16, 2 * np.pi), WaveGrid(18, 1.0), WaveGrid(48, 1.0), WaveGrid(64, 2 * np.pi)]
        assert [pipeline_parts(g.n) for g in grids] == [1, 1, cpus, cpus]
        rng = np.random.default_rng(3)
        for rnd in range(3):
            for grid in grids:
                for comps in (6, 3):
                    ref_grid = Full(grid)
                    full = rng.standard_normal(ref_grid.shape(comps)) + 1j * rng.standard_normal(ref_grid.shape(comps))
                    full *= ref_grid.mask_f
                    n = grid.n
                    ref = sfft.irfftn(scatter(gather(full), grid.n), s=(n, n, n), axes=(-3, -2, -1),
                                      norm="forward")
                    got = grid.to_physical(gather(full))
                    assert got.shape == (comps, n, n, n)
                    assert np.array_equal(got, ref), (rnd, n, comps)
                    back = gather(sfft.rfftn(ref, axes=(-3, -2, -1), norm="forward"))
                    assert np.array_equal(grid.to_spectral(ref), back), (rnd, n, comps)

    def test_state_equals_irfftn_of_scatter(self):
        grid, u, _ = setup(16, 2.0)
        ref = sfft.irfftn(scatter(u.coeffs, grid.n), s=(16,) * 3, axes=(-3, -2, -1), norm="forward")
        assert np.array_equal(grid.to_physical(u.coeffs), ref)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [18, 48, 64])
    def test_to_spectral_is_gathered_rfftn(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)
        grid = WaveGrid(n, 1.0)
        x = np.random.default_rng(7).standard_normal((3, n, n, n))
        assert np.array_equal(grid.to_spectral(x), gather(sfft.rfftn(x, axes=(-3, -2, -1), norm="forward")))

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_to_spectral_batches_leading_axes(self, shape):
        grid = WaveGrid(16, 1.0)
        x = np.random.default_rng(8).standard_normal(shape + (16, 16, 16))
        got = grid.to_spectral(x)
        assert got.shape == shape + grid.shape(1)[1:]
        assert np.array_equal(got, gather(sfft.rfftn(x, axes=(-3, -2, -1), norm="forward")))


class TestAgainstFullReference:
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_nonviscous_rhs_bitwise(self, n, beta):
        grid, u, physics = setup(n, beta)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, beta,
                                 scatter(physics.forcing.coeffs, grid.n))
        got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, beta, physics.forcing.coeffs)
        assert np.array_equal(scatter(got, grid.n), ref)
        assert speed == ref_speed

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("method, adaptive", [("if-rk2", True), ("if-rk2", False)])
    def test_trajectory_bitwise(self, n, beta, method, adaptive):
        grid, u, physics = setup(n, beta)
        scheme = SchemeConfig(method=method, dt=0.02, adaptive=adaptive)
        state = SolverState(0.0, u)
        t, c = 0.0, scatter(u.coeffs, grid.n)
        for _ in range(4):
            state = step(state, scheme, physics)
            t, c = ref_step(t, c, grid, scheme, physics)
            assert state.t == t
            assert np.array_equal(scatter(state.u.coeffs, grid.n), c)


class TestSlabs:
    def test_default_sizes(self):
        assert [slab_planes(n) for n in (4, 16, 18, 32, 48, 64)] == [4, 16, 18, 32, 14, 8]

    @pytest.mark.parametrize("n", [16, 18, 48])
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("forced", [True, False])
    @pytest.mark.parametrize("planes", [1, 5, "whole"])
    def test_rhs_independent_of_slab_size(self, monkeypatch, n, beta, forced, planes):
        """At n <= 32 the default slab is the whole grid; these sizes put seams in."""
        set_slab(monkeypatch, n, n if planes == "whole" else planes)
        grid, u, physics = setup(n, beta)
        f = forcing(grid, physics, forced)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, beta, scatter(f, grid.n))
        got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, beta, f)
        assert np.array_equal(scatter(got, grid.n), ref)
        assert speed == ref_speed


class TestPrunedForward:
    @pytest.mark.parametrize("n", [4, 6, 16, 18, 32, 48])
    @pytest.mark.parametrize("planes", [1, None])
    def test_equals_gathered_rfftn(self, monkeypatch, n, planes):
        if planes is not None:
            set_slab(monkeypatch, n, planes)
        grid = WaveGrid(n, 1.0)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n, n, n))
        filled = []

        def fill(lo, values, out):
            out[...] = x[:, lo:lo + out.shape[1]]
            filled.extend(range(lo, lo + out.shape[1]))

        finished = []
        got = grid.transform_pointwise(random_block(grid, 3, rng), fill,
                                       lambda block, rows: finished.append(rows))
        assert sorted(filled) == list(range(n))
        halves = [slice(0, grid.mb)] if pipeline_parts(n) == 1 else [slice(0, grid.kb), slice(grid.kb, grid.mb)]
        assert sorted(finished, key=lambda r: r.start) == halves
        assert np.array_equal(got, gather(sfft.rfftn(x, axes=(-3, -2, -1), norm="forward")))


class TestResultsOwnTheirMemory:
    def test_result_survives_later_calls(self):
        """``step`` scales a stage result in place; it must not live in a workspace."""
        grids = [WaveGrid(16, 2 * np.pi), WaveGrid(18, 1.0)]
        rng = np.random.default_rng(5)
        first = grids[0]
        c = random_block(first, 3, rng)
        f = ForcingSpec().build(first).coeffs
        res, speed = nonviscous_rhs(c, first, 0.7, 2.0, f)
        kept = res.copy()
        for rnd in range(2):
            for grid in grids:
                other = random_block(grid, 3, rng)
                nonviscous_rhs(other, grid, 0.7, 2.0, ForcingSpec().build(grid).coeffs)  # six components in
                grid.to_physical(other)  # three in
                assert np.array_equal(res, kept), (rnd, grid.n)
        again, speed_again = nonviscous_rhs(c, first, 0.7, 2.0, f)
        assert np.array_equal(again, kept) and speed_again == speed
        assert not np.may_share_memory(again, res)

    def test_workspace_inventory(self, monkeypatch, fresh_pool):
        """The memory a grid keeps after a step: the transforms' workspaces,
        one slab per part and the curl's scratch in the part that forms it
        (the second of two takes components 3-5), and the projection's and
        the blow-up peak's scratch per first k1 row of a part (K = 22 at
        n = 64). The pointwise force keeps none; its slab is its scratch."""
        want = {
            (32, 1): {"inverse", "inverse.curl0", "forward.k3", "forward.slab0",
                      "project.row0", "step.abs0", "step.pred"},
            (64, 2): {"inverse", "inverse.curl1", "forward.k3", "forward.slab0", "forward.slab1",
                      "project.row0", "project.row22", "step.abs0", "step.abs22", "step.pred"},
        }
        for (n, cpus), names in want.items():
            set_cpus(monkeypatch, cpus)
            assert pipeline_parts(n) == cpus
            grid, u, physics = setup(n, 3.5)
            step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), physics)
            got = {name for name, _ in grid._work}
            assert got == names, n
            assert not any(name.startswith("rhs.scratch") for name in got)

    def test_one_inverse_workspace(self, monkeypatch, fresh_pool):
        """``record`` inverts three components and the RHS six; both use the
        leading components of one six-component workspace per grid."""
        for n, cpus in ((32, 1), (64, 2)):
            set_cpus(monkeypatch, cpus)
            grid, u, physics = setup(n, 3.5)
            record(u, 0.0, physics)
            step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), physics)
            assert [shape for name, shape in grid._work if name == "inverse"] == [(6, n, n, n // 2 + 1)], n

# Slabs of 5 planes put seams in both halves of every grid; the last two
# cases run n = 64 at its default slab of 8 planes, as `separate` does.
TRAJECTORY_CASES = [
    pytest.param(method, adaptive, n, beta, 5, id=f"{method}-{adaptive}-{n}-{beta}")
    for n, beta in [(18, 1.0), (32, 3.5), (48, 2.0), (64, 3.5)]
    for method, adaptive in [("if-rk2", True), ("if-rk2", False)]
] + [
    pytest.param("if-rk2", adaptive, 64, 4.0, None, id=f"if-rk2-{adaptive}-64-4.0-default-slab")
    for adaptive in (True, False)
]


class TestSplit:
    """The pipeline's two halves against the full reference, and the
    worker thread that runs the second half."""

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("n", [18, 32, 48, 64])  # K = 6, 11 (odd), 16, 22
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("forced", [True, False])
    def test_rhs_bitwise(self, monkeypatch, fresh_pool, parts, n, beta, forced):
        """Slabs of 5 planes put seams in both halves of every grid."""
        set_slab(monkeypatch, n, 5)
        set_cpus(monkeypatch, parts)
        assert pipeline_parts(n) == parts
        started = record_threads(monkeypatch)
        grid, u, physics = setup(n, beta)
        f = forcing(grid, physics, forced)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, beta, scatter(f, grid.n))
        got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, beta, f)
        assert np.array_equal(scatter(got, grid.n), ref)
        assert speed == ref_speed
        assert len(started) == parts - 1  # one worker serves all four stages

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("method, adaptive, n, beta, planes", TRAJECTORY_CASES)
    def test_trajectory_bitwise(self, monkeypatch, parts, method, adaptive, n, beta, planes):
        if planes is not None:
            set_slab(monkeypatch, n, planes)
        set_cpus(monkeypatch, parts)
        grid, u, physics = setup(n, beta)
        scheme = SchemeConfig(method=method, dt=0.02, adaptive=adaptive)
        state = SolverState(0.0, u)
        t, c = 0.0, scatter(u.coeffs, grid.n)
        for _ in range(4):
            state = step(state, scheme, physics)
            t, c = ref_step(t, c, grid, scheme, physics)
            assert state.t == t
            assert np.array_equal(scatter(state.u.coeffs, grid.n), c)

    def test_nan_in_second_half_gives_nan_speed(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        grid, u, physics = setup(64, 3.5)
        assert pipeline_parts(64) == 2
        poisoned = []
        transform = WaveGrid.transform_pointwise

        def poisoning(self, coeffs, fn, finish):
            def fn_with_nan(lo, values, out):
                if lo == self.n - slab_planes(self.n):  # the last slab, in the second half
                    assert threading.current_thread() is not threading.main_thread()  # on the pipeline worker
                    values[1, -1, 7, 9] = np.nan
                    poisoned.append(lo)
                fn(lo, values, out)
            return transform(self, coeffs, fn_with_nan, finish)

        monkeypatch.setattr(WaveGrid, "transform_pointwise", poisoning)
        speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, 3.5, physics.forcing.coeffs)[1]
        assert poisoned and math.isnan(speed)

    @pytest.mark.parametrize("value", [math.nan, 1e20])
    @pytest.mark.parametrize("half", [0, 1])
    def test_blowup_in_either_half_raises(self, monkeypatch, half, value):
        """The parts' blow-up peaks are combined so that NaN propagates: the
        builtin max(1.0, nan) is 1.0 and would let a NaN in the second half
        through."""
        set_cpus(monkeypatch, 2)
        grid, u, physics = setup(64, 3.5)
        assert pipeline_parts(64) == 2
        rows = grid._k1_rows(slice(half, half + 1))
        row = rows.start + 2
        assert row < rows.stop
        rhs = timestepping.nonviscous_rhs
        calls = []

        def poisoning(*args):
            k, speed = rhs(*args)
            calls.append(k)
            if len(calls) == 2:  # k2: the corrector adds dt/2 of it to the result
                k[0, row, 3, 5] = value
            return k, speed

        monkeypatch.setattr(timestepping, "nonviscous_rhs", poisoning)
        with pytest.raises(BlowUpError) as err:
            step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), physics)
        assert len(calls) == 2
        if math.isnan(value):
            assert math.isnan(err.value.peak)
        else:
            assert err.value.peak > BLOWUP_GUARD

    @pytest.mark.parametrize("failing", [0, 1])
    def test_exception_waits_for_both_halves(self, monkeypatch, failing):
        """The part that does not fail is slowed down, so an exception that
        left before joining it would find one of its slabs in progress."""
        set_slab(monkeypatch, 48, 6)  # 4 slabs per half
        set_cpus(monkeypatch, 2)
        grid, u, physics = setup(48, 2.0)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, 2.0,
                                 scatter(physics.forcing.coeffs, grid.n))
        running, finished = [], []
        transform = WaveGrid.transform_pointwise

        def failing_fn(self, coeffs, fn, finish):
            def fn_or_fail(lo, values, out):
                part = int(lo >= 24)  # part 0 holds planes 0-23
                if part == failing:
                    raise ZeroDivisionError(f"part {part}")
                running.append(lo)
                time.sleep(0.01)
                fn(lo, values, out)
                running.remove(lo)
                finished.append(lo)
            return transform(self, coeffs, fn_or_fail, finish)

        with monkeypatch.context() as patch:
            patch.setattr(WaveGrid, "transform_pointwise", failing_fn)
            with pytest.raises(ZeroDivisionError, match=f"part {failing}"):
                nonviscous_rhs(u.coeffs, grid, physics.alpha, 2.0, physics.forcing.coeffs)
            assert running == []
            other = 1 - failing  # its whole slab share ran before the exception came out
            assert sorted(finished) == list(range(24 * other, 24 * other + 24, 6))
            grid_module._pool.submit(lambda: None).result(timeout=1.0)  # the worker is idle
            done = list(finished)
            time.sleep(0.05)
            assert finished == done  # and it did not go on afterwards
        got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, 2.0, physics.forcing.coeffs)
        assert np.array_equal(scatter(got, grid.n), ref) and speed == ref_speed

    def test_one_worker_serves_every_stage(self, monkeypatch, fresh_pool):
        set_cpus(monkeypatch, 2)
        started = record_threads(monkeypatch)
        grid, u, physics = setup(64, 3.5)  # the set-up projections start the worker
        in_parts = grid_module._in_parts
        calls = []

        def checked(parts, stages):
            in_parts(parts, stages)
            calls.append((parts, len(stages)))
            assert len(started) == 1 and started[0].is_alive()

        monkeypatch.setattr(grid_module, "_in_parts", checked)
        nonviscous_rhs(u.coeffs, grid, physics.alpha, 3.5, physics.forcing.coeffs)  # inverse, then forward
        grid.to_physical(u.coeffs)
        assert calls == [(2, 1), (2, 3), (2, 1)]
        # each RHS pipeline, then the predictor, then the corrector with the
        # post-step projection and blow-up peak
        step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), physics)
        assert calls[3:] == [(2, 1), (2, 3), (2, 1)] * 2 and len(started) == 1
        assert grid_module._pool.submit(threading.current_thread).result() is started[0]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_gets_its_own_worker(self, monkeypatch, fresh_pool):
        """The parent's worker thread does not exist in a forked child; a
        child that submitted to it would wait forever."""
        set_cpus(monkeypatch, 2)
        grid, u, physics = setup(64, 3.5)
        args = (u.coeffs, grid, physics.alpha, 3.5, physics.forcing.coeffs)
        want, want_speed = nonviscous_rhs(*args)
        assert grid_module._pool is not None
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit alone, never through pytest
            code = 1
            try:
                got, speed = nonviscous_rhs(*args)
                code = 0 if np.array_equal(got, want) and speed == want_speed else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's two-part RHS did not finish in 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    @pytest.mark.parametrize("n, cpus", [(64, 1), (32, 2), (16, 2)])
    def test_one_part_starts_no_thread(self, monkeypatch, fresh_pool, n, cpus):
        """One usable CPU, or a grid that fits in one slab, runs the pipeline
        in the calling thread alone."""
        set_cpus(monkeypatch, cpus)
        assert pipeline_parts(n) == 1
        started = record_threads(monkeypatch)
        grid, u, physics = setup(n, 3.5)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, 3.5,
                                 scatter(physics.forcing.coeffs, grid.n))
        got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, 3.5, physics.forcing.coeffs)
        grid.to_physical(u.coeffs)
        step(SolverState(0.0, u), SchemeConfig(dt=0.01, adaptive=False), physics)
        assert started == [] and grid_module._pool is None
        assert np.array_equal(scatter(got, grid.n), ref) and speed == ref_speed

    def test_repeated_calls_under_frequent_thread_switches(self, monkeypatch):
        """The halves share workspaces; a switch at any bytecode must not
        let one half read what the other is writing."""
        set_slab(monkeypatch, 48, 3)
        set_cpus(monkeypatch, 2)
        grid, u, physics = setup(48, 3.5)
        ref, ref_speed = ref_rhs(scatter(u.coeffs, grid.n), grid, physics.alpha, 3.5,
                                 scatter(physics.forcing.coeffs, grid.n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            for _ in range(8):
                got, speed = nonviscous_rhs(u.coeffs, grid, physics.alpha, 3.5, physics.forcing.coeffs)
                assert np.array_equal(scatter(got, grid.n), ref) and speed == ref_speed
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)
