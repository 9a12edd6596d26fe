"""Diagnostics CSV and snapshot round trips, restart equivalence."""

import dataclasses
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dampedns import (
    DiagnosticsWriter,
    ForcingSpec,
    Observer,
    Physics,
    SchemeConfig,
    SolverState,
    StorageError,
    WaveGrid,
    integrate,
    make_initial_condition,
    read_diagnostics,
    read_snapshot,
    record,
    write_snapshot,
)
from dampedns import storage
from dampedns.cli import main
from dampedns.config import build_grid, build_physics, build_state, load_preset
from dampedns.diagnostics import CSV_COLUMNS, DiagnosticsRecord
from dampedns.storage import check_restart_compatible, read_snapshot_header

from invariants import assert_invariants

V1_FIXTURE = Path(__file__).parent / "data" / "v1-n8.snap"


def fixture_with_header(path, **fields):
    """Write the v1 fixture to ``path`` with header fields replaced. The
    checksum covers the payload only, so it still holds."""
    raw = V1_FIXTURE.read_bytes()
    header = dataclasses.replace(read_snapshot_header(V1_FIXTURE), **fields)
    head = struct.pack(storage._HEADER_FMT, *dataclasses.astuple(header))
    path.write_bytes(head + raw[len(head):])
    return path


def write_csv(records, path):
    with DiagnosticsWriter(path) as writer:
        for r in records:
            writer.append(r)


def small_run(n=8, seed=1, t_end=0.2, dt=0.01, stride=2):
    g = WaveGrid(n, 2 * np.pi)
    f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
    ph = Physics(mu=0.2, alpha=0.5, beta=3.0, forcing=f)
    sc = SchemeConfig(dt=dt, adaptive=False)
    st = SolverState(0.0, make_initial_condition(g, "random", seed=seed, energy=1.0))
    recs = []
    st = integrate(st, t_end, sc, ph, [Observer(stride, lambda s: recs.append(record(s.u, s.t, ph)))])
    return g, ph, sc, st, recs


class TestDiagnosticsCSV:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv([], path)
        assert path.read_text() == "t,E,V2,Lbp,A2,P_f,P_damp,dEdt,umax\n"

    def test_zero_field_row_of_zeros(self, tmp_path):
        g = WaveGrid(8, 1.0)
        ph = Physics(mu=0.1, alpha=0.2, beta=1.0, forcing=ForcingSpec().build(g))
        rec = record(make_initial_condition(g, "zero"), 0.25, ph)
        path = tmp_path / "d.csv"
        write_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[1] == "0.25,0,0,0,0,0,0,0,0"

    def test_round_trip_bit_exact(self, tmp_path):
        _, _, _, _, recs = small_run()
        path = tmp_path / "d.csv"
        write_csv(recs, path)
        back = read_diagnostics(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.astuple() == b.astuple()

    def test_streaming_matches_batch(self, tmp_path):
        _, _, _, _, recs = small_run()
        batch_path = tmp_path / "batch.csv"
        stream_path = tmp_path / "stream.csv"
        write_csv(recs, batch_path)
        with DiagnosticsWriter(stream_path) as w:
            for r in recs:
                w.append(DiagnosticsRecord(**{**r.__dict__, "dEdt": math.nan}))
        assert stream_path.read_text() == batch_path.read_text()

    def test_streaming_singleton(self, tmp_path):
        g = WaveGrid(8, 1.0)
        ph = Physics(mu=0.1, alpha=0.2, beta=1.0, forcing=ForcingSpec().build(g))
        rec = record(make_initial_condition(g, "zero"), 0.0, ph)
        path = tmp_path / "one.csv"
        with DiagnosticsWriter(path) as w:
            w.append(rec)
        assert read_diagnostics(path)[0].dEdt == 0.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,E\n0,1\n")
        with pytest.raises(StorageError, match="header"):
            read_diagnostics(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        _, _, _, _, recs = small_run()
        path = tmp_path / "d.csv"
        write_csv(recs, path)
        lines = path.read_text().splitlines()
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageError, match=r"d\.csv:3: .*'abc'"):
            read_diagnostics(path)

    def test_write_failure_leaves_partial_marker(self, tmp_path):
        _, _, _, _, recs = small_run()
        path = tmp_path / "d.csv"
        w = DiagnosticsWriter(path)
        w.append(recs[0])
        w._fh.close()  # force the next row write to fail
        with pytest.raises(StorageError):
            w.append(recs[1])
            w.append(recs[2])
        assert (tmp_path / "d.csv.partial").exists()

    def test_write_failure_leaves_earlier_csv_untouched(self, tmp_path):
        _, _, _, _, recs = small_run()
        path = tmp_path / "d.csv"
        write_csv(recs[:2], path)
        earlier = path.read_bytes()
        w = DiagnosticsWriter(path)
        w.append(recs[0])
        w._fh.close()  # force the next row write to fail
        with pytest.raises(StorageError):
            w.append(recs[1])
            w.append(recs[2])
        assert path.read_bytes() == earlier
        assert (tmp_path / "d.csv.partial").exists()

    def test_exception_in_with_block_publishes_nothing(self, tmp_path):
        _, _, _, _, recs = small_run()
        path = tmp_path / "d.csv"
        with pytest.raises(ZeroDivisionError):
            with DiagnosticsWriter(path) as w:
                for r in recs:
                    w.append(r)
                1 / 0
        assert not path.exists()
        assert (tmp_path / "d.csv.partial").read_text().startswith(",".join(CSV_COLUMNS))
        write_csv(recs, path)  # a clean close publishes and leaves no marker
        assert read_diagnostics(path) and not (tmp_path / "d.csv.partial").exists()


class TestSnapshots:
    def test_round_trip_bitwise(self, tmp_path):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        back, header = read_snapshot(path)
        assert np.array_equal(back.u.coeffs, st.u.coeffs)
        assert back.t == st.t
        assert back.step_count == st.step_count
        assert back.last_dt == st.last_dt
        assert (header.n, header.length) == (g.n, g.length)
        assert (header.mu, header.alpha, header.beta) == (ph.mu, ph.alpha, ph.beta)

    def test_v1_fixture_round_trips_byte_for_byte(self, tmp_path):
        """The on-disk v1 format is pinned: a snapshot written by an earlier
        release (n = 8, random IC seed 3, cylinder forcing, five IF-RK2 steps
        of dt = 0.01) reads back and writes out as the same bytes."""
        state, header = read_snapshot(V1_FIXTURE)
        assert (header.magic, header.version, header.n, header.length) == (b"DNSNAP01", 1, 8, 2 * np.pi)
        assert (header.t, header.mu, header.alpha, header.beta) == (0.05, 0.1, 0.5, 3.0)
        assert (header.step_count, header.last_dt, header.n_modes) == (5, 0.01, 125)
        assert header.n_modes == state.u.grid.mb ** 3
        assert_invariants(state.u)
        ph = Physics(mu=header.mu, alpha=header.alpha, beta=header.beta,
                     forcing=ForcingSpec().build(state.u.grid))
        path = tmp_path / "again.snap"
        write_snapshot(state, ph, path)
        assert path.read_bytes() == V1_FIXTURE.read_bytes()

    def test_header_readable_standalone(self, tmp_path):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        header = read_snapshot_header(path)
        assert header.version == 1
        assert header.n_modes == g.mb ** 3

    def test_corrupted_payload_rejected(self, tmp_path):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        blob = bytearray(path.read_bytes())
        blob[-9] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="checksum"):
            read_snapshot(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        # the checksum vouches for the bytes, not for the values they hold
        g, ph, sc, st, _ = small_run()
        st.u.coeffs[0, 1, 2, 1] = value
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        with pytest.raises(StorageError, match="non-finite"):
            read_snapshot(path)

    def test_non_finite_restart_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        cfg = load_preset("decay-shear-b1")
        grid = build_grid(cfg)
        state = build_state(cfg, grid)
        state.u.coeffs[0, 1, 2, 3] = math.nan
        bad = tmp_path / "bad.snap"
        write_snapshot(state, build_physics(cfg, grid), bad)
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--preset", "decay-shear-b1", "--restart", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1

    def test_truncated_rejected(self, tmp_path):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            read_snapshot(path)

    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        good = path.read_bytes()

        class FailAfterHeader:
            """A file whose second write (the payload) fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(storage, "open", lambda *a, **k: FailAfterHeader(open(*a, **k)),
                            raising=False)
        later = SolverState(st.t + 1.0, st.u, st.step_count + 1, st.last_dt)
        with pytest.raises(StorageError, match="snapshot write"):
            write_snapshot(later, ph, path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        back, _ = read_snapshot(path)
        assert np.array_equal(back.u.coeffs, st.u.coeffs) and back.t == st.t
        assert [p.name for p in tmp_path.iterdir()] == ["s.snap"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"NOTASNAP" + b"\0" * 100)
        with pytest.raises(StorageError, match="magic"):
            read_snapshot(path)

    @pytest.mark.parametrize("version", [0, 2, 2 ** 32 - 1])
    def test_other_version_rejected(self, tmp_path, version):
        path = fixture_with_header(tmp_path / "bad.snap", version=version)
        with pytest.raises(StorageError, match=f"version {version} is not the supported 1"):
            read_snapshot(path)

    @pytest.mark.parametrize("fields,match", [
        ({"n": 9}, "bad grid"),
        ({"length": -1.0}, "bad grid"),
        ({"n": 10}, "mode count"),
    ], ids=["n-odd", "length-negative", "n-mode-count"])
    def test_corrupted_header_grid_rejected(self, tmp_path, fields, match):
        path = fixture_with_header(tmp_path / "bad.snap", **fields)
        with pytest.raises(StorageError, match=match):
            read_snapshot(path)

    def test_mode_count_checked_before_grid_is_built(self, tmp_path, monkeypatch):
        # a header n flipped to a large even value must not allocate its grid
        def no_grid(*args):
            raise AssertionError("grid built from a corrupted header")

        monkeypatch.setattr(storage, "WaveGrid", no_grid)
        path = fixture_with_header(tmp_path / "bad.snap", n=1024)
        with pytest.raises(StorageError, match="mode count"):
            read_snapshot(path)

    def test_restart_compatibility_checks(self, tmp_path):
        g, ph, sc, st, _ = small_run()
        path = tmp_path / "s.snap"
        write_snapshot(st, ph, path)
        header = read_snapshot_header(path)
        check_restart_compatible(header, g, ph)
        other_grid = WaveGrid(16, 2 * np.pi)
        with pytest.raises(StorageError, match="grid mismatch"):
            check_restart_compatible(header, other_grid, ph)
        other_ph = Physics(mu=ph.mu * 2, alpha=ph.alpha, beta=ph.beta, forcing=ph.forcing)
        with pytest.raises(StorageError, match="physics mismatch"):
            check_restart_compatible(header, g, other_ph)


def _header_spans() -> dict[str, tuple[int, int]]:
    """Byte range of each snapshot header field (the "<" format has no padding)."""
    codes = re.findall(r"\d*[a-zA-Z]", storage._HEADER_FMT[1:])
    spans, lo = {}, 0
    for field, code in zip(dataclasses.fields(storage.SnapshotHeader), codes):
        hi = lo + struct.calcsize("<" + code)
        spans[field.name], lo = (lo, hi), hi
    return spans


def _bits(lo: int, hi: int):
    return hst.integers(8 * lo, 8 * hi - 1)


V1_RAW = V1_FIXTURE.read_bytes()
CHECKED_BITS = hst.one_of(  # the fields a v1 reader can check, and the payload
    *(_bits(*_header_spans()[name]) for name in ("magic", "version", "n_modes", "checksum")),
    _bits(storage._HEADER_SIZE, len(V1_RAW)),
)


class TestSnapshotReaderProperties:
    """Damaged copies of the v1 fixture are refused with StorageError and
    never read back as a state.

    The bit flips cover the fields the v1 format can vouch for: the magic,
    the version, the mode count, the checksum and the payload it covers.
    Flips in n, L, t, mu, alpha, beta, step_count and last_dt are out of
    scope: those header fields lie outside the v1 checksum, and some flips
    leave a consistent file (n = 16 -> 18 keeps the mode count). The v2
    header of ROADMAP item 4 puts them under the checksum.
    """

    @settings(derandomize=True, deadline=None)
    @given(length=hst.integers(0, len(V1_RAW) - 1))
    def test_truncated_file_rejected(self, tmp_path_factory, length):
        path = tmp_path_factory.mktemp("snap") / "cut.snap"
        path.write_bytes(V1_RAW[:length])
        with pytest.raises(StorageError):
            read_snapshot(path)

    @settings(derandomize=True, deadline=None)
    @given(bit=CHECKED_BITS)
    def test_flipped_bit_rejected(self, tmp_path_factory, bit):
        raw = bytearray(V1_RAW)
        raw[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path_factory.mktemp("snap") / "flipped.snap"
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            read_snapshot(path)


class TestRestartEquivalence:
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_restart_continues_bitwise(self, tmp_path, adaptive):
        g = WaveGrid(8, 2 * np.pi)
        f = ForcingSpec("cylinder", force=(0.0, 0.5, 0.0)).build(g)
        ph = Physics(mu=0.2, alpha=0.5, beta=3.0, forcing=f)
        sc = SchemeConfig(dt=0.01, dt_max=0.02, adaptive=adaptive)
        t_half, t_end, stride = 0.3, 0.6, 5

        def observers(writer):
            return [Observer(stride, lambda st: writer.append(record(st.u, st.t, ph)))]

        # uninterrupted run, snapshot taken mid-flight
        st = SolverState(0.0, make_initial_condition(g, "random", seed=2, energy=1.0))
        wa = DiagnosticsWriter(tmp_path / "a.csv")
        snap = tmp_path / "mid.snap"
        mid_obs = Observer(1, lambda s: write_snapshot(s, ph, snap) if s.t == t_half else None)
        st_mid = integrate(st, t_half, sc, ph, observers(wa) + [mid_obs])
        st_end = integrate(st_mid, t_end, sc, ph, observers(wa))
        wa.close()

        # restarted run
        st_re, header = read_snapshot(snap)
        check_restart_compatible(header, g, ph)
        assert np.array_equal(st_re.u.coeffs, st_mid.u.coeffs)
        wb = DiagnosticsWriter(tmp_path / "b.csv")
        st_re_end = integrate(st_re, t_end, sc, ph, observers(wb))
        wb.close()

        assert np.array_equal(st_re_end.u.coeffs, st_end.u.coeffs)
        rows_a = [l for l in (tmp_path / "a.csv").read_text().splitlines()[1:]
                  if float(l.split(",")[0]) > t_half]
        rows_b = [l for l in (tmp_path / "b.csv").read_text().splitlines()[1:]
                  if float(l.split(",")[0]) > t_half]
        assert rows_a and rows_a == rows_b
