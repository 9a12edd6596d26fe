"""Result persistence: diagnostics CSV and binary field snapshots.

Diagnostics go to CSV with a fixed column order and 17-significant-digit
decimal floats, so a read-back reproduces every value bit-exactly.
Snapshots are self-describing binary: a fixed little-endian header (grid,
time, physics, payload checksum) followed by the retained spectral
coefficients, component-major and k-lexicographic, as float64 real/imag
pairs. Restarting from a snapshot continues a run bit-identically.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsRecord, _dEdt
from .fields import SpectralVelocity
from .grid import GridError, WaveGrid, retained_half_modes
from .timestepping import Physics, SolverState

__all__ = [
    "StorageError",
    "make_output_dir",
    "write_atomic",
    "read_diagnostics",
    "DiagnosticsWriter",
    "SnapshotHeader",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "write_snapshot",
    "read_snapshot",
    "read_snapshot_header",
    "check_restart_compatible",
]


class StorageError(RuntimeError):
    """Persistence failure (I/O, format, integrity)."""


def _fmt(v: float) -> str:
    return format(v, ".17g")


def make_output_dir(path: str | Path) -> Path:
    """Create the output directory ``path`` with its parents, before any work
    is spent on what will be written there. Returns it as a Path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_atomic(path: str | Path, what: str, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` through a hidden temporary file beside it
    and ``os.replace``: a failed write leaves the earlier file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise StorageError(f"{what} write to {path} failed: {exc}") from exc


# ----------------------------------------------------------------------
# diagnostics CSV
# ----------------------------------------------------------------------

def read_diagnostics(path: str | Path) -> list[DiagnosticsRecord]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise StorageError(f"cannot read diagnostics {path}: {exc}") from exc
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise StorageError(f"{path} is not a diagnostics CSV (bad header)")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise StorageError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} columns")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise StorageError(f"{path}:{lineno}: {exc}") from exc
        records.append(DiagnosticsRecord(*values))
    return records


class DiagnosticsWriter:
    """One-record-lag streaming writer: the only code that writes a diagnostics CSV.

    It holds the package's only dE/dt end rules. A row is flushed once its
    successor arrives, with dEdt filled in place: centered in the interior,
    one-sided for the first row. close() flushes the last row with a
    one-sided difference, or 0 when it is the only row.

    Rows stream into ``<path>.partial`` beside the path, and only a clean
    close() moves that file onto the path (``os.replace``), so the path
    holds its earlier file or the complete new one, never a torn one. A
    failed write, or leaving a ``with`` block by an exception, publishes
    nothing and leaves the rows written so far in ``<path>.partial``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._partial = Path(str(path) + ".partial")
        self._pending: DiagnosticsRecord | None = None
        self._written: DiagnosticsRecord | None = None
        try:
            self._fh = open(self._partial, "w", newline="\n")
            self._fh.write(",".join(CSV_COLUMNS) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise StorageError(f"cannot open diagnostics stream {self._partial}: {exc}") from exc

    def _emit(self, rec: DiagnosticsRecord) -> None:
        try:
            self._fh.write(",".join(_fmt(v) for v in rec.astuple()) + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise StorageError(f"diagnostics stream {self._partial} failed: {exc}") from exc
        self._written = rec

    def append(self, rec: DiagnosticsRecord) -> None:
        prev = self._pending
        if prev is not None:
            prev.dEdt = _dEdt(prev if self._written is None else self._written, rec)
            self._emit(prev)
        self._pending = rec

    def close(self) -> None:
        """Write the last row and replace the file at the path with the stream."""
        last, self._pending = self._pending, None
        try:
            if last is not None:
                last.dEdt = 0.0 if self._written is None else _dEdt(self._written, last)
                self._emit(last)
        finally:
            self._fh.close()
        try:
            os.replace(self._partial, self.path)
        except OSError as exc:
            raise StorageError(f"cannot publish diagnostics {self.path}: {exc}") from exc

    def __enter__(self) -> "DiagnosticsWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # publish nothing: the rows so far stay in <path>.partial
            self._fh.close()


# ----------------------------------------------------------------------
# binary snapshots
# ----------------------------------------------------------------------

SNAPSHOT_MAGIC = b"DNSNAP01"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<8sIIdddddQdII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


@dataclass(frozen=True)
class SnapshotHeader:
    magic: bytes
    version: int
    n: int
    length: float
    t: float
    mu: float
    alpha: float
    beta: float
    step_count: int
    last_dt: float
    n_modes: int
    checksum: int


def _mode_order(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Gather map for the payload: retained modes in (m1, m2, m3)
    lexicographic order, as flat indices into the block plus a conjugation
    flag for modes with m3 < 0."""
    mb, kb = grid.mb, grid.kb
    m = grid.modes
    m1, m2, m3 = np.meshgrid(m, m, m, indexing="ij")
    m1, m2, m3 = m1.ravel(), m2.ravel(), m3.ravel()
    order = np.lexsort((m3, m2, m1))
    m1, m2, m3 = m1[order], m2[order], m3[order]
    conj = m3 < 0
    i1 = np.where(conj, -m1, m1) % mb
    i2 = np.where(conj, -m2, m2) % mb
    i3 = np.where(conj, -m3, m3)
    flat = (i1 * mb + i2) * kb + i3
    return flat, conj


def write_snapshot(state: SolverState, physics: Physics, path: str | Path) -> None:
    """Serialize a solver state; the header makes the file self-describing.
    The file is replaced atomically: a failed write leaves the old one intact."""
    grid = state.u.grid
    flat, conj = _mode_order(grid)
    vals = state.u.coeffs.reshape(3, -1)[:, flat]
    vals[:, conj] = np.conj(vals[:, conj])
    payload = np.empty(vals.shape + (2,), dtype="<f8")
    payload[..., 0] = vals.real
    payload[..., 1] = vals.imag
    blob = payload.tobytes()
    header = struct.pack(
        _HEADER_FMT, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
        grid.n, grid.length, state.t,
        physics.mu, physics.alpha, physics.beta,
        state.step_count, state.last_dt,
        flat.size, zlib.crc32(blob),
    )
    write_atomic(path, "snapshot", header, blob)


def read_snapshot_header(path: str | Path) -> SnapshotHeader:
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER_SIZE)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if len(raw) < _HEADER_SIZE:
        raise StorageError(f"{path}: truncated snapshot header")
    fields = struct.unpack(_HEADER_FMT, raw)
    header = SnapshotHeader(*fields)
    if header.magic != SNAPSHOT_MAGIC:
        raise StorageError(f"{path}: not a snapshot file (bad magic)")
    if header.version != SNAPSHOT_VERSION:
        raise StorageError(f"{path}: snapshot format version {header.version} is not the supported {SNAPSHOT_VERSION}")
    return header


def read_snapshot(path: str | Path) -> tuple[SolverState, SnapshotHeader]:
    """Reconstruct a solver state; integrity is verified before returning.

    The grid and physics are rebuilt from the header alone. A checksum or
    format mismatch, or a non-finite coefficient, raises StorageError and
    no partial state escapes.
    """
    header = read_snapshot_header(path)
    try:
        with open(path, "rb") as fh:
            fh.seek(_HEADER_SIZE)
            blob = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    expected = 3 * header.n_modes * 2 * 8
    if len(blob) != expected:
        raise StorageError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    if zlib.crc32(blob) != header.checksum:
        raise StorageError(f"{path}: checksum mismatch (corrupted snapshot)")
    payload = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(payload).all():
        raise StorageError(f"{path}: non-finite spectral coefficient in the payload")

    # compare before building the grid, so a corrupted n allocates nothing
    if header.n_modes != (2 * retained_half_modes(header.n) - 1) ** 3:
        raise StorageError(f"{path}: mode count {header.n_modes} does not match grid n={header.n}")
    try:
        grid = WaveGrid(header.n, header.length)
    except GridError as exc:
        raise StorageError(f"{path}: bad grid in header: {exc}") from exc
    flat, conj = _mode_order(grid)
    payload = payload.reshape(3, header.n_modes, 2)
    vals = payload[..., 0] + 1j * payload[..., 1]
    coeffs = np.zeros((3, grid.mb * grid.mb * grid.kb), np.complex128)
    stored = ~conj
    coeffs[:, flat[stored]] = vals[:, stored]
    u = SpectralVelocity(grid, coeffs.reshape(grid.shape()))
    state = SolverState(t=header.t, u=u, step_count=header.step_count, last_dt=header.last_dt)
    return state, header


def check_restart_compatible(header: SnapshotHeader, grid: WaveGrid, physics: Physics) -> None:
    """Reject restarts whose grid or physics differ from the snapshot."""
    if header.n != grid.n or header.length != grid.length:
        raise StorageError(
            f"grid mismatch on restart: snapshot has n={header.n}, L={header.length}, "
            f"run has n={grid.n}, L={grid.length}"
        )
    for name, a, b in (("mu", header.mu, physics.mu),
                       ("alpha", header.alpha, physics.alpha),
                       ("beta", header.beta, physics.beta)):
        if a != b:
            raise StorageError(f"physics mismatch on restart: snapshot {name}={a}, run {name}={b}")
