"""Run configuration: flat key-value files, validation, presets.

Format: INI-like sections ``[physics] [grid] [forcing] [scheme] [run]``
with one ``key = value`` pair per line and ``#`` comments. Unknown keys are
errors (no silent defaults for misspellings). Syntax and type errors carry
the line number. Range errors name the section. Each dataclass checks
itself whenever it is built, ``replace`` included: :class:`RunConfig` here,
``ForcingSpec`` and ``InitialSpec`` in :mod:`dampedns.fields` and
``SchemeConfig`` in :mod:`dampedns.timestepping`. The parser builds the
last three inside :func:`checked`, which puts the section on their errors;
a command that builds them from flags re-sections the error the same way,
naming the flag that set the value. Defaults live on the dataclasses: the
forcing and initial-field defaults below are those of
``fields.ForcingSpec`` and ``fields.InitialSpec``.

Keys and defaults
-----------------
[physics]   mu (required) | alpha (required) | beta (required)
[grid]      n (required) | l (required)
[forcing]   kind = zero | cylinder; radius, height = L/3; axis = y;
            force = 0,2,0; center = box centre; smooth_cells = 1.0
[scheme]    method = if-rk2; dt = 0.01; dt_min = 1e-8; dt_max = 0.1;
            cfl = 0.4; adaptive = true
[run]       t_end = 1.0; ic = zero; ic_amplitude = 1.0; ic_seed = 0;
            ic_energy = 1.0; ic_slope = -4.0; diag_stride = 10;
            snapshot_stride = 0; output_dir = out; run_id = run
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .grid import WaveGrid, check_grid
from .fields import ForcingField, ForcingSpec, InitialSpec, SpectralVelocity
from .operators import check_physics
from .timestepping import Physics, SchemeConfig, SolverState

__all__ = [
    "ConfigError",
    "ForcingSpec",
    "InitialSpec",
    "RunConfig",
    "checked",
    "parse_config",
    "preset_names",
    "load_preset",
    "preset_text",
    "build_grid",
    "build_forcing",
    "build_initial",
    "build_physics",
    "build_state",
]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


@contextmanager
def checked(section: str, flags: dict[str, str] | None = None):
    """Re-raise the ValueError of an owner's check as ConfigError("[section] message").

    ``flags`` maps keys to the command-line flags that set them. Given flags,
    a ConfigError is re-sectioned too: its ``[section]`` is dropped and each
    word of the message that is a key becomes its flag, in one pass. Without
    them, a ConfigError passes through, so the innermost section wins.
    """
    try:
        yield
    except ValueError as exc:
        if isinstance(exc, ConfigError) and not flags:
            raise
        message = re.sub(r"^\[\w+\] ", "", str(exc))  # a ConfigError's own section
        message = re.sub(r"\w+", lambda word: (flags or {}).get(word[0], word[0]), message)
        raise ConfigError(f"[{section}] {message}") from None


@dataclass(frozen=True)
class RunConfig:
    mu: float
    alpha: float
    beta: float
    n: int
    length: float
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    initial: InitialSpec = field(default_factory=InitialSpec)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    t_end: float = 1.0
    diag_stride: int = 10
    snapshot_stride: int = 0
    output_dir: str = "out"
    run_id: str = "run"

    def __post_init__(self):
        with checked("physics"):
            check_physics(self.alpha, self.beta, self.mu)
        with checked("grid"):
            check_grid(self.n, self.length)
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError(f"[run] t_end must be > 0 and finite, got {self.t_end}")
        if self.diag_stride < 1:
            raise ConfigError(f"[run] diag_stride must be >= 1, got {self.diag_stride}")
        if self.snapshot_stride < 0:
            raise ConfigError(f"[run] snapshot_stride must be >= 0, got {self.snapshot_stride}")


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_vec3(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {raw!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


_SCHEMA: dict[str, dict[str, object]] = {
    "physics": {"mu": float, "alpha": float, "beta": float},
    "grid": {"n": int, "l": float},
    "forcing": {
        "kind": str.lower, "radius": float, "height": float, "axis": str.lower,
        "force": _to_vec3, "center": _to_vec3, "smooth_cells": float,
    },
    "scheme": {
        "method": str.lower, "dt": float, "dt_min": float, "dt_max": float,
        "cfl": float, "adaptive": _to_bool,
    },
    "run": {
        "t_end": float, "ic": str.lower, "ic_amplitude": float, "ic_seed": int,
        "ic_energy": float, "ic_slope": float, "diag_stride": int, "snapshot_stride": int,
        "output_dir": str, "run_id": str,
    },
}

# dataclass field of each key whose name differs; the ic keys set InitialSpec
_FIELD = {"l": "length", "cfl": "cfl_target", "ic": "kind", "ic_amplitude": "amplitude",
          "ic_seed": "seed", "ic_energy": "energy", "ic_slope": "slope"}

_REQUIRED = (("physics", "mu"), ("physics", "alpha"), ("physics", "beta"),
             ("grid", "n"), ("grid", "l"))


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (p.strip() for p in line.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        entries[(section, key)] = (value, lineno)
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse a configuration; the dataclasses it builds check every range."""
    entries = _parse_lines(text)
    for sec, key in _REQUIRED:
        if (sec, key) not in entries:
            raise ConfigError(f"missing required key {key!r} in [{sec}]")

    top: dict[str, object] = {}
    initial: dict[str, object] = {}
    kwargs = {"physics": top, "grid": top, "run": top, "forcing": {}, "scheme": {}}
    for (sec, key), (raw, lineno) in entries.items():
        try:
            value = _SCHEMA[sec][key](raw)  # type: ignore[operator]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        target = initial if key.startswith("ic") else kwargs[sec]
        target[_FIELD.get(key, key)] = value

    with checked("scheme"):
        scheme = SchemeConfig(**kwargs["scheme"])
    with checked("forcing"):
        forcing = ForcingSpec(**kwargs["forcing"])
    with checked("run"):
        initial = InitialSpec(**initial)
    return RunConfig(**top, forcing=forcing, initial=initial, scheme=scheme)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def build_grid(cfg: RunConfig) -> WaveGrid:
    return WaveGrid(cfg.n, cfg.length)


def build_forcing(cfg: RunConfig, grid: WaveGrid) -> ForcingField:
    return cfg.forcing.build(grid)


def build_initial(cfg: RunConfig, grid: WaveGrid) -> SpectralVelocity:
    return cfg.initial.build(grid)


def build_physics(cfg: RunConfig, grid: WaveGrid) -> Physics:
    return Physics(mu=cfg.mu, alpha=cfg.alpha, beta=cfg.beta, forcing=build_forcing(cfg, grid))


def build_state(cfg: RunConfig, grid: WaveGrid) -> SolverState:
    return SolverState(t=0.0, u=build_initial(cfg, grid))


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

_DECAY_SHEAR = """\
# Single shear mode decaying under viscosity and linear damping.
# Exact solution: |u(t)|^2 = |u0|^2 exp(-2 (mu (2 pi/L)^2 + alpha) t).
[physics]
mu = 0.1
alpha = 0.2
beta = 1

[grid]
n = 16
l = 6.283185307179586

[scheme]
method = if-rk2
dt = 0.001
adaptive = false

[run]
t_end = 5.0
ic = shear
ic_amplitude = 1.0
diag_stride = 50
run_id = decay-shear-b1
"""

_CYLINDER_TEMPLATE = """\
# Cylinder-forced box: constant force (0,2,0) inside a centred cylinder of
# radius and height L/3 with axis along y, fluid initially at rest.
[physics]
mu = 1.0
alpha = {alpha}
beta = {beta}

[grid]
n = 32
l = 12.0

[forcing]
kind = cylinder

[scheme]
method = if-rk2
dt = 0.01
dt_max = 0.05
adaptive = true

[run]
t_end = 60.0
ic = zero
diag_stride = 10
run_id = {name}
"""


PRESETS: dict[str, str] = {
    "decay-shear-b1": _DECAY_SHEAR,
}
for _a in (0.2, 0.5):
    for _b in (1, 2, 4):
        _name = f"cylinder-a{_a:g}-b{_b:g}".replace(".", "")
        PRESETS[_name] = _CYLINDER_TEMPLATE.format(alpha=_a, beta=_b, name=_name)


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_text(name: str) -> str:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_text(name))
