"""Pseudo-spectral solver for 3D incompressible Navier-Stokes with damping.

The momentum equation carries a velocity-dependent drag alpha |u|^(beta-1) u
on a periodic torus; the package integrates the projected system, measures
every norm in the associated energy estimates, checks those estimates over
recorded trajectories, and orchestrates steady-state and perturbation
experiments.
"""

from .grid import GridError, WaveGrid, get_fft_workers
from .fields import (
    FieldError,
    ForcingField,
    ForcingSpec,
    InitialSpec,
    SpectralVelocity,
    h_inner,
    h_norm_sq,
    make_initial_condition,
)
from .timestepping import (
    BlowUpError,
    Observer,
    Physics,
    SchemeConfig,
    SolverError,
    SolverState,
    integrate,
    step,
)
from .diagnostics import DiagnosticsRecord, energy_balance_residual, record
from .bounds import (
    BoundReport,
    NotApplicable,
    RegimeError,
    check_absorbing_ball,
    check_damping_positivity,
    check_decay_bound,
    check_integral_bound,
    check_norm_boundedness,
    in_regularity_regime,
    in_uniqueness_regime,
    monotone_envelope_max_excess,
)
from .experiments import (
    SeparationResult,
    SweepResult,
    detect_steady_state,
    run_convergence_speed_sweep,
    run_to_steady,
    run_trajectory_separation,
)
from .config import (
    ConfigError,
    RunConfig,
    build_forcing,
    build_grid,
    build_initial,
    build_physics,
    build_state,
    load_preset,
    parse_config,
    preset_names,
)
from .storage import (
    DiagnosticsWriter,
    SnapshotHeader,
    StorageError,
    read_diagnostics,
    read_snapshot,
    write_snapshot,
)

__version__ = "0.1.0"
