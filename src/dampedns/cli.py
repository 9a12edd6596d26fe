"""Command-line entry points.

Subcommands: ``run`` (integrate one configuration), ``verify`` (run plus
every energy-estimate check, nonzero exit on a hard failure), ``sweep``
(convergence-speed sweep over the damping parameters), ``separate``
(trajectory-separation ratio test) and ``presets`` (list built-in
configurations). Summaries go to stdout as JSON; artifacts land in the
configured output directory.

Exit codes: 0 success, 1 failed checks or solver errors, 2 usage errors
(a missing, unreadable or invalid config, a config file given with --preset,
a bad preset or flag value, or a restart past t_end).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import (
    NotApplicable,
    RegimeError,
    check_absorbing_ball,
    check_damping_positivity,
    check_decay_bound,
    check_integral_bound,
    check_norm_boundedness,
    monotone_envelope_max_excess,
)
from .config import (
    ConfigError,
    RunConfig,
    build_grid,
    build_physics,
    build_state,
    checked,
    load_preset,
    parse_config,
    preset_names,
    preset_text,
)
from .diagnostics import record
from .experiments import (check_separation, check_separation_regime, check_sweep, run_convergence_speed_sweep,
                          run_trajectory_separation)
from .storage import (DiagnosticsWriter, StorageError, check_restart_compatible, make_output_dir,
                      read_diagnostics, read_snapshot, write_atomic, write_snapshot)
from .timestepping import Observer, SolverError, integrate

__all__ = ["main", "console_entry"]


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_config(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either a config file or --preset, not both")
    if args.preset:
        return load_preset(args.preset)
    if not args.config:
        raise ConfigError("either a config file or --preset is required")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def _run_one(cfg: RunConfig, restart: str | None = None):
    """Integrate one configuration, streaming diagnostics and snapshots.
    The returned records are read back, bit for bit, from the CSV it wrote."""
    grid = build_grid(cfg)
    physics = build_physics(cfg, grid)
    if restart:
        state, header = read_snapshot(restart)
        check_restart_compatible(header, grid, physics)
        if cfg.t_end < state.t:
            raise ConfigError(f"[run] t_end = {cfg.t_end} precedes the restart snapshot time {state.t}")
    else:
        state = build_state(cfg, grid)

    out_dir = make_output_dir(cfg.output_dir)
    csv_path = out_dir / f"{cfg.run_id}.csv"
    with DiagnosticsWriter(csv_path) as writer:  # published only if the run completes
        observers = [Observer(cfg.diag_stride, lambda st: writer.append(record(st.u, st.t, physics)))]
        if cfg.snapshot_stride > 0:
            observers.append(Observer(
                cfg.snapshot_stride,
                lambda st: write_snapshot(st, physics, out_dir / f"{cfg.run_id}-{st.step_count:08d}.snap"),
            ))
        state = integrate(state, cfg.t_end, cfg.scheme, physics, observers)
    write_snapshot(state, physics, out_dir / f"{cfg.run_id}-final.snap")
    return grid, physics, state, read_diagnostics(csv_path), csv_path


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    grid, physics, state, records, csv_path = _run_one(cfg, args.restart)
    _emit({
        "command": "run",
        "run_id": cfg.run_id,
        "t_end": state.t,
        "steps": state.step_count,
        "E_final": records[-1].E,
        "umax_final": records[-1].umax,
        "diagnostics": str(csv_path),
    })
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    grid, physics, state, records, csv_path = _run_one(cfg)
    lam1 = grid.lambda1
    f2 = physics.forcing.norm_sq
    # adaptive runs may step anywhere up to dt_max; scale tolerances to that
    dt = cfg.scheme.dt_max if cfg.scheme.adaptive else cfg.scheme.dt
    t0, t1 = records[0].t, records[-1].t

    rows = [r.row() for r in (
        check_damping_positivity(records),
        check_decay_bound(records, physics.mu, lam1, f2, dt=dt),
        check_integral_bound(records, t0, t1, physics.mu, physics.alpha, lam1, f2, dt=dt),
    )]
    # a check whose precondition this run does not meet gets a skipped row with the reason
    optional = (
        ("absorbing_ball",
         lambda: check_absorbing_ball(records, physics.mu, lam1, f2, dt=dt)),
        ("norm_boundedness",
         lambda: check_norm_boundedness(records, t0 + 0.25 * (t1 - t0), physics.mu, physics.alpha,
                                        physics.beta)),
        ("monotone_envelope",
         lambda: monotone_envelope_max_excess(records, physics.mu, lam1, f2, dt=dt)),
    )
    for bound_id, check in optional:
        try:
            rows.append(check().row())
        except NotApplicable as exc:
            rows.append({"bound_id": bound_id, "skipped": str(exc)})

    for row in rows:
        _emit(row)
    all_pass = all(row["pass"] for row in rows if "skipped" not in row)
    _emit({"command": "verify", "run_id": cfg.run_id, "all_pass": all_pass})
    return 0 if all_pass else 1


def _cmd_sweep(args) -> int:
    base = load_preset("cylinder-a02-b1")
    with checked("sweep", args.flags):
        # an adaptive step never reads dt; it only has to lie within [dt_min, dt_max]
        scheme = replace(base.scheme, dt=min(base.scheme.dt, args.dt_max), dt_max=args.dt_max)
        cfg = replace(base, n=args.n, mu=args.mu, scheme=scheme)
        steady = dict(stride=args.stride, steady_tol=args.steady_tol, max_t=args.max_t)
        check_sweep(args.alphas, args.betas, **steady)
    result = run_convergence_speed_sweep(cfg, args.alphas, args.betas, **steady, snapshot_dir=args.out)
    for row in result.table():
        _emit(row)
    _emit({
        "command": "sweep",
        "alpha_nonincreasing": {str(k): v for k, v in result.alpha_nonincreasing.items()},
        "beta_nonincreasing": {str(k): v for k, v in result.beta_nonincreasing.items()},
    })
    return 0


def _cmd_separate(args) -> int:
    base = load_preset("cylinder-a02-b1")
    with checked("separate", args.flags):
        # a fixed step never reads dt_max; it only has to bound dt
        scheme = replace(base.scheme, dt=args.dt, dt_max=max(base.scheme.dt_max, args.dt))
        initial = replace(base.initial, kind="random", seed=args.ic_seed, energy=args.ic_energy)
        cfg = replace(base, n=args.n, mu=args.mu, alpha=args.alpha, beta=args.beta, scheme=scheme, initial=initial)
        horizon = dict(stride=args.stride, max_t=args.max_t, perturb_seed=args.perturb_seed)
        check_separation(args.deltas, **horizon)
    check_separation_regime(cfg)
    out = make_output_dir(args.out) if args.out else None
    result = run_trajectory_separation(cfg, args.deltas, **horizon)
    for run in result.runs:
        _emit({"delta": run.delta, "max_ratio": run.ratio, "growth_rate": run.growth_rate})
    if out is not None:
        curves = out / "separation.csv"
        lines = ["t," + ",".join(f"d_{r.delta:g}" for r in result.runs) + "\n"]
        for i, t in enumerate(result.runs[0].times):
            row = [t] + [r.distances[i] for r in result.runs]
            lines.append(",".join(format(v, ".17g") for v in row) + "\n")
        write_atomic(curves, "separation curves", "".join(lines).encode())
        _emit({"separation_curves": str(curves)})
    _emit({
        "command": "separate",
        "ratio_spread": result.ratio_spread,
        "uniform_in_delta": result.uniform_in_delta,
    })
    return 0 if result.uniform_in_delta else 1


def _cmd_presets(args) -> int:
    for name in preset_names():
        cfg = load_preset(name)
        _emit({
            "preset": name, "mu": cfg.mu, "alpha": cfg.alpha, "beta": cfg.beta,
            "n": cfg.n, "l": cfg.length, "forcing": cfg.forcing.kind,
            "ic": cfg.initial.kind, "t_end": cfg.t_end,
        })
        if args.show:
            print(preset_text(name))
    return 0


def _floats(raw: str) -> list[float]:
    try:
        return [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedns",
        description="Pseudo-spectral damped Navier-Stokes solver and estimate verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("config", nargs="?", help="path to a config file")
    p_run.add_argument("--preset", help="built-in configuration name")
    p_run.add_argument("--restart", help="snapshot file to continue from")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run and check every energy estimate")
    p_ver.add_argument("config", nargs="?", help="path to a config file")
    p_ver.add_argument("--preset", help="built-in configuration name")
    p_ver.set_defaults(fn=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="convergence-speed sweep over (alpha, beta)")
    p_sw.add_argument("--alphas", type=_floats, default=[0.2, 0.5])
    p_sw.add_argument("--betas", type=_floats, default=[1.0, 2.0, 4.0])
    p_sw.add_argument("--n", type=int, default=32)
    p_sw.add_argument("--mu", type=float, default=1.0)
    p_sw.add_argument("--max-t", type=float, default=200.0, dest="max_t")
    p_sw.add_argument("--stride", type=float, default=0.25)
    p_sw.add_argument("--steady-tol", type=float, default=1e-6, dest="steady_tol")
    p_sw.add_argument("--dt-max", type=float, default=0.05, dest="dt_max")
    p_sw.add_argument("--out", default="out/sweep")
    p_sw.set_defaults(fn=_cmd_sweep)

    p_sep = sub.add_parser("separate", help="perturbation separation ratio test")
    p_sep.add_argument("--alpha", type=float, default=0.5)
    p_sep.add_argument("--beta", type=float, default=4.0)
    p_sep.add_argument("--mu", type=float, default=0.5)
    p_sep.add_argument("--n", type=int, default=32)
    p_sep.add_argument("--t", type=float, default=5.0, dest="max_t", metavar="T")
    p_sep.add_argument("--dt", type=float, default=0.01)
    p_sep.add_argument("--stride", type=float, default=0.25)
    p_sep.add_argument("--deltas", type=_floats, default=[1e-2, 1e-3, 1e-4])
    p_sep.add_argument("--seed", type=int, default=1, dest="ic_seed", metavar="SEED")
    p_sep.add_argument("--energy", type=float, default=1.0, dest="ic_energy", metavar="ENERGY")
    p_sep.add_argument("--perturb-seed", type=int, default=7, dest="perturb_seed")
    p_sep.add_argument("--out", default=None, help="directory for the separation-curve CSV")
    p_sep.set_defaults(fn=_cmd_separate)

    for p in (p_sw, p_sep):  # an option's dest is the key it sets, so its errors can name the flag
        p.set_defaults(flags={a.dest: a.option_strings[-1] for a in p._actions if a.dest != "help"})

    p_pre = sub.add_parser("presets", help="list built-in configurations")
    p_pre.add_argument("--show", action="store_true", help="print the full config text")
    p_pre.set_defaults(fn=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
