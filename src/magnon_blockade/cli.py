"""Command-line front end.

Subcommands: `steady g2`, `sweep`, `optimize`, `verify-scaling`, and
`preset fig2..fig7`.  Parameters come from flags and/or a flat key=value
config file; flags win.  All rates are in units of gamma (gamma / 2 pi =
1 MHz), angles in radians.

Exit codes: 0 success, 1 configuration error (any ValueError the library
raises for the given input), 2 when any sweep row or scaling entry failed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .model import ModelParams
from .sweep import (
    SweepRecord,
    SweepSpec,
    find_minimum,
    preset_sweeps,
    run_sweep,
    verify_scaling,
)

CSV_HEADER = [
    "axis_value",
    "g2_numeric",
    "log10_g2_numeric",
    "g2_analytic",
    "log10_g2_analytic",
    "p1",
    "occupation",
    "n_max",
    "classification",
]

PARAM_KEYS = {
    "n_modes": int,
    "delta": float,
    "coupling": float,
    "probe_rabi": float,
    "drive_rabi": float,
    "phase": float,
    "decay": float,
    "fock_cutoff": int,
}

SWEEP_KEYS = {
    "engine": str,
    "axis": str,
    "grid_start": float,
    "grid_stop": float,
    "grid_points": int,
    "grid_scale": str,
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are ignored."""
    values = {}
    known = {**PARAM_KEYS, **SWEEP_KEYS}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = known[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value parameter file")
    parser.add_argument("--n-modes", type=int, dest="n_modes")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--coupling", type=float)
    parser.add_argument("--probe-rabi", type=float, dest="probe_rabi")
    parser.add_argument("--drive-rabi", type=float, dest="drive_rabi")
    parser.add_argument("--phase", type=float)
    parser.add_argument("--decay", type=float)
    parser.add_argument("--fock-cutoff", type=int, dest="fock_cutoff")


def _collect_params(args) -> ModelParams:
    values = load_config(args.config) if args.config else {}
    for key in PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    missing = [k for k in ("n_modes", "delta", "coupling", "probe_rabi",
                           "drive_rabi", "phase", "decay") if k not in values]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    try:
        return ModelParams(**{k: v for k, v in values.items() if k in PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _collect_sweep_key(args, values, key, flag_name=None):
    flag = getattr(args, flag_name or key, None)
    if flag is not None:
        values[key] = flag
    return values.get(key)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(records: list[SweepRecord], stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(
            [
                _format(rec.axis_value),
                _format(rec.g2_numeric),
                _format(rec.log10_g2_numeric),
                _format(rec.g2_analytic),
                _format(rec.log10_g2_analytic),
                _format(rec.p1),
                _format(rec.occupation),
                _format(rec.n_max),
                _format(rec.classification),
            ]
        )


def _emit_records(records, output: str | None) -> int:
    if output:
        with open(output, "w") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)
    failed = [r for r in records if r.error is not None]
    for rec in failed:
        print(f"row {_format(rec.axis_value)}: {rec.error}", file=sys.stderr)
    return 2 if failed else 0


def cmd_steady_g2(args) -> int:
    from .observables import blockade_metrics, g2_zero_delay
    from .steady_state import build_liouvillian, converge_truncation, solve_steady_state

    p = _collect_params(args)
    if args.converge:
        rho = converge_truncation(p, g2_zero_delay)
    else:
        rho = solve_steady_state(build_liouvillian(p))
    m = blockade_metrics(rho)
    print(f"g2 = {m.g2_zero:.6e}")
    print(f"log10_g2 = {math.log10(m.g2_zero):.4f}" if m.g2_zero > 0 else "log10_g2 = -inf")
    print(f"p1 = {m.p1:.6e}")
    print(f"occupation = {m.occupation:.6e}")
    print(f"n_max = {m.n_max}")
    print(f"classification = {m.classification}")
    return 0


def cmd_sweep(args) -> int:
    base = _collect_params(args)
    values = load_config(args.config) if args.config else {}
    axis = _collect_sweep_key(args, values, "axis")
    start = _collect_sweep_key(args, values, "grid_start")
    stop = _collect_sweep_key(args, values, "grid_stop")
    points = _collect_sweep_key(args, values, "grid_points")
    scale = _collect_sweep_key(args, values, "grid_scale") or "lin"
    engine = _collect_sweep_key(args, values, "engine") or "numeric"
    if axis is None or start is None or stop is None or points is None:
        raise ConfigError("sweep requires axis, grid_start, grid_stop, grid_points")
    if scale not in ("lin", "log"):
        raise ConfigError(f"grid_scale must be lin or log, got {scale!r}")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log grids require positive endpoints")
        grid = tuple(float(v) for v in np.geomspace(start, stop, points))
    else:
        grid = tuple(float(v) for v in np.linspace(start, stop, points))
    engines = tuple(e.strip() for e in engine.split(",") if e.strip())
    try:
        spec = SweepSpec(
            base,
            axis,
            grid,
            engines,
            probe_tracks_drive=args.probe_tracks_drive,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records = run_sweep(spec, workers=args.workers)
    return _emit_records(records, args.output)


def cmd_optimize(args) -> int:
    base = _collect_params(args)
    argmin, minimum = find_minimum(
        base,
        args.axis,
        (args.bracket_lo, args.bracket_hi),
        engine=args.engine,
    )
    print(f"argmin = {argmin:.8g}")
    print(f"min_g2 = {minimum:.6e}")
    print(f"log10_min_g2 = {math.log10(minimum):.4f}")
    return 0


def cmd_verify_scaling(args) -> int:
    try:
        n_list = tuple(int(s) for s in args.n_list.split(","))
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers: {exc}") from exc
    report = verify_scaling(n_list=n_list, r=args.r, coupling=args.coupling)
    print(f"r = {report.r}")
    for e in report.entries:
        if e.error:
            print(f"N={e.n_modes}: FAILED ({e.error})")
        else:
            print(
                f"N={e.n_modes}: delta/J = {e.delta_over_j:.4f}, "
                f"probe/drive = {e.probe_over_drive:.4f}, "
                f"theta*J/kappa = {e.theta_times_j_over_kappa:.4f}, "
                f"min g2 = {e.min_g2:.3e}"
            )
    for name, slope in report.exponents.items():
        print(f"exponent {name} = {slope:+.4f}")
    return 2 if any(e.error for e in report.entries) else 0


def cmd_preset(args) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for label, spec in preset_sweeps(args.name):
        records = run_sweep(spec, workers=args.workers)
        path = out_dir / f"{args.name}_{label}.csv"
        with open(path, "w") as fh:
            write_csv(records, fh)
        failed = sum(1 for r in records if r.error is not None)
        print(f"{path} ({len(records)} rows, {failed} failed)")
        if failed:
            status = 2
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnon-blockade",
        description="Steady-state blockade metrics for a driven qubit-N-mode system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    steady = sub.add_parser("steady", help="single-point steady-state quantities")
    steady_sub = steady.add_subparsers(dest="quantity", required=True)
    g2 = steady_sub.add_parser("g2", help="blockade metrics at one parameter point")
    _add_param_flags(g2)
    g2.add_argument("--converge", action="store_true",
                    help="escalate the Fock cutoff until g2 converges")
    g2.set_defaults(func=cmd_steady_g2)

    sweep = sub.add_parser("sweep", help="sweep one axis and emit CSV")
    _add_param_flags(sweep)
    sweep.add_argument("--axis")
    sweep.add_argument("--grid-start", type=float, dest="grid_start")
    sweep.add_argument("--grid-stop", type=float, dest="grid_stop")
    sweep.add_argument("--grid-points", type=int, dest="grid_points")
    sweep.add_argument("--grid-scale", choices=("lin", "log"), dest="grid_scale")
    sweep.add_argument("--engine", help="numeric, analytic, or numeric,analytic")
    sweep.add_argument("--probe-tracks-drive", type=float, dest="probe_tracks_drive",
                       help="on drive sweeps, keep probe at this multiple of drive")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--output", help="CSV path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    opt = sub.add_parser("optimize", help="golden-section g2 minimum along an axis")
    _add_param_flags(opt)
    opt.add_argument("--axis", required=True)
    opt.add_argument("--bracket-lo", type=float, required=True, dest="bracket_lo")
    opt.add_argument("--bracket-hi", type=float, required=True, dest="bracket_hi")
    opt.add_argument("--engine", default="numeric", choices=("numeric", "analytic"))
    opt.set_defaults(func=cmd_optimize)

    scaling = sub.add_parser("verify-scaling",
                             help="fit sqrt(N) scaling of the optimal conditions")
    scaling.add_argument("--n-list", default="1,2,3", dest="n_list")
    scaling.add_argument("--r", type=float, default=0.025)
    scaling.add_argument("--coupling", type=float, default=20.0)
    scaling.set_defaults(func=cmd_verify_scaling)

    preset = sub.add_parser("preset", help="pinned figure-reproduction sweeps")
    preset.add_argument("name", choices=[f"fig{i}" for i in range(2, 8)])
    preset.add_argument("--output-dir", default=".", dest="output_dir")
    preset.add_argument("--workers", type=int, default=1)
    preset.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
