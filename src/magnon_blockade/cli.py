"""Command-line front end.

Subcommands: `steady g2`, `sweep`, `optimize`, `verify-scaling`, and
`preset fig2..fig7`.  Parameters come from flags and/or a flat key=value
config file, read once per command; flags win.  PARAM_KEYS are the fields
of ModelParams, and those without a default are required.  Each key of
PARAM_KEYS and SWEEP_KEYS is also the flag `--` + key with `_` turned into
`-`.  All rates are in units of gamma (gamma / 2 pi = 1 MHz), angles in
radians.

Exit codes, all mapped in `main`: 0 success, 1 configuration error (any
ValueError the library raises for the given input, a ZeroDivisionError such
as an analytic `optimize` at a resonance or an undriven point, a bad
grid_scale, or an OSError such as a missing config file or an unusable
output path, which is opened before the first point), 2 when any sweep row
or scaling entry failed or a single-point solve did not converge or had no
unique steady state.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .model import ModelParams
from .observables import blockade_metrics
from .steady_state import (
    N_MAX_LIMIT, N_MAX_START, SteadyStateError, TruncationError, build_liouvillian,
    converge_truncation, solve_steady_state,
)
from .sweep import (
    ENGINES,
    PRESETS,
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

PARAM_KEYS = typing.get_type_hints(ModelParams)

SWEEP_KEYS = {
    "axis": str,
    "grid_start": float,
    "grid_stop": float,
    "grid_points": int,
    "grid_scale": str,
    "engine": str,
}

FLAG_HELP = {
    "fock_cutoff": (
        "Fock cutoff of `steady g2` without --converge and of numeric `optimize` "
        f"(default {ModelParams.fock_cutoff}); numeric `sweep` rows escalate from "
        f"{N_MAX_START} to {N_MAX_LIMIT} and ignore it"),
    "grid_scale": "lin (default) or log",
    "engine": f"{', '.join(ENGINES)}, or {','.join(ENGINES)}",
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    """Flat key=value file, each key at most once; blank lines and # comments are ignored."""
    values, lines = {}, {}
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
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        try:
            values[key] = known[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _add_key_flags(parser: argparse.ArgumentParser, keys: dict):
    """One --flag per config key: `--` + the key with `_` turned into `-`."""
    for key, kind in keys.items():
        parser.add_argument(
            "--" + key.replace("_", "-"), type=kind, dest=key, help=FLAG_HELP.get(key)
        )


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value parameter file")
    _add_key_flags(parser, PARAM_KEYS)


def _collect_params(args) -> tuple[ModelParams, dict]:
    """The model parameters and every config value, read once; flags win."""
    values = load_config(args.config) if args.config else {}
    for key in (*PARAM_KEYS, *SWEEP_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    missing = [f.name for f in fields(ModelParams) if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    return ModelParams(**{k: v for k, v in values.items() if k in PARAM_KEYS}), values


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(records: list[SweepRecord], stream):
    """One row per record; every CSV column is the SweepRecord attribute of its name."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow([_format(getattr(rec, column)) for column in CSV_HEADER])


def _emit_records(records, stream) -> int:
    write_csv(records, stream)
    failed = [r for r in records if r.error is not None]
    for rec in failed:
        print(f"row {_format(rec.axis_value)}: {rec.error}", file=sys.stderr)
    return 2 if failed else 0


def cmd_steady_g2(args) -> int:
    p, _ = _collect_params(args)
    if args.converge:
        rho = converge_truncation(p)
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
    base, values = _collect_params(args)
    axis, start, stop, points = (
        values.get(k) for k in ("axis", "grid_start", "grid_stop", "grid_points")
    )
    scale = values.get("grid_scale") or "lin"
    engine = values.get("engine") or "numeric"
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
    spec = SweepSpec(base, axis, grid, engines, probe_tracks_drive=args.probe_tracks_drive)
    # Open the output before the first point, so an unusable path costs no solve.
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
        return _emit_records(run_sweep(spec), out)


def cmd_optimize(args) -> int:
    base, _ = _collect_params(args)
    argmin, minimum = find_minimum(
        base, args.axis, (args.bracket_lo, args.bracket_hi), engine=args.engine
    )
    print(f"argmin = {argmin:.8g}")
    print(f"min_g2 = {minimum:.6e}")
    print(f"log10_min_g2 = {math.log10(minimum):.4f}" if minimum > 0 else "log10_min_g2 = -inf")
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
        path = out_dir / f"{args.name}_{label}.csv"
        with open(path, "w") as out:
            records = run_sweep(spec)
            status = max(status, _emit_records(records, out))
        print(f"{path} ({len(records)} rows, {sum(r.error is not None for r in records)} failed)")
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
    _add_key_flags(sweep, SWEEP_KEYS)
    sweep.add_argument("--probe-tracks-drive", type=float, dest="probe_tracks_drive",
                       help="on drive sweeps, keep probe at this multiple of drive")
    sweep.add_argument("--output", help="CSV path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    opt = sub.add_parser("optimize", help="golden-section g2 minimum along an axis")
    _add_param_flags(opt)
    opt.add_argument("--axis", required=True)
    opt.add_argument("--bracket-lo", type=float, required=True, dest="bracket_lo")
    opt.add_argument("--bracket-hi", type=float, required=True, dest="bracket_hi")
    opt.add_argument("--engine", default="numeric", choices=ENGINES)
    opt.set_defaults(func=cmd_optimize)

    scaling = sub.add_parser("verify-scaling", help="fit sqrt(N) scaling of the "
                             "optimal conditions at Fock cutoff 2")
    scaling.add_argument("--n-list", default="1,2,3", dest="n_list")
    scaling.add_argument("--r", type=float, default=0.025)
    scaling.add_argument("--coupling", type=float, default=20.0)
    scaling.set_defaults(func=cmd_verify_scaling)

    preset = sub.add_parser("preset", help="pinned figure-reproduction sweeps")
    preset.add_argument("name", choices=PRESETS)
    preset.add_argument("--output-dir", default=".", dest="output_dir")
    preset.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, SteadyStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
