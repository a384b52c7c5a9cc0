"""Benchmark of the magnon-blockade simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload n2-detuning-sweep --seed 0 --seconds 25 --trace 0

Run it from anywhere; it imports the package from the ``src/`` directory next
to this one and builds nothing.  A run starts three fresh worker processes
in turn, each with the same fixed BLAS thread count: a set-up probe, the
measuring worker, and another set-up probe.  set-up time is the median of
the three.  The measuring worker repeats whole passes of the workload for
about ``--seconds`` seconds and checks every output (see oracle.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the worker runs every sweep point, or every optimum search,
both plain and traced, in alternating order, and the last line holds the
per-layer metrics.  The lines before it print every metric
by name with its unit, and the machine facts of the run.  Details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("n2-detuning-sweep", "n3-theta-optimum", "analytic-theta-map")

#: BLAS threads of every worker process, capped at the processors available.
BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Every process started by a run has ended by this many seconds after start.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "fraction"))},
    "steady_state.solves_per_point": "solves/point",
    "steady_state.useful_solve_ratio": "points/solve",
    "steady_state.solve_dim_max": "rows",
    "steady_state.solve_calls_sparse": "count",
    "steady_state.solve_bytes_computed": "bytes",
    "sweep.evals_per_optimum": "evals",
    "trace.overhead_s": "s",
}


class RunError(RuntimeError):
    pass


def machine_snapshot() -> dict:
    steal = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        if fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    except OSError:
        pass
    return {"loadavg_1m": os.getloadavg()[0], "steal_ticks": steal}


def start_worker(args, threads: int, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker printed no result:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run(args) -> tuple[dict, list[str]]:
    """Start the three processes of a run; return (result line, report lines)."""
    if not (ROOT / "src" / "magnon_blockade" / "__init__.py").is_file():
        raise RunError(f"no magnon_blockade package under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    before = machine_snapshot()

    setups = [start_worker(args, threads, deadline, "--setup-only")["setup_s"]]
    worker = start_worker(args, threads, deadline, "--spans", str(OUT / f"{stem}.spans.jsonl"))
    setups.append(worker["setup_s"])
    setups.append(start_worker(args, threads, deadline, "--setup-only")["setup_s"])

    after = machine_snapshot()
    steal = (after["steal_ticks"] - before["steal_ticks"]
             if None not in (before["steal_ticks"], after["steal_ticks"]) else None)
    machine = {
        "nproc": nproc,
        "blas_threads": threads,
        "loadavg_start": before["loadavg_1m"],
        "loadavg_end": after["loadavg_1m"],
        "steal_ticks": steal,
        **worker["versions"],
        "blas": worker["blas"]["library"],
        "blas_threads_seen": worker["blas"]["threads"],
    }

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": worker["wall_s"],
        "points_per_s": worker["points_per_s"],
        "point_ms_p50": worker["point_ms_p50"],
        "point_ms_tail": worker["point_ms_tail"],
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"median of the {worker['kept_passes']} fastest of {worker['passes']} "
                  f"passes of {worker['pass_points']} points",
        "points_per_s": f"median over the {worker['kept_passes']} fastest passes",
        "point_ms_p50": f"{worker['samples']} samples" + (
            f", each a point's median over {worker['kept_passes']} passes"
            if worker["median_per_point"] else ""),
        "point_ms_tail": f"p{worker['tail_percentile']} of {worker['samples']} samples",
        "peak_rss_mb": "measuring worker",
    }
    failed_fraction = worker["failed"] / worker["attempted"]

    report = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "machine " + json.dumps(machine),
    ]
    report += [f"  {name:<16} {values[name]:<14.6g} {unit:<8} {notes[name]}"
               for name, unit in END_TO_END.items()]
    report.append(f"  {'failed_fraction':<16} {failed_fraction:<14.6g} {'fraction':<8} "
                  f"{worker['failed']} of {worker['attempted']} points")
    if worker["first_failure"]:
        report.append(f"  first failure: {worker['first_failure']}")

    if args.trace:
        trace = worker["trace"]
        metrics = {name: {"value": trace["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        report.append(f"  {trace['traced_passes']} traced passes: mean wall "
                      f"{trace['traced_wall_s']:.6g} s traced, {trace['plain_wall_s']:.6g} s "
                      f"plain; layer self times add up to {trace['self_total_s']:.6g} s, "
                      f"less trace.overhead_s {trace['accounting_error']:+.2%} off the plain wall")
        report.append(f"  absent layers: {', '.join(trace['absent']) or 'none'}")
        report += [f"  {name:<44} {m['value']:<14.6g} {m['unit']}"
                   for name, m in metrics.items()]
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {"args": vars(args), "machine": machine, "setups": setups,
              "failed_fraction": failed_fraction, "worker": worker, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes, for the benchmark's own smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb every output before it is checked (smoke test)")
    args = parser.parse_args(argv)
    try:
        result, report = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
