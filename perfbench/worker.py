"""One benchmark process: import the package, warm up, then time whole passes.

Started by run.py with a fixed BLAS thread count.  Prints one JSON object
on its last stdout line.  With --setup-only it stops after the warm-up and
reports only its set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import heapq
import json
import math
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import magnon_blockade  # noqa: E402  (needs SRC on the path)
import numpy  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from tracing import DENSE_SOLVE_MAX_ROWS, Tracer  # noqa: E402
from workloads import SMOKE_SIZES, WORKLOADS  # noqa: E402

#: A run times at least this many passes.  With two, even the shortest pass
#: (10 evaluations) leaves 10 samples beyond the tail percentile, and the
#: tail of the bimodal N = 2 sweep falls inside its slow mode, not on the edge.
MIN_PASSES = 2

#: Spans a traced run keeps for its spans file.
KEEP_SPANS = 50_000


def tail_percentile(pool: int) -> int:
    """Highest whole percentile leaving 10 samples beyond it in a pool this size (max p99)."""
    return min(99, max(0, 100 * (pool - 10) // pool))


def nearest_rank(sorted_values, percentile: float) -> float:
    k = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[k - 1]


@dataclasses.dataclass
class Pass:
    """One pass: plain wall time, plain point latencies and every point's verdict.

    A traced run times each point twice, plain and traced; the traced
    figures are then filled in too.
    """

    wall: float
    latencies: list[float]
    verdicts: list[str | None]
    traced_wall: float = 0.0
    traced_points: int = 0


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, workload, reference, corrupt: bool):
        self.sweep = magnon_blockade.sweep
        self.workload = workload
        self.reference = reference
        self.corrupt = corrupt
        self.optimum = workload.optimum
        self.points = None if self.optimum else workload.points()
        self.oracle = None if self.optimum else oracle.SweepOracle(workload, reference)
        if self.optimum is not None and not callable(getattr(self.sweep, "numeric_g2", None)):
            raise SystemExit(
                "sweep.numeric_g2 is gone: the optimum workload times each "
                "objective evaluation through it, so the benchmark needs updating"
            )

    def warm_up(self):
        if self.optimum is not None:
            self.sweep.numeric_g2(self.optimum.base)
        else:
            self.sweep.run_sweep(self.points[0][1])

    def run_pass(self, tracer=None, flip: bool = False) -> Pass:
        """Time one pass, then check its outputs.

        With a tracer, every sweep point is evaluated plain and traced, in
        alternating order, and an optimum search is run plain and traced,
        in the order ``flip`` picks; so both see the same machine.
        """
        if self.optimum is None:
            return self._sweep_pass(tracer, flip)
        if tracer is None:
            return self._optimum_pass(None)
        if flip:
            traced = self._optimum_pass(tracer)
            plain = self._optimum_pass(None)
        else:
            plain = self._optimum_pass(None)
            traced = self._optimum_pass(tracer)
        return Pass(plain.wall, plain.latencies, plain.verdicts + traced.verdicts,
                    traced.wall, len(traced.latencies))

    def _point(self, spec, tracer):
        """Time one run_sweep call, traced if a tracer is given."""
        clock = time.perf_counter
        if tracer is not None:
            tracer.point += 1
            tracer.install()
        try:
            t = clock()
            rec = self.sweep.run_sweep(spec)[0]
            return clock() - t, rec
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _sweep_pass(self, tracer, flip):
        latencies, records = [], []
        traced_latencies, traced_records = [], []
        start = time.perf_counter()
        for k, (label, spec) in enumerate(self.points):
            if tracer is None:
                order = (None,)
            else:
                order = (None, tracer) if (k + flip) % 2 == 0 else (tracer, None)
            for tr in order:
                dt, rec = self._point(spec, tr)
                (latencies if tr is None else traced_latencies).append(dt)
                (records if tr is None else traced_records).append((label, rec))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.fold()
        if self.corrupt:
            records = [(label, _corrupted(rec)) for label, rec in records]
            traced_records = [(label, _corrupted(rec)) for label, rec in traced_records]
        verdicts = self.oracle.check(records)
        if tracer is None:
            return Pass(wall, latencies, verdicts)
        verdicts += self.oracle.check(traced_records)
        return Pass(sum(latencies), latencies, verdicts,
                    sum(traced_latencies), len(traced_latencies))

    def _optimum_pass(self, tracer):
        clock = time.perf_counter
        objective = self.sweep.numeric_g2
        latencies, evals = [], []

        def timed(p):
            if tracer is not None:
                tracer.point += 1
            t = clock()
            try:
                g2 = objective(p)
            finally:
                latencies.append(clock() - t)
            evals.append((p.phase, g2))  # the search runs along theta
            return g2

        opt = self.optimum
        if tracer is not None:
            tracer.install()
        self.sweep.numeric_g2 = timed
        start = clock()
        try:
            result = self.sweep.find_minimum(
                opt.base, opt.axis, opt.bracket, engine="numeric",
                n_scan=opt.n_scan, rel_tol=opt.rel_tol,
            )
        except Exception as exc:  # counted as failed points below
            result = exc
        finally:
            wall = clock() - start
            self.sweep.numeric_g2 = objective
            if tracer is not None:
                tracer.uninstall()
                tracer.fold()
        if self.corrupt and not isinstance(result, Exception):
            result = (1.5 * result[0], result[1])
        verdict = oracle.check_optimum(self.workload, result, evals, self.reference)
        return Pass(wall, latencies, [verdict] * max(1, len(latencies)))


def _corrupted(rec):
    scale = {"g2_numeric": 1.5, "g2_analytic": 0.5}
    return dataclasses.replace(rec, **{
        k: v * getattr(rec, k) for k, v in scale.items() if getattr(rec, k) is not None
    })


def measure(runner: Runner, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat passes for about `seconds`, with a tracer at least one, without at least two.

    The end-to-end figures come from the workload's ``sample_passes``
    fastest passes: wall time and rate are their medians, and the point
    latencies are pooled from them.  On a shared machine whose speed flips
    between a contended and an uncontended mode every few seconds, the
    fastest passes measure the code at the uncontended speed, while the
    median of all passes measures how long the run spent in each mode.  A
    fixed number of passes also keeps the pool's size, its tail percentile
    and its memory the same however many passes a faster or slower commit
    fits in the run.
    """
    passes = []  # (plain wall, traced wall, points, traced points) per pass
    fastest = []  # max-heap of (-wall, pass index, point latencies)
    keep = runner.workload.sample_passes
    iteration_s = []
    attempted = failed = 0
    first_failure = None
    clock = time.perf_counter
    start = clock()
    while True:
        t = clock()
        p = runner.run_pass(tracer, flip=len(passes) % 2 == 1)
        iteration_s.append(clock() - t)
        passes.append((p.wall, p.traced_wall, len(p.latencies), p.traced_points))
        heapq.heappush(fastest, (-p.wall, len(passes), array("d", p.latencies)))
        if len(fastest) > keep:
            heapq.heappop(fastest)
        bad = [v for v in p.verdicts if v is not None]
        attempted += len(p.verdicts)
        failed += len(bad)
        first_failure = first_failure or (bad[0] if bad else None)

        enough = len(passes) >= (1 if tracer is not None else MIN_PASSES)
        if enough and clock() - start + 0.5 * statistics.median(iteration_s) >= seconds:
            break

    kept = [(-neg_wall, lat) for neg_wall, _, lat in fastest]
    if runner.workload.median_per_point:
        pool = numpy.median(numpy.stack([numpy.frombuffer(lat) for _, lat in kept]), axis=0)
    else:
        pool = numpy.concatenate([numpy.frombuffer(lat) for _, lat in kept])
    ordered = numpy.sort(pool)
    percentile = tail_percentile(len(ordered))
    out = {
        "passes": len(passes),
        "kept_passes": len(kept),
        "pass_points": passes[0][2],
        "wall_s": statistics.median(w for w, _ in kept),
        "points_per_s": statistics.median(len(lat) / w for w, lat in kept),
        "point_ms_p50": 1e3 * float(numpy.median(ordered)),
        "point_ms_tail": 1e3 * float(nearest_rank(ordered, percentile)),
        "tail_percentile": percentile,
        "samples": len(ordered),
        "median_per_point": runner.workload.median_per_point,
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
    }
    if tracer is not None:
        out["trace"] = layer_metrics(tracer, passes)
    return out


def layer_metrics(tracer, passes) -> dict:
    """Per-layer metrics per traced pass, plus the traced-run extras."""
    n = len(passes)
    points = sum(tp for _, _, _, tp in passes)
    plain_wall = statistics.fmean(w for w, _, _, _ in passes)
    traced_wall = statistics.fmean(tw for _, tw, _, _ in passes)
    summary = tracer.summary()
    total_self = sum(v["self_s"] for v in summary.values())
    metrics = {}
    for layer, v in summary.items():
        metrics[f"{layer}.calls"] = v["calls"] / n
        metrics[f"{layer}.self_s"] = v["self_s"] / n
        metrics[f"{layer}.self_share"] = v["self_s"] / (total_self or 1.0)
    rows = [r for r in tracer.solve_rows if r is not None]
    solves = len(tracer.solve_rows)
    optima = summary["sweep.find_minimum"]["calls"]
    overhead = traced_wall - plain_wall
    metrics.update({
        "steady_state.solves_per_point": solves / points,
        "steady_state.useful_solve_ratio": points / solves if solves else 0.0,
        "steady_state.solve_dim_max": max(rows, default=0),
        "steady_state.solve_calls_sparse": sum(r > DENSE_SOLVE_MAX_ROWS for r in rows) / n,
        "steady_state.solve_bytes_computed":
            sum(16 * r * r for r in rows if r <= DENSE_SOLVE_MAX_ROWS) / n,
        "sweep.evals_per_optimum": points / optima if optima else 0.0,
        "trace.overhead_s": overhead,
    })
    # The self times include the wrappers' cost (see Tracer), so they add up
    # to the traced wall time; less the overhead, to the plain one.
    accounted = total_self / n - overhead
    return {"metrics": metrics, "absent": tracer.absent, "traced_passes": n,
            "traced_wall_s": traced_wall, "plain_wall_s": plain_wall,
            "self_total_s": total_self / n,
            "accounting_error": (accounted - plain_wall) / plain_wall}


def blas_facts() -> dict:
    """BLAS library numpy was built against and the thread count it runs with."""
    facts = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        facts["library"] = "unknown"
    threads = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = int(getattr(lib, symbol)())
                break
    facts["threads"] = threads
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny passes")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb every output before it is checked")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)

    where = Path(magnon_blockade.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"magnon_blockade was imported from {where}, not from {SRC}")
    size = SMOKE_SIZES[args.workload] if args.smoke else {}
    workload = WORKLOADS[args.workload](args.seed, **size)
    reference = oracle.reference_for(workload, args.seed, oracle.load_reference())
    runner = Runner(workload, reference, args.corrupt)
    runner.warm_up()
    out = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        tracer = Tracer(KEEP_SPANS) if args.trace else None
        out.update(measure(runner, args.seconds, tracer))
        if tracer is not None and args.spans:
            tracer.write(args.spans)
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "magnon_blockade": getattr(magnon_blockade, "__version__", "unknown"),
        }
        out["blas"] = blas_facts()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
