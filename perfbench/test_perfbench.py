"""Smoke test of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload at a tiny size through run.py, checks that every metric
named in BENCHMARK.json is printed with its unit, and that corrupted outputs
are counted as failed points.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def bench(workload, *flags, seed=0, trace=0, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *flags],
        capture_output=True, text=True, timeout=180, cwd=root,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def assert_metrics(result, report, declared):
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", report, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = result_of(bench(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, report, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"^\s+failed_fraction\s+0\s+fraction\b", report, re.M)
    assert re.search(r"point_ms_tail .* p\d+ of \d+ samples", report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, report = result_of(bench(workload, seed=7, trace=1))
    assert result["correct"]
    assert_metrics(result, report, SPEC["per_layer"])
    detail = json.loads((HERE / "out" / f"{workload}-seed7-trace1.json").read_text())
    trace = detail["worker"]["trace"]
    bound = max(m["bound"] for m in SPEC["end_to_end"])
    # Self times less the tracing overhead account for the plain wall time.
    assert abs(trace["accounting_error"]) < bound
    assert abs(result["metrics"]["trace.overhead_s"]["value"]) < bound * trace["plain_wall_s"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["steady_state.solve_calls_sparse"] == 0
    if workload == "analytic-theta-map":
        assert values["steady_state.solve_steady_state.calls"] == 0
        assert values["analytic.amplitudes_for.calls"] > 0
    else:
        assert values["steady_state.solves_per_point"] >= 1
    if workload == "n3-theta-optimum":
        assert values["steady_state.solves_per_point"] == 1
        assert values["sweep.evals_per_optimum"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_outputs_fail_against_reference(workload):
    result, report = result_of(bench(workload, "--corrupt"))
    assert not result["correct"] and result["failed"] > 0
    assert not re.search(r"^\s+failed_fraction\s+0\s", report, re.M)


@pytest.mark.parametrize("workload", ["n3-theta-optimum", "analytic-theta-map"])
def test_corrupted_outputs_fail_on_any_seed(workload):
    """The weak-drive and closed-form oracles do not need the stored reference."""
    result, _ = result_of(bench(workload, "--corrupt", seed=5))
    assert not result["correct"] and result["failed"] > 0


def test_figures_come_from_a_fixed_number_of_fastest_passes():
    """However many passes fit in a run, the pool holds the same few."""
    import worker

    class Runner:
        workload = types.SimpleNamespace(sample_passes=3, median_per_point=False)
        calls = 0

        def run_pass(self, tracer=None, flip=False):
            self.calls += 1
            wall = 1e-3 if self.calls % 2 else 2e-3
            return worker.Pass(wall, [wall / 7] * 7, [None] * 7)

    out = worker.measure(Runner(), 0.05, None)
    assert out["passes"] > 6
    assert out["samples"] == 21 and out["tail_percentile"] == 52
    assert out["wall_s"] == 1e-3 and out["point_ms_p50"] == pytest.approx(1e-3 / 7 * 1e3)


def test_optimum_vertex_oracle():
    from oracle import check_optimum, parabola_vertex
    from workloads import DEFAULT_SEED, WORKLOADS as MAKERS

    evals = [(x, 3 * (x - 0.2) ** 2 + 1) for x in (0.0, 0.1, 0.15, 0.3, 0.5)]
    assert parabola_vertex(evals) == pytest.approx(0.2)
    workload = MAKERS["n3-theta-optimum"](DEFAULT_SEED)
    theta0 = workload.optimum.expected
    for shift, ok in ((0.0, True), (0.01, False)):
        centre = theta0 * (1 + shift)
        evals = [(x, 1e-4 + (x / theta0 - 1 - shift) ** 2)
                 for x in centre * numpy.linspace(0.8, 1.2, 7)]
        assert (check_optimum(workload, (theta0, 1e-4), evals, None) is None) == ok


def test_default_seed_reproduces_presets():
    from magnon_blockade import preset_sweeps
    from workloads import DEFAULT_SEED, WORKLOADS as MAKERS

    theta = MAKERS["analytic-theta-map"](DEFAULT_SEED)
    n1 = [s.grid for s in theta.items if s.label.startswith("n1-")]
    assert n1 == [spec.grid for _, spec in preset_sweeps("fig2")]
    n2 = [s.grid for s in theta.items if s.label.startswith("n2-")]
    assert n2 == [spec.grid for _, spec in preset_sweeps("fig6")]
    detuning = MAKERS["n2-detuning-sweep"](DEFAULT_SEED)
    assert detuning.items[0].grid == preset_sweeps("fig4")[0][1].grid[::2]
    for name, make in MAKERS.items():
        other = make(DEFAULT_SEED + 1)
        assert all(a != b for a, b in zip(make(DEFAULT_SEED).items, other.items)), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("analytic-theta-map", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
