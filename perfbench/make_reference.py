"""Regenerate reference.json: the default-seed outputs the oracle compares to.

    python3 perfbench/make_reference.py

Run it only in a change of its own that touches nothing but the benchmark,
for instance after a fix to the model's conventions; the stored outputs
are what makes a silently wrong answer count as a failed point.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from magnon_blockade import find_minimum, run_sweep  # noqa: E402

from oracle import REFERENCE_PATH, optimum_key, point_key, record_outputs  # noqa: E402
from workloads import DEFAULT_SEED, SMOKE_SIZES, WORKLOADS  # noqa: E402


def outputs(workload) -> dict:
    opt = workload.optimum
    if opt is not None:
        argmin, minimum = find_minimum(opt.base, opt.axis, opt.bracket, engine="numeric",
                                       n_scan=opt.n_scan, rel_tol=opt.rel_tol)
        return {optimum_key(opt): {"argmin": argmin, "log10_min_g2": math.log10(minimum)}}
    return {
        point_key(label, spec.grid[0]): record_outputs(run_sweep(spec)[0])
        for label, spec in workload.points()
    }


def main() -> int:
    reference = {}
    for name, make in WORKLOADS.items():
        stored = outputs(make(DEFAULT_SEED))
        # The smoke test's passes are subsets of the full ones, except the
        # optimum, whose looser tolerance ends the search elsewhere.
        stored.update(outputs(make(DEFAULT_SEED, **SMOKE_SIZES[name])))
        reference[name] = stored
        print(f"{name}: {len(stored)} stored outputs", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
