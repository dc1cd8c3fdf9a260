#!/usr/bin/env python3
"""drillvol benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Workloads: cli_mix and smooth_sweep (see BENCHMARK.json for why each
exists).  The drillvol sources are taken from
``src/`` of the checkout; nothing needs to be installed.

The run prints an environment record, every metric with its unit, and as
its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones, from traced passes that alternate with
untraced ones on the same inputs.  A fuller record (with spans) is written to
.bench_out/.  --smoke runs one small block per workload, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One client, no extra threads: BLAS pools stay at one thread, in this
# process and in every process it starts.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(workloads, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small block per workload, to check the output schema")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "drillvol" / "__init__.py").is_file():
        print(f"error: drillvol sources not found at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from drillbench.harness import run  # imports numpy and drillvol
    from drillbench.workloads import WORKLOADS

    args = parse_args(list(WORKLOADS), argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(ROOT, args)


if __name__ == "__main__":
    sys.exit(main())
