#!/usr/bin/env python3
"""qesa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed makes the workload's instances; the
run sets up, measures for S seconds, checks every result and prints a table
of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs half the time untraced and half with qesa's public functions wrapped
by ``perfbench.tracer``, and reports the per-layer metrics, including the
tracing overhead. Results, machine facts and spans go to ``perfbench/out``.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# one BLAS thread per process: GRID_JOBS workers x 1 thread <= nproc on 2 cores
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Find qesa's sources in this checkout and pin BLAS threads; exit 2 without them."""
    if not (SRC / "qesa" / "__init__.py").is_file():
        print(f"error: {SRC / 'qesa'} not found; run from a qesa checkout", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # the loop-back sampler and the set-up probes are separate interpreters
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    from perfbench import report

    if args.workload not in report.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(report.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    result = report.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
