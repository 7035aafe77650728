#!/usr/bin/env python3
"""Benchmark of the bimetal pipeline on seeded synthetic data.

Run from the repository root:

    python3 perfbench/run.py --workload em_default_T500 --seed 1 --seconds 10 --trace 0

It simulates the workload's dataset from ``--seed``, times the public
pipeline calls on it for at least ``--seconds``, checks every output, and
prints a summary followed, on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` makes one untraced and one traced
pass and reports the per-layer metrics (see perfbench/README.md).

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap every BLAS/OpenMP thread pool at nproc; must run before numpy
    is imported. Subprocesses inherit the same caps."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))


def bootstrap() -> None:
    """Make ``import bimetal`` load this checkout's ``src/``, or exit 2."""
    if not (SRC / "bimetal" / "__init__.py").is_file():
        print(f"error: no bimetal package under {SRC}", file=sys.stderr)
        sys.exit(2)
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import bimetal

    if Path(bimetal.__file__).resolve().parent != SRC / "bimetal":
        print(f"error: imported bimetal from {bimetal.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    os.chdir(ROOT)
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    bench.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
