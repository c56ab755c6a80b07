#!/usr/bin/env python3
"""The shapeform benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; shapeform is imported from its
``src/`` directory.  With ``--trace 0`` the run times plans back to back
(a closed loop with one client) and reports the end-to-end metrics; with
``--trace 1`` it plans the pool once untimed and once with spans around
shapeform's public functions, and reports the per-layer metrics.  Every
plan is checked either way.  The last line of standard output is one JSON
object; the full report, and the spans of a traced run, are written under
``perfbench/out/``.  See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mixed", "singletons", "blocks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_shapeform() -> float:
    """Import shapeform from the checkout's ``src``; returns the seconds taken."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    package = importlib.import_module("shapeform")
    elapsed = time.perf_counter() - started
    if Path(package.__file__).resolve().parent != (SRC / "shapeform").resolve():
        raise ImportError(f"shapeform was imported from {package.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shapeform" / "__init__.py").is_file():
        print(f"perfbench: no shapeform sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import_s = import_shapeform()
    import bench

    return bench.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
