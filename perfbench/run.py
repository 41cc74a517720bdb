#!/usr/bin/env python3
"""Benchmark of the adamf package: one workload per process.

    python3 perfbench/run.py --workload toy_train --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see BENCHMARK.json for both lists).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the same
numbers for reading.  ``--workload all`` runs every workload, each in a
process of its own, and ends with their combined result.

Every workload's work is fixed, so that two commits do the same work;
``--seconds`` is accepted and ignored.  ``--mem-cap-mb`` caps this
process's address space, so an over-budget run fails as a MemoryError and is
recorded as a failed run.  Scratch files and the records of earlier runs
(used to check that a seed's outputs repeat exactly) live in ``.perfbench/``
under the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS      # before numpy loads its BLAS
os.environ.pop("AMF_SEED", None)    # the seed comes from --seed alone


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mem-cap-mb", type=int, default=6144)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "adamf")):
        print(f"error: no adamf sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.exists(spec_path):
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness
    return harness.main(args, ROOT, spec_path)


if __name__ == "__main__":
    sys.exit(main())
