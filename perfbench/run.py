"""Benchmark entry point: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload sim_paper --seed 1 --seconds 20 --trace 0

Progress and check messages go to standard error; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, require_source_tree  # noqa: E402

WORKLOADS = ("sim_paper", "ingest_single", "cluster_full")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source_tree()
    if args.workload == "sim_paper":
        from sim_paper import run_sim
        outcome = run_sim(args.seed, args.seconds, bool(args.trace))
    else:
        from live import run_live
        outcome = run_live(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(*outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
