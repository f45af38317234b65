"""Steadiness command: repeat runs and report the spread of every metric.

Usage::

    python3 perfbench/steady.py --runs 10 --seconds 30 [--workload NAME ...]
                                [--trace-runs 2] [--first-seed 1]

Each workload runs ``--runs`` times untraced, with seeds ``--first-seed``,
``--first-seed`` + 1, ..., then
``--trace-runs`` times traced.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles`` with ``n=4``), the
interquartile range as a share of the median, and the worst deviation of
one run from the median.  It also prints each workload's failed share and
the tracing overhead: the traced run's own end-to-end figure
(``trace.<metric>``) against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} incorrect:", file=sys.stderr)
        for line in completed.stderr.splitlines():
            if "check failed" in line or "skipped" in line:
                print(f"  {line}", file=sys.stderr)
    return result


def spread(values: "list[float]") -> dict:
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(middle) or 1.0
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "worst_dev": max(abs(v - middle) for v in values) / scale,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        plain = [
            run_once(workload, args.first_seed + i, args.seconds, 0)
            for i in range(args.runs)
        ]
        traced = [
            run_once(workload, args.first_seed + i, args.seconds, 1)
            for i in range(args.trace_runs)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in plain})
        print(f"== {workload}: {args.runs} runs of {args.seconds:g}s, "
              f"all correct: {all(r['correct'] for r in plain + traced)}, "
              f"failed share(s): {[f'{s:.6f}' for s in shares]} "
              f"(failed per run: {[r['failed'] for r in plain]} of "
              f"{plain[0]['attempted']})")
        print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'worst':>8}{'traced':>12}{'overhead':>9}")
        for name, entry in plain[0]["metrics"].items():
            stats = spread([r["metrics"][name]["value"] for r in plain])
            traced_values = [
                r["metrics"][f"trace.{name}"]["value"] for r in traced
                if f"trace.{name}" in r["metrics"]
            ]
            traced_cell = overhead = ""
            if traced_values:
                value = statistics.median(traced_values)
                traced_cell = f"{value:12.4g}"
                overhead = f"{value / stats['median'] - 1:+9.1%}"
            print(f"{name:<22}{stats['median']:12.4g}{stats['q1']:12.4g}"
                  f"{stats['q3']:12.4g}{stats['iqr_share']:9.2%}"
                  f"{stats['worst_dev']:8.1%}{traced_cell:>12}{overhead:>9}"
                  f"  {entry['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
