"""Shared helpers: paths, process accounting from /proc, statistics, output."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (logs, traces, server output); git-ignored.
WORK = os.path.join(ROOT, ".perfbench")

#: View objects per partition (the paper's N_l and N_h) of the live
#: servers, instead of the program's 500.  The size is set to keep the
#: rebasing fault (see README.md) out of the stream: a socket read holds at
#: most ``READ_CHUNK / 51`` = 5140 update frames, and with 8000 objects per
#: class the stream revisits an object only every 15 680 updates (about
#: 7 840 per shard of the cluster), so no read can hold two updates of one
#: object.  With 500 the loss varies from run to run and cannot be counted.
OBJECTS_PER_CLASS = 8000
#: OS queue (the paper's OSmax) and update queue (UQmax) bounds of the
#: live servers, instead of the program's 4000 and 5600 (a cluster splits
#: both over its shards).  Every update of one socket read enters the OS
#: queue at once, so a serving process that the host deschedules for a
#: quarter of a second at 16 000 updates/s reads a batch past 4000 and
#: drops its tail, probe updates included, which fails the run and moves
#: its failed count (the likeliest cause of two failed ``ingest_single``
#: runs of ten on a busy host).  64 000 holds four seconds of either
#: stream.
QUEUE_MAX = 64000


def require_source_tree() -> None:
    """Exit non-zero, printing no result, when the program is not present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def descendants(pid: int) -> "list[int]":
    """``pid`` and every live descendant process."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    found.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def cpu_ns(pid: int) -> int:
    """CPU nanoseconds consumed so far by every thread of ``pid``."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total


def cpu_by_pid(root: int) -> "dict[int, int]":
    """CPU nanoseconds of ``root`` and each of its descendants."""
    return {pid: cpu_ns(pid) for pid in descendants(root)}


def peak_rss_kb(pid: int) -> int:
    """High-water resident set size of ``pid`` in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
#: End-to-end metrics, printed by every untraced run of every workload.
E2E_METRICS = (
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("cpu_us_per_update", "us"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, printed by every traced run of every workload.  A
#: layer the workload bypasses reads 0 (see README.md).  The ``trace.``
#: entries are the traced run's own end-to-end figures; against the
#: untraced medians they give the tracing overhead.
LAYER_METRICS = (
    ("sim.events_per_sim_s", "1/s"),
    ("sim.us_per_event", "us"),
    ("sim.sim_s_per_s", "s/s"),
    ("core.dispatch_us", "us"),
    ("core.arrival_us_per_update", "us"),
    ("db.install_us", "us"),
    ("db.install_useful_frac", "1"),
    ("db.uq_push_us", "us"),
    ("db.uq_pop_us", "us"),
    ("db.uq_depth_mean", "count"),
    ("db.os_queue_depth_mean", "count"),
    ("db.route_us_per_record", "us"),
    ("db.view_delta_us", "us"),
    ("metrics.ledger_install_us", "us"),
    ("metrics.snapshot_ms", "ms"),
    ("workload.decode_us_per_record", "us"),
    ("workload.draw_us_per_update", "us"),
    ("live.reads_per_s", "1/s"),
    ("live.records_per_read", "count"),
    ("live.us_per_read", "us"),
    ("live.ingest_us_per_record", "us"),
    ("live.txn_server_ms", "ms"),
    ("live.dispatch_lag_worst_ms", "ms"),
    ("live.rpc_sub_read_ms", "ms"),
    ("live.fanout_per_txn", "count"),
    ("live.wal_append_us_per_record", "us"),
    ("live.wal_bytes_per_record", "B"),
    ("live.router_cpu_us_per_update", "us"),
    ("live.worker_cpu_us_per_update", "us"),
    ("client.rtt_p10_ms", "ms"),
    ("client.rtt_p50_ms", "ms"),
    ("client.rtt_p99_ms", "ms"),
    ("client.late_p99_ms", "ms"),
) + tuple(
    (f"trace.{name}", unit) for name, unit in E2E_METRICS if name != "setup_s"
)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def e2e_output(values: dict) -> dict:
    return {name: metric(values[name], unit) for name, unit in E2E_METRICS}


def layer_output(values: dict, traced_e2e: dict) -> dict:
    """Every per-layer metric; layers absent from ``values`` read 0."""
    values = dict(values)
    for name, _ in E2E_METRICS:
        values[f"trace.{name}"] = traced_e2e[name]
    return {
        name: metric(values.get(name, 0.0), unit) for name, unit in LAYER_METRICS
    }


def conservation_gaps(counters) -> "tuple[int, int]":
    """The paper's two conservation laws, summed from raw result counters.

    ``counters`` maps field names of a result to values.  Returns
    (arrived updates minus every update fate, arrived transactions minus
    every transaction fate); both are 0 when the books balance.
    """
    updates = counters["updates_arrived"] - sum(counters[k] for k in (
        "updates_os_dropped", "updates_applied", "updates_skipped",
        "updates_expired", "updates_overflowed", "updates_superseded",
        "updates_pending_os", "updates_pending_queue"))
    transactions = counters["transactions_arrived"] - sum(counters[k] for k in (
        "transactions_committed", "transactions_missed",
        "transactions_aborted_stale", "transactions_in_flight"))
    return updates, transactions


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the run's result as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def note(message: str) -> None:
    """Progress and check messages go to standard error."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
