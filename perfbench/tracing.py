"""Benchmark-side timing wrappers around the program's layer functions.

:func:`install` replaces a fixed set of public methods of ``repro`` with
wrappers that count calls, items and nanoseconds, and returns the
:class:`Tracer` that holds the counters.  Nothing inside ``src/`` is
changed; the wrappers live here and are installed in whichever process
runs the layer: the benchmark itself for the simulator, and every serving
process (server, router, shard workers) for the live runtime (see
``serve.py``).

Synchronous spans keep a stack, so each span records both its inclusive
time and its *self* time (inclusive minus the wrapped spans it called).
Coroutine spans record wall time from start to completion; they do not
take part in the self-time stack.
"""

from __future__ import annotations

import functools
import json
import os
import time

_now_ns = time.perf_counter_ns


class Span:
    """Counters of one traced function."""

    __slots__ = ("calls", "items", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "items": self.items,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "extra": self.extra,
        }


class Tracer:
    """Counters for every traced span plus the patches that feed them."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._runtimes: list = []

    def span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, items=None, after=None) -> None:
        """Time ``owner.attr`` (a function or method) as span ``name``.

        ``items(args, result)`` returns the work items of one call;
        ``after(args, result, span)`` may record extra per-call facts.
        """
        original = getattr(owner, attr)
        span = self.span(name)
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0)
            start = _now_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _now_ns() - start
                child = stack.pop()
                span.total_ns += elapsed
                span.self_ns += elapsed - child
                span.calls += 1
                if stack:
                    stack[-1] += elapsed
            if items is not None:
                span.items += items(args, result)
            if after is not None:
                after(args, result, span)
            return result

        self._patch(owner, attr, traced)

    def wrap_async(self, owner, attr: str, name: str, items=None) -> None:
        """Time coroutine function ``owner.attr`` by wall time to completion."""
        original = getattr(owner, attr)
        span = self.span(name)

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            start = _now_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                elapsed = _now_ns() - start
                span.total_ns += elapsed
                span.self_ns += elapsed
                span.calls += 1
                if items is not None:
                    span.items += items(args)

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def report(self) -> dict:
        lag = max(
            (runtime.clock.max_lag for runtime in self._runtimes
             if hasattr(runtime.clock, "max_lag")),
            default=0.0,
        )
        return {
            "pid": os.getpid(),
            "spans": {name: span.as_dict() for name, span in self.spans.items()},
            "dispatch_lag_worst_s": lag,
        }

    def dump(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        with open(path, "w") as out:
            json.dump(self.report(), out)


def _length_of(index: int):
    def items(args, result=None):
        return len(args[index])
    return items


def _result_length(args, result) -> int:
    return len(result)


def install() -> Tracer:
    """Patch the program's layer functions; returns the live tracer."""
    from repro.core.controller import Controller
    from repro.db.database import Database
    from repro.db.update_queue import UpdateQueue
    from repro.db.views import ViewRegistry
    from repro.metrics.freshness import MaxAgeLedger, UnappliedUpdateLedger
    from repro.workload.codec import FrameDecoder
    from repro.workload.updates import UpdateStreamGenerator

    tracer = Tracer()
    depth = tracer.span("db.depth_samples")

    def sample_depths(args, result, span):
        controller = args[0]
        depth.calls += 1
        depth.items += len(controller.update_queue)
        depth.extra += len(controller.os_queue)

    tracer.wrap(Controller, "dispatch", "core.dispatch")
    tracer.wrap(Controller, "on_update_arrival", "core.arrival",
                after=sample_depths)
    tracer.wrap(Database, "install", "db.install",
                items=lambda args, result: 1 if result else 0)
    tracer.wrap(UpdateQueue, "push", "db.uq_push")
    tracer.wrap(UpdateQueue, "pop_next", "db.uq_pop")
    tracer.wrap(ViewRegistry, "note_base_install", "db.view_delta")
    tracer.wrap(MaxAgeLedger, "note_install", "metrics.ledger_install")
    tracer.wrap(UnappliedUpdateLedger, "note_install", "metrics.ledger_install")
    tracer.wrap(FrameDecoder, "feed", "workload.decode", items=_result_length)
    tracer.wrap(UpdateStreamGenerator, "draw_update", "workload.draw")
    _install_live(tracer)
    return tracer


def _install_live(tracer: Tracer) -> None:
    from repro.live import plane
    from repro.live.cluster import ShardCluster
    from repro.live.durability import UpdateLog
    from repro.live.runtime import LiveRuntime
    from repro.live.server import IngestServer

    runtimes = tracer._runtimes
    original_init = LiveRuntime.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        runtimes.append(self)

    tracer._patch(LiveRuntime, "__init__", init)

    server_txn = tracer.span("live.txn_server")

    def note_submit(args, handle, span):
        spec = args[1]

        def done(resolved):
            if resolved.finish_time is not None:
                server_txn.calls += 1
                server_txn.total_ns += int(
                    (resolved.finish_time - spec.arrival_time) * 1e9
                )

        handle.add_done_callback(done)

    tracer.wrap(LiveRuntime, "submit", "live.submit", after=note_submit)
    tracer.wrap(LiveRuntime, "ingest_batch", "live.ingest", items=_length_of(1))
    tracer.wrap(LiveRuntime, "snapshot", "metrics.snapshot")
    tracer.wrap_async(ShardCluster, "snapshot", "metrics.cluster_snapshot")
    tracer.wrap(IngestServer, "_dispatch_batch", "live.read",
                items=_length_of(1))
    tracer.wrap(plane, "route_batch", "db.route", items=_length_of(1))
    tracer.wrap_async(plane.RouterPlane, "_submit_spec", "live.router_txn")
    tracer.wrap_async(plane.RouterPlane, "_gather_verdict", "live.sub_read",
                      items=lambda args: len(args[2]))

    # Bytes per appended record, read from the file size around the
    # timed append (so the two fstat calls stay out of its time).
    tracer.wrap(UpdateLog, "append_batch", "live.wal_append", items=_length_of(1))
    wal_bytes = tracer.span("live.wal_bytes")
    original_append = UpdateLog.append_batch

    @functools.wraps(original_append)
    def append(self, updates):
        size_before = os.fstat(self._file.fileno()).st_size
        original_append(self, updates)
        wal_bytes.calls += 1
        wal_bytes.items += len(updates)
        wal_bytes.extra += os.fstat(self._file.fileno()).st_size - size_before

    tracer._patch(UpdateLog, "append_batch", append)


def merge_reports(reports: "list[dict]") -> dict:
    """Sum span counters over processes; take the worst dispatch lag."""
    spans: dict[str, dict] = {}
    lag = 0.0
    for report in reports:
        for name, span in report["spans"].items():
            into = spans.setdefault(
                name,
                {"calls": 0, "items": 0, "total_ns": 0, "self_ns": 0, "extra": 0.0},
            )
            for key in into:
                into[key] += span[key]
        lag = max(lag, report["dispatch_lag_worst_s"])
    return {"spans": spans, "dispatch_lag_worst_s": lag}


def load_reports(directory: str) -> "list[dict]":
    reports = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("trace-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                reports.append(json.load(handle))
    return reports
