"""Live workloads: ``ingest_single`` and ``cluster_full``.

One client process (this one) drives a ``repro-live serve`` process tree
over at most two binary-wire connections:

* connection 1 carries an open-loop stream of updates and short
  transactions, generated beforehand from the seed and sent when due;
* connection 2 carries the rebasing probe (see ``PROBE``) once per round.

The run is made of whole rounds.  Every round sends the same number of
stream updates, transactions and probe pairs, so the share of failed
operations is the same in every run, whatever the seed or length.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from common import (
    HERE,
    OBJECTS_PER_CLASS,
    WORK,
    conservation_gaps,
    cpu_by_pid,
    descendants,
    e2e_output,
    layer_output,
    median,
    note,
    peak_rss_kb,
    percentile,
    ratio,
)
from repro.workload.codec import WIRE_PREAMBLE, FrameDecoder, encode_json_frame

#: One round of the open loop, in seconds.
ROUND_S = 0.25
#: Objects of each partition that one round's probe writes to.
PROBE_PER_CLASS = 4
#: Rounds of the probe's object rotation.  Round ``r`` probes the objects
#: of slot ``r % PROBE_SLOTS``, so a probe object recurs only every
#: ``PROBE_SLOTS * ROUND_S`` = 10 s.  A serving process that stalls for
#: more than one round reads two rounds' probe writes in one socket read;
#: if both wrote to the same objects, the rebasing fault would tie them
#: too and skip one more update per object, a count that would then
#: depend on the host's stalls (seen on ``cluster_full``, whose shard
#: workers stall for up to 200 ms: 4 or 8 extra skips in some runs).
PROBE_SLOTS = 40
#: Objects of each partition reserved for the probe (never in the stream):
#: ids ``0 .. PROBE_RESERVED - 1``.
PROBE_RESERVED = PROBE_PER_CLASS * PROBE_SLOTS
#: Client generation stamps of a probe pair.  Both are multiples of 2**-13,
#: so ``stamp + (now - stamp)`` is exactly ``now`` for any server clock
#: reading above them: the server's rebasing ties the pair deterministically.
PROBE_STAMPS = (2.0 ** -13, 2.0 ** -12)
#: Transaction shape: sub-millisecond modelled compute, generous slack.
TXN_COMPUTE_S = 0.0002
TXN_SLACK_S = 1.0
#: Quiet time between the end of the stream and the fence.
QUIET_S = 0.5
#: The fence (one final update per object) is written in batches of this
#: many records, paced at the workload's update rate: in one write it
#: would overflow the OS queue bound (OSmax) of the program.
FENCE_BATCH = 250
#: Server launches per run; the median launch time is ``setup_s``.
SETUPS = 9


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    shards: int
    update_rate: float
    txn_rate: float
    spread_share: float
    wal: bool
    view: "str | None"

    def serve_args(self, seed: int, work: str) -> "list[str]":
        args = [
            "--algorithm", "TF", "--seed", str(seed), "--ips", "1e9",
            "--mean-age", "0", "--port", "0",
            "--metrics", os.path.join(work, "metrics.jsonl"),
            "--metrics-interval", "1", "--drain-timeout", "20",
        ]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        if self.wal:
            args += ["--log-dir", os.path.join(work, "wal"), "--fsync", "never"]
        if self.view:
            args += ["--view", self.view]
        return args


WORKLOADS = {
    "ingest_single": LiveWorkload(
        "ingest_single", shards=1, update_rate=16000.0, txn_rate=200.0,
        spread_share=0.0, wal=False, view=None,
    ),
    "cluster_full": LiveWorkload(
        "cluster_full", shards=2, update_rate=8000.0, txn_rate=200.0,
        spread_share=0.5, wal=True, view="by8=sum:low,groups=8",
    ),
}
VIEW_NAME = "by8"
VIEW_GROUPS = 8


# ----------------------------------------------------------------------
# Inputs, generated before the server starts
# ----------------------------------------------------------------------
class Plan:
    """Every byte the client will send, with its due time."""

    def __init__(self, workload: LiveWorkload, seed: int, seconds: float) -> None:
        from repro.db.objects import ObjectClass, Update
        from repro.db.sharding import ShardRouter
        from repro.workload.codec import encode_spec_frame, encode_update_frame
        from repro.workload.transactions import TransactionSpec

        rng = random.Random(seed)
        low, high = ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH
        self.rounds = max(1, int(seconds / ROUND_S))
        self.updates_per_round = round(workload.update_rate * ROUND_S)
        self.txns_per_round = round(workload.txn_rate * ROUND_S)
        stream = [
            (klass, i)
            for klass in (low, high)
            for i in range(PROBE_RESERVED, OBJECTS_PER_CLASS)
        ]
        # One seeded permutation, repeated: an object recurs only after
        # every other stream object, so no socket read holds it twice.
        rng.shuffle(stream)
        router = ShardRouter(
            OBJECTS_PER_CLASS, OBJECTS_PER_CLASS, max(1, workload.shards)
        )
        owners = {
            klass: [
                [i for i in range(PROBE_RESERVED, OBJECTS_PER_CLASS)
                 if router.shard_of(klass, i) == shard]
                for shard in range(router.shards)
            ]
            for klass in (low, high)
        }

        frames: list[bytes] = []
        self.due: list[float] = []
        self.offsets: list[int] = [0]
        self.txn_due: dict[int, float] = {}
        self.spread: set[int] = set()
        update_seq = 0
        txn_seq = 0
        cursor = 0
        for r in range(self.rounds):
            start = r * ROUND_S
            events = [
                (start + rng.random() * ROUND_S, 0)
                for _ in range(self.updates_per_round)
            ] + [
                (start + rng.random() * ROUND_S, 1)
                for _ in range(self.txns_per_round)
            ]
            events.sort()
            for due, kind in events:
                if kind == 0:
                    klass, oid = stream[cursor % len(stream)]
                    cursor += 1
                    update_seq += 1
                    frame = encode_update_frame(Update(
                        seq=update_seq, klass=klass, object_id=oid,
                        value=rng.uniform(0.0, 100.0),
                        generation_time=due, arrival_time=due,
                    ))
                else:
                    txn_seq += 1
                    high_value = rng.random() < 0.5
                    klass = high if high_value else low
                    if rng.random() < workload.spread_share:
                        reads = tuple(
                            rng.choice(owners[klass][shard])
                            for shard in range(router.shards)
                        )
                        self.spread.add(txn_seq)
                    else:
                        shard = rng.randrange(router.shards)
                        reads = tuple(rng.sample(owners[klass][shard], 2))
                    frame = encode_spec_frame(TransactionSpec(
                        seq=txn_seq, arrival_time=due, high_value=high_value,
                        value=1.0, compute_time=TXN_COMPUTE_S, reads=reads,
                        slack=TXN_SLACK_S,
                    ))
                    self.txn_due[txn_seq] = due
                frames.append(frame)
                self.due.append(due)
                self.offsets.append(self.offsets[-1] + len(frame))
        self.blob = b"".join(frames)
        self.stream_updates = update_seq

        # The probe: per round, two updates per probe object of the
        # round's slot in one write, the second one 2**-13 s newer by its
        # client generation.
        self.probe_objects = [
            (klass, i) for klass in (low, high) for i in range(PROBE_RESERVED)
        ]
        self.probe_objects_per_round = 2 * PROBE_PER_CLASS
        self.probes: list[bytes] = []
        for r in range(self.rounds):
            first = (r % PROBE_SLOTS) * PROBE_PER_CLASS
            records = []
            for klass, oid in (
                (klass, i) for klass in (low, high)
                for i in range(first, first + PROBE_PER_CLASS)
            ):
                for stamp, value in zip(PROBE_STAMPS, (1.0, 2.0)):
                    update_seq += 1
                    records.append(encode_update_frame(Update(
                        seq=update_seq, klass=klass, object_id=oid,
                        value=value, generation_time=stamp,
                        arrival_time=stamp,
                    )))
            self.probes.append(b"".join(records))
        self.probe_updates = self.rounds * 2 * self.probe_objects_per_round

        # The fence: one final update per object, the probe's objects
        # last, seconds after the final probe write.
        fence_at = self.rounds * ROUND_S
        self.fence_values: dict[tuple, float] = {}
        records = []
        fenced = [
            (klass, i)
            for klass in (low, high)
            for i in range(PROBE_RESERVED, OBJECTS_PER_CLASS)
        ] + self.probe_objects
        for klass, oid in fenced:
            update_seq += 1
            value = rng.uniform(0.0, 100.0)
            self.fence_values[(klass, oid)] = value
            records.append(encode_update_frame(Update(
                seq=update_seq, klass=klass, object_id=oid, value=value,
                generation_time=fence_at, arrival_time=fence_at,
            )))
        self.fence = [
            b"".join(records[i:i + FENCE_BATCH])
            for i in range(0, len(records), FENCE_BATCH)
        ]
        self.fence_pause = FENCE_BATCH / workload.update_rate
        # Barrier transactions: one per shard, answered only after every
        # earlier record on that shard's connection has been read.
        barriers = []
        self.barrier_seqs = []
        for shard in range(router.shards):
            txn_seq += 1
            self.barrier_seqs.append(txn_seq)
            barriers.append(encode_spec_frame(TransactionSpec(
                seq=txn_seq, arrival_time=fence_at, high_value=False,
                value=1.0, compute_time=TXN_COMPUTE_S,
                reads=(owners[low][shard][0],), slack=TXN_SLACK_S,
            )))
        self.barrier = b"".join(barriers)
        self.txns = len(self.txn_due)

    @property
    def attempted(self) -> int:
        return self.stream_updates + self.txns + self.probe_updates


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` process tree, launched through ``serve.py``."""

    def __init__(self, workload: LiveWorkload, seed: int, work: str,
                 trace_dir: "str | None") -> None:
        os.makedirs(work, exist_ok=True)
        self.stdout_path = os.path.join(work, "serve.out")
        self.stderr_path = os.path.join(work, "serve.err")
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        self.started = time.perf_counter()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve.py"),
                 *workload.serve_args(seed, work)],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            )
        self.port = None

    async def ready(self, timeout: float = 60.0) -> float:
        """Wait for the banner and one answered request; returns set-up s."""
        deadline = time.perf_counter() + timeout
        pattern = re.compile(rb"serving on [^:\s]+:(\d+)")
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early: {self._stderr_tail()}")
            with open(self.stderr_path, "rb") as err:
                found = pattern.search(err.read())
            if found:
                self.port = int(found.group(1))
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start in time")
            await asyncio.sleep(0.005)
        conn = await Connection.open(self.port)
        await conn.request({"kind": "topology", "rid": 1}, rid=1)
        await conn.close()
        return time.perf_counter() - self.started

    def stop(self, timeout: float = 90.0) -> dict:
        """SIGINT (graceful drain) and return the final result record."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain in time")
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited {self.process.returncode}: {self._stderr_tail()}"
            )
        with open(self.stdout_path, "rb") as out:
            lines = out.read().decode().strip().splitlines()
        return json.loads(lines[-1])

    def kill(self) -> None:
        pids = descendants(self.process.pid)
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.process.wait(10)
        except subprocess.TimeoutExpired:
            pass

    def _stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as err:
            return err.read()[-2000:].decode(errors="replace")


# ----------------------------------------------------------------------
# Client connection (binary wire)
# ----------------------------------------------------------------------
class Connection:
    """One binary-wire session; decodes reply frames as they arrive."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.on_record = None
        self._waiting: dict = {}  # rid or reply kind -> future
        self._task = asyncio.ensure_future(self._read())
        self.errors: list = []

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(WIRE_PREAMBLE)
        return cls(reader, writer)

    def send(self, payload) -> None:
        self.writer.write(payload)

    async def request(self, record: dict, rid: int, timeout: float = 60.0) -> dict:
        """Send a control record and await its reply.

        Replies are matched by ``rid``; a reply that carries no ``rid``
        (the cluster router's snapshot reply) is matched by its kind.
        """
        future = asyncio.get_running_loop().create_future()
        self._waiting[rid] = future
        self._waiting[record["kind"]] = future
        self.send(encode_json_frame(json.dumps(record).encode()))
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._waiting.pop(rid, None)
            self._waiting.pop(record["kind"], None)

    async def _read(self) -> None:
        decoder = FrameDecoder()
        while True:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                return
            received = time.monotonic()
            for record in decoder.feed(chunk):
                if not isinstance(record, dict):
                    self.errors.append(record)
                    continue
                key = record.get("rid", record.get("kind"))
                waiter = self._waiting.get(key)
                if waiter is not None and not waiter.done():
                    waiter.set_result(record)
                elif record.get("kind") == "outcome" and self.on_record:
                    self.on_record(record, received)
                else:
                    self.errors.append(record)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def _setup_once(workload, seed, work) -> float:
    server = Server(workload, seed, work, None)
    try:
        return await server.ready()
    finally:
        server.stop()


async def _drive(workload, plan, seed, work, trace_dir, run) -> None:
    setups = []
    for index in range(SETUPS - 1):
        setups.append(await _setup_once(
            workload, seed, os.path.join(work, f"setup{index}")
        ))
    server = Server(workload, seed, os.path.join(work, "run"), trace_dir)
    run["server"] = server
    setups.append(await server.ready())
    run["setup_s"] = median(setups)

    main = await Connection.open(server.port)
    probe = await Connection.open(server.port)
    outcomes: dict[int, tuple[dict, float]] = {}
    duplicates = []

    def on_outcome(record, received):
        seq = record.get("seq")
        if seq in outcomes:
            duplicates.append(seq)
        outcomes[seq] = (record, received)

    main.on_record = on_outcome
    probe.on_record = on_outcome
    await asyncio.sleep(0.2)  # let both sessions settle before timing

    due, offsets, blob = plan.due, plan.offsets, memoryview(plan.blob)
    pid = run["pid"] = server.process.pid
    late = []
    samples = []  # cpu_by_pid of the serving tree at each round boundary
    t0 = time.monotonic()
    client_cpu = time.process_time()
    samples.append(cpu_by_pid(pid))
    index = 0
    next_round = 1
    total = len(due)
    transport = main.writer.transport
    while next_round <= plan.rounds:
        now = time.monotonic() - t0
        boundary = next_round * ROUND_S
        if index < total and due[index] <= now:
            stop = bisect.bisect_right(due, now, index)
            stop = min(stop, bisect.bisect_left(due, boundary, index))
            if stop > index:
                main.send(blob[offsets[index]:offsets[stop]])
                late.append(now - due[index])
                index = stop
                if transport.get_write_buffer_size() > (1 << 20):
                    await main.writer.drain()
                continue
        if now >= boundary and (index >= total or due[index] >= boundary):
            probe.send(plan.probes[next_round - 1])
            samples.append(cpu_by_pid(pid))
            next_round += 1
            continue
        upcoming = due[index] if index < total else boundary
        await asyncio.sleep(max(0.0, min(upcoming, boundary) - now))
    stream_end = time.monotonic() - t0
    run["client_cores"] = (time.process_time() - client_cpu) / stream_end
    snapshot = await main.request({"kind": "snapshot", "rid": 2}, rid=2)
    window = time.monotonic() - t0
    run["rss_kb"] = sum(peak_rss_kb(p) for p in descendants(pid))
    await asyncio.sleep(QUIET_S)
    for batch in plan.fence:
        main.send(batch)
        await asyncio.sleep(plan.fence_pause)
    main.send(plan.barrier)
    deadline = time.monotonic() + 30.0
    while not all(seq in outcomes for seq in plan.barrier_seqs):
        if time.monotonic() > deadline:
            raise RuntimeError("barrier transactions were not answered")
        await asyncio.sleep(0.01)
    await main.close()
    await probe.close()
    run.update(
        t0=t0, late=late, samples=samples, snapshot=snapshot, window=window, outcomes=outcomes,
        duplicates=duplicates, errors=main.errors + probe.errors,
    )
    run["final"] = server.stop()
    run["server"] = None


def run_live(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one live workload; returns (correct, attempted, failed, metrics)."""
    workload = WORKLOADS[name]
    plan = Plan(workload, seed, seconds)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(work, "trace") if trace else None
    run: dict = {}
    try:
        asyncio.run(_drive(workload, plan, seed, work, trace_dir, run))
        correct = check(workload, plan, run, os.path.join(work, "run"))
        failed = run["final"]["updates_skipped"]
        if failed != plan.probe_updates // 2:
            note(f"{failed} updates skipped, the probe accounts for "
                 f"{plan.probe_updates // 2}")
        metrics = measure(workload, plan, run, trace_dir)
    finally:
        if run.get("server") is not None:
            run["server"].kill()
        shutil.rmtree(work, ignore_errors=True)
    return correct, plan.attempted, failed, metrics


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check(workload, plan, run, work) -> bool:
    final = run["final"]
    problems = []
    fence = len(plan.fence_values)
    sent_updates = plan.stream_updates + plan.probe_updates + fence
    if final["updates_arrived"] != sent_updates:
        problems.append(
            f"server received {final['updates_arrived']} updates, client "
            f"sent {sent_updates}"
        )
    for key in ("updates_os_dropped", "updates_overflowed", "updates_expired",
                "updates_superseded", "updates_pending_os",
                "updates_pending_queue"):
        if final[key]:
            problems.append(f"{key} = {final[key]}")
    if final["updates_applied"] + final["updates_skipped"] != sent_updates:
        problems.append("applied + skipped != sent")
    outcomes = run["outcomes"]
    expected = set(plan.txn_due) | set(plan.barrier_seqs)
    if set(outcomes) != expected or run["duplicates"]:
        problems.append(
            f"{len(expected - set(outcomes))} transactions without an "
            f"outcome, {len(set(outcomes) - expected)} unknown, "
            f"{len(run['duplicates'])} duplicated"
        )
    not_committed = [
        seq for seq, (record, _) in outcomes.items()
        if record.get("outcome") != "committed"
    ]
    if not_committed:
        problems.append(f"{len(not_committed)} transactions not committed")
    # A spread transaction runs as one sub-read on each shard it reads.
    server_txns = len(expected) + len(plan.spread) * (workload.shards - 1)
    if final["transactions_committed"] != server_txns:
        problems.append(
            f"server committed {final['transactions_committed']} "
            f"transactions, client expects {server_txns}"
        )
    if run["errors"]:
        problems.append(f"error replies: {run['errors'][:3]}")
    gaps = conservation_gaps(final)
    if gaps != (0, 0):
        problems.append(f"conservation gaps {gaps}")
    if workload.shards > 1:
        problems += _check_cluster(workload, plan, run, work)
    for problem in problems:
        note(f"check failed: {problem}")
    return not problems


def _check_cluster(workload, plan, run, work) -> "list[str]":
    from repro.db.objects import ObjectClass

    problems = []
    final = run["final"]
    # Fanout: every spread transaction merged two sub-reads, no other did.
    for seq, (record, _) in run["outcomes"].items():
        fanout = record.get("fanout")
        if seq in plan.spread and fanout != 2:
            problems.append(f"spread transaction {seq} has fanout {fanout}")
            break
        if seq not in plan.spread and fanout is not None:
            problems.append(f"single-shard transaction {seq} fanned out")
            break
    # The view, against an exact group-by over the fence values.
    expected = [Fraction(0)] * VIEW_GROUPS
    for (klass, oid), value in plan.fence_values.items():
        if klass is ObjectClass.VIEW_LOW:
            expected[oid % VIEW_GROUPS] += Fraction(value)
    view = final["extras"]["views"][VIEW_NAME]
    merged = [_rational(text) for text in view["partials"]["sums"]]
    if merged != expected:
        problems.append("merged view differs from the fence group-by")
    # Each shard's log LSN count equals the updates it admitted.
    lsn_total = 0
    for shard in range(workload.shards):
        path = os.path.join(work, "wal", f"shard-{shard:02d}.snapshot.json")
        with open(path) as handle:
            state = json.load(handle)
        result = state["result"]
        admitted = result["updates_received"] - result["updates_os_dropped"]
        if state["lsn"] != admitted:
            problems.append(
                f"shard {shard}: log LSN {state['lsn']} != admitted {admitted}"
            )
        lsn_total += state["lsn"]
    sent = plan.stream_updates + plan.probe_updates + len(plan.fence_values)
    if lsn_total != sent:
        problems.append(f"log LSNs sum to {lsn_total}, client sent {sent}")
    return problems


def _rational(text: str) -> Fraction:
    numerator, _, denominator = text.partition("/")
    return Fraction(int(numerator), int(denominator or "1"))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def measure(workload, plan, run, trace_dir) -> dict:
    # CPU per update of each round; the median round stands for the run.
    updates_per_round = plan.updates_per_round + 2 * plan.probe_objects_per_round
    per_round = [
        sum(after.get(pid, 0) - before.get(pid, 0) for pid in after)
        / 1e3 / updates_per_round
        for before, after in zip(run["samples"], run["samples"][1:])
    ]
    rtts = [
        (run["outcomes"][seq][1] - run["t0"] - due) * 1e3
        for seq, due in plan.txn_due.items()
    ]
    snapshot = run["snapshot"]
    handled = snapshot["updates_applied"] + snapshot["updates_skipped"]
    values = {
        "setup_s": run["setup_s"],
        "updates_per_s": handled / run["window"],
        "cpu_us_per_update": median(per_round),
        "peak_rss_mb": run["rss_kb"] / 1024.0,
    }
    note(
        f"{workload.name}: {plan.rounds} rounds, {len(rtts)} transactions, "
        f"round trip p10 {percentile(rtts, 0.10):.3f} ms p50 "
        f"{percentile(rtts, 0.50):.3f} ms p99 "
        f"{percentile(rtts, 0.99):.3f} ms, generator "
        f"lateness p99 {percentile(run['late'], 0.99) * 1e3:.3f} ms max "
        f"{max(run['late']) * 1e3:.3f} ms, client {run['client_cores']:.2f} "
        f"cores"
    )
    if trace_dir is None:
        return e2e_output(values)
    return layer_output(layer_values(workload, plan, run, trace_dir, rtts), values)


def layer_values(workload, plan, run, trace_dir, rtts) -> dict:
    import tracing

    merged = tracing.merge_reports(tracing.load_reports(trace_dir))
    spans = merged["spans"]
    final = run["final"]
    zero = {"calls": 0, "items": 0, "total_ns": 0, "self_ns": 0, "extra": 0.0}

    def span(name):
        return spans.get(name, zero)

    def per_call_us(name, field="self_ns"):
        return ratio(span(name)[field] / 1e3, span(name)["calls"])

    def per_item_us(name, field="self_ns"):
        return ratio(span(name)[field] / 1e3, span(name)["items"])

    install = span("db.install")
    depth = span("db.depth_samples")
    read = span("live.read")
    decode = span("workload.decode")
    router_txns = span("live.router_txn")["calls"]
    sub_read = span("live.sub_read")
    wal_bytes = span("live.wal_bytes")
    first, last = run["samples"][0], run["samples"][-1]
    root = run["pid"]
    router_ns = last[root] - first[root] if workload.shards > 1 else 0
    tree_ns = sum(last.get(pid, 0) - first.get(pid, 0) for pid in last)
    sent = plan.stream_updates + plan.probe_updates
    snapshots = span("metrics.cluster_snapshot" if workload.shards > 1
                     else "metrics.snapshot")
    return {
        "sim.events_per_sim_s": final["events_dispatched"] / final["duration"],
        "core.dispatch_us": per_call_us("core.dispatch"),
        "core.arrival_us_per_update": per_call_us("core.arrival"),
        "db.install_us": per_call_us("db.install"),
        "db.install_useful_frac": ratio(install["items"], install["calls"]),
        "db.uq_push_us": per_call_us("db.uq_push"),
        "db.uq_pop_us": per_call_us("db.uq_pop"),
        "db.uq_depth_mean": ratio(depth["items"], depth["calls"]),
        "db.os_queue_depth_mean": ratio(depth["extra"], depth["calls"]),
        "db.route_us_per_record": per_item_us("db.route"),
        "db.view_delta_us": per_call_us("db.view_delta"),
        "metrics.ledger_install_us": per_call_us("metrics.ledger_install"),
        "metrics.snapshot_ms": ratio(snapshots["total_ns"] / 1e6, snapshots["calls"]),
        "workload.decode_us_per_record": per_item_us("workload.decode"),
        "live.reads_per_s": read["calls"] / run["window"],
        "live.records_per_read": ratio(read["items"], read["calls"]),
        "live.us_per_read": ratio(
            (read["total_ns"] + decode["self_ns"]) / 1e3, read["calls"]),
        "live.ingest_us_per_record": per_item_us("live.ingest", "total_ns"),
        "live.txn_server_ms": per_call_us("live.txn_server", "total_ns") / 1e3,
        "live.dispatch_lag_worst_ms": merged["dispatch_lag_worst_s"] * 1e3,
        "live.rpc_sub_read_ms": per_call_us("live.sub_read", "total_ns") / 1e3,
        # Sub-reads of scattered transactions plus one for each
        # transaction the router passed to a single shard.
        "live.fanout_per_txn": ratio(
            sub_read["items"] + router_txns - sub_read["calls"], router_txns),
        "live.wal_append_us_per_record": per_item_us("live.wal_append"),
        "live.wal_bytes_per_record": ratio(wal_bytes["extra"], wal_bytes["items"]),
        "live.router_cpu_us_per_update": router_ns / 1e3 / sent,
        "live.worker_cpu_us_per_update": (tree_ns - router_ns) / 1e3 / sent,
        "client.rtt_p10_ms": percentile(rtts, 0.10),
        "client.rtt_p50_ms": percentile(rtts, 0.50),
        "client.rtt_p99_ms": percentile(rtts, 0.99),
        "client.late_p99_ms": percentile(run["late"], 0.99) * 1e3,
    }
