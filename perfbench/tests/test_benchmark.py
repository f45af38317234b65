"""Tests of the benchmark's own inputs and independent computations.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import live
import sim_paper
from repro.db.objects import ObjectClass, Update
from repro.live.runtime import LiveRuntime
from repro.live.server import IngestServer
from repro.workload.codec import WIRE_PREAMBLE, encode_update_frame


def test_probe_stamps_rebase_to_an_exact_tie():
    rng = random.Random(7)
    for _ in range(10000):
        now = rng.uniform(0.001, 1e6)
        rebased = [stamp + (now - stamp) for stamp in live.PROBE_STAMPS]
        assert rebased == [now, now]


@pytest.mark.parametrize("name", sorted(live.WORKLOADS))
def test_plan_is_whole_rounds_and_seeded(name):
    workload = live.WORKLOADS[name]
    plan = live.Plan(workload, seed=3, seconds=1.0)
    per_round = (
        plan.updates_per_round + plan.txns_per_round
        + 2 * plan.probe_objects_per_round
    )
    assert plan.attempted == plan.rounds * per_round
    assert live.Plan(workload, seed=3, seconds=1.0).blob == plan.blob
    assert live.Plan(workload, seed=4, seconds=1.0).blob != plan.blob
    assert plan.due == sorted(plan.due)


def test_stream_never_repeats_an_object_within_a_cycle():
    from repro.workload.codec import BinaryCodec

    plan = live.Plan(live.WORKLOADS["ingest_single"], seed=5, seconds=1.0)
    keys = [
        (item.klass, item.object_id)
        for item in BinaryCodec.decode(plan.blob)
        if isinstance(item, Update)
    ]
    cycle = 2 * (live.OBJECTS_PER_CLASS - live.PROBE_RESERVED)
    last = {}
    for index, key in enumerate(keys):
        if key in last:
            assert index - last[key] == cycle
        last[key] = index
    assert not set(keys) & set(plan.probe_objects)


def test_probe_objects_recur_only_after_every_slot():
    from repro.workload.codec import BinaryCodec

    plan = live.Plan(live.WORKLOADS["cluster_full"], seed=5, seconds=30.0)
    last = {}
    for round_index, write in enumerate(plan.probes):
        keys = [(item.klass, item.object_id) for item in BinaryCodec.decode(write)]
        assert len(keys) == 2 * plan.probe_objects_per_round
        for key in set(keys):
            assert keys.count(key) == 2
            if key in last:
                assert round_index - last[key] == live.PROBE_SLOTS
            last[key] = round_index
    assert set(last) == set(plan.probe_objects)
    fenced = list(plan.fence_values)
    assert fenced[-len(plan.probe_objects):] == plan.probe_objects


def test_no_socket_read_can_hold_an_object_twice():
    from repro.db.sharding import ShardRouter
    from repro.live.wire import READ_CHUNK

    frame = len(encode_update_frame(Update(
        seq=1, klass=ObjectClass.VIEW_LOW, object_id=0, value=0.0,
        generation_time=0.0, arrival_time=0.0,
    )))
    most_per_read = READ_CHUNK // frame + 1
    for shards in (1, 2):
        router = ShardRouter(
            live.OBJECTS_PER_CLASS, live.OBJECTS_PER_CLASS, shards
        )
        for shard in range(shards):
            period = sum(
                1
                for klass in (ObjectClass.VIEW_LOW, ObjectClass.VIEW_HIGH)
                for oid in range(live.PROBE_RESERVED, live.OBJECTS_PER_CLASS)
                if router.shard_of(klass, oid) == shard
            )
            assert period > most_per_read


def test_ma_integration_matches_the_ledger():
    from repro.core.simulator import Simulation

    config = sim_paper.cell_config(11, 10.0, "ma")
    simulation = Simulation(config, "UF")
    tee = sim_paper._InstallTee(simulation.database.install_listener)
    simulation.database.install_listener = tee
    result = simulation.run()
    folds = sim_paper.integrate_ma(config, tee.events)
    assert folds[ObjectClass.VIEW_LOW] == pytest.approx(result.fold_low, rel=1e-9)
    assert folds[ObjectClass.VIEW_HIGH] == pytest.approx(result.fold_high, rel=1e-9)


async def _probe(objects: int) -> int:
    """Two updates per object in one write, 100 µs apart in generation.

    Returns how many objects kept the newer value.
    """
    from repro import baseline_config

    config = baseline_config(duration=1.0).with_system(ips=1e9)
    config.warmup = 0.0
    runtime = LiveRuntime(config, "TF")
    runtime.start()
    server = IngestServer(runtime, "127.0.0.1", 0)
    _, port = await server.start()
    await asyncio.sleep(0.05)
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    frames = []
    seq = 0
    keys = [(ObjectClass.VIEW_LOW, i) for i in range(config.updates.n_low)] + [
        (ObjectClass.VIEW_HIGH, i) for i in range(config.updates.n_high)
    ]
    keys = keys[:objects]
    for klass, oid in keys:
        for stamp, value in ((0.010, 1.0), (0.010 + 1e-4, 2.0)):
            seq += 1
            frames.append(encode_update_frame(Update(
                seq=seq, klass=klass, object_id=oid, value=value,
                generation_time=stamp, arrival_time=stamp,
            )))
    writer.write(WIRE_PREAMBLE + b"".join(frames))
    await writer.drain()
    await asyncio.sleep(0.5)
    writer.close()
    await server.stop()
    await runtime.shutdown()
    return sum(
        1 for klass, oid in keys
        if runtime.database.view_object(klass, oid).value == 2.0
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "IngestServer._dispatch_batch rebases every update of one socket "
        "read to generation now - transit_age (repro/live/server.py, copied "
        "in repro/live/cluster.py), so a strictly newer update to the same "
        "object in the same read ties with the older one and "
        "Database.install skips it as not newer"
    ),
)
def test_newer_update_in_the_same_read_is_installed():
    kept_newer = asyncio.run(_probe(1000))
    assert kept_newer == 1000
