"""The ``sim_paper`` workload: the paper's baseline cells through the simulator.

Every round runs each cell of ``CELLS`` once, in process, through
``run_simulation`` (no result cache is involved).  The run repeats whole
rounds until ``--seconds`` have passed.  CPU speed drifts on small shared
hosts, so each cell is read at its median repeat, and the rates are sums
over cells of those median times.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from common import (
    HERE,
    SRC,
    conservation_gaps,
    e2e_output,
    layer_output,
    median,
    note,
    ratio,
)

#: Simulated seconds per cell.
CELL_SECONDS = 10.0
#: (algorithm, lambda_t, staleness) of every cell: the four algorithms
#: over three transaction rates under MA, plus the four at the baseline
#: rate under UU.
CELLS = [
    (algorithm, rate, "ma")
    for algorithm in ("UF", "TF", "SU", "OD")
    for rate in (5.0, 10.0, 15.0)
] + [(algorithm, 10.0, "uu") for algorithm in ("UF", "TF", "SU", "OD")]
#: The cell whose freshness is re-integrated by the benchmark.
FOLD_CELL = ("TF", 10.0, "ma")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9


def cell_config(seed: int, rate: float, staleness: str):
    from repro import baseline_config
    from repro.config import StalenessPolicy

    return baseline_config(
        duration=CELL_SECONDS, seed=seed, staleness=StalenessPolicy(staleness),
    ).with_transactions(arrival_rate=rate)


def build_cells(seed: int) -> None:
    """Build every cell's simulation without running it (one set-up)."""
    from repro.core.simulator import Simulation

    for algorithm, rate, staleness in CELLS:
        Simulation(cell_config(seed, rate, staleness), algorithm)


def setup_seconds(seed: int) -> float:
    """Median time for a fresh interpreter to import and build every cell."""
    code = (
        f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; "
        f"import sim_paper; sim_paper.build_cells({seed!r})"
    )
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


class Rounds:
    """Wall and CPU time of every repeat of each cell, plus its first result."""

    def __init__(self) -> None:
        self.walls: list[list[float]] = [[] for _ in CELLS]
        self.cpus: list[list[float]] = [[] for _ in CELLS]
        self.results: list = [None] * len(CELLS)
        self.count = 0
        self.mismatches = 0

    def run(self, seed: int, seconds: float) -> None:
        from repro import run_simulation

        configs = [cell_config(seed, rate, st) for _, rate, st in CELLS]
        deadline = time.perf_counter() + seconds
        while self.count < 2 or time.perf_counter() < deadline:
            for index, ((algorithm, _, _), config) in enumerate(zip(CELLS, configs)):
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                result = run_simulation(config, algorithm)
                self.walls[index].append(time.perf_counter() - wall0)
                self.cpus[index].append(time.process_time() - cpu0)
                if self.results[index] is None:
                    self.results[index] = result
                elif asdict(result) != asdict(self.results[index]):
                    self.mismatches += 1
            self.count += 1

    @property
    def wall(self) -> "list[float]":
        """Each cell's median wall time over its repeats."""
        return [median(times) for times in self.walls]

    def e2e(self, setup_s: float) -> dict:
        """End-to-end figures from each cell's median repeat."""
        arrived = sum(r.updates_arrived for r in self.results)
        wall = self.wall
        return {
            "setup_s": setup_s,
            "updates_per_s": arrived / sum(wall),
            "cpu_us_per_update": sum(median(c) for c in self.cpus) * 1e6 / arrived,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class _InstallTee:
    """Records every install the database reports, then forwards it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.events: list[tuple] = []

    def note_install(self, obj, old_generation, old_arrival_time,
                     old_install_time, now):
        self.events.append((obj.klass, obj.object_id, obj.generation_time, now))
        self.inner.note_install(
            obj, old_generation, old_arrival_time, old_install_time, now
        )


def integrate_ma(config, events) -> dict:
    """Exact MA stale fraction per partition from recorded install events.

    A value installed at ``t`` with generation ``g`` is stale from
    ``max(t, g + max_age)`` until it is replaced or the run ends; every
    object starts with generation 0 installed at time 0.
    """
    from repro.db.objects import ObjectClass

    alpha = Fraction(config.transactions.max_age)
    end = Fraction(config.duration)
    counts = {
        ObjectClass.VIEW_LOW: config.updates.n_low,
        ObjectClass.VIEW_HIGH: config.updates.n_high,
    }
    current = {}
    stale = {klass: Fraction(0) for klass in counts}

    def close(klass, value, until):
        generation, installed = value
        start = max(installed, generation + alpha)
        if until > start:
            stale[klass] += until - start

    for klass, oid, generation, now in events:
        key = (klass, oid)
        close(klass, current.get(key, (Fraction(0), Fraction(0))), Fraction(now))
        current[key] = (Fraction(generation), Fraction(now))
    for klass, count in counts.items():
        for oid in range(count):
            close(klass, current.get((klass, oid), (Fraction(0), Fraction(0))), end)
    return {
        klass: float(stale[klass] / (end * count)) for klass, count in counts.items()
    }


def check(seed: int, rounds: Rounds) -> bool:
    from repro.core.simulator import Simulation
    from repro.db.objects import ObjectClass

    problems = []
    if rounds.mismatches:
        problems.append(f"{rounds.mismatches} repeated cells differ under asdict")
    for cell, result in zip(CELLS, rounds.results):
        gaps = conservation_gaps(asdict(result))
        if gaps != (0, 0):
            problems.append(f"{cell}: conservation gaps {gaps}")
    by_cell = dict(zip(CELLS, rounds.results))

    algorithm, rate, staleness = FOLD_CELL
    config = cell_config(seed, rate, staleness)
    simulation = Simulation(config, algorithm)
    tee = _InstallTee(simulation.database.install_listener)
    simulation.database.install_listener = tee
    result = simulation.run()
    if asdict(result) != asdict(by_cell[FOLD_CELL]):
        problems.append("traced fold cell differs from its plain run")
    folds = integrate_ma(config, tee.events)
    for klass, field in ((ObjectClass.VIEW_LOW, "fold_low"),
                         (ObjectClass.VIEW_HIGH, "fold_high")):
        reported = getattr(result, field)
        if abs(folds[klass] - reported) > 1e-9 * max(1.0, reported):
            problems.append(f"{field} {reported} != integrated {folds[klass]}")

    cell = {alg: by_cell[(alg, 10.0, "ma")] for alg in ("UF", "TF", "SU", "OD")}
    if not (cell["UF"].fold_low < cell["TF"].fold_low
            and cell["UF"].fold_high < cell["TF"].fold_high):
        problems.append("UF is not fresher than TF")
    if not cell["TF"].p_md < cell["UF"].p_md:
        problems.append("TF does not miss fewer deadlines than UF")
    if cell["OD"].p_success < max(r.p_success for r in cell.values()):
        problems.append("OD does not have the best psuccess")
    for problem in problems:
        note(f"check failed: {problem}")
    return not problems


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_sim(seed: int, seconds: float, trace: bool) -> tuple:
    """Run sim_paper; returns (correct, attempted, failed, metrics).

    A traced run spends half its time untraced (for the per-event cost)
    and half with the timing wrappers installed (for the layer costs).
    """
    setup_s = setup_seconds(seed)
    plain = Rounds()
    plain.run(seed, seconds / 2 if trace else seconds)
    correct = check(seed, plain)
    attempted = plain.count * len(CELLS)
    note(f"sim_paper: {plain.count} rounds of {len(CELLS)} cells")
    if not trace:
        return correct, attempted, 0, e2e_output(plain.e2e(setup_s))

    import tracing

    tracer = tracing.install()
    traced = Rounds()
    try:
        traced.run(seed, seconds / 2)
    finally:
        tracer.uninstall()
    attempted += traced.count * len(CELLS)
    spans = tracer.report()["spans"]
    return correct, attempted, 0, layer_output(
        layer_values(plain, spans), traced.e2e(setup_s)
    )


def layer_values(plain: Rounds, spans: dict) -> dict:
    def span(name):
        return spans.get(name) or {"calls": 0, "items": 0, "self_ns": 0,
                                   "total_ns": 0, "extra": 0.0}

    def per_call_us(name):
        return ratio(span(name)["self_ns"] / 1e3, span(name)["calls"])

    events = sum(r.events_dispatched for r in plain.results)
    simulated = CELL_SECONDS * len(CELLS)
    install = span("db.install")
    depth = span("db.depth_samples")
    return {
        "sim.events_per_sim_s": events / simulated,
        "sim.us_per_event": sum(plain.wall) * 1e6 / events,
        "sim.sim_s_per_s": simulated / sum(plain.wall),
        "core.dispatch_us": per_call_us("core.dispatch"),
        "core.arrival_us_per_update": per_call_us("core.arrival"),
        "db.install_us": per_call_us("db.install"),
        "db.install_useful_frac": ratio(install["items"], install["calls"]),
        "db.uq_push_us": per_call_us("db.uq_push"),
        "db.uq_pop_us": per_call_us("db.uq_pop"),
        "db.uq_depth_mean": ratio(depth["items"], depth["calls"]),
        "db.os_queue_depth_mean": ratio(depth["extra"], depth["calls"]),
        "db.view_delta_us": per_call_us("db.view_delta"),
        "metrics.ledger_install_us": per_call_us("metrics.ledger_install"),
        "workload.draw_us_per_update": per_call_us("workload.draw"),
    }
