"""Microbenchmark: timer-wheel internals — insert cost, compaction.

Complements ``test_bench_kernel.py`` (which measures end-to-end queue
churn): this one isolates the wheel's two claims, prints their numbers
(``pytest -s``) and asserts the second:

* near-horizon inserts are O(1) bucket appends (vs heap sift),
* cancel-heavy churn keeps the pending set bounded via compaction.
"""

import time

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

INSERTS = 200_000


def _noop() -> None:
    return None


def _insert_rate() -> float:
    queue = EventQueue()
    delays = (0.0001, 0.0007, 0.0023, 0.0051, 0.0102, 0.0407, 0.1833)
    start = time.perf_counter()
    for i in range(INSERTS):
        queue.push(delays[i % 7], _noop)
    elapsed = time.perf_counter() - start
    return INSERTS / elapsed


def _cancel_churn():
    """The transport pacing pattern: arm two timers, cancel, re-arm."""
    sim = Simulator()
    state = {"pacing": None, "rto": None}

    def fire():
        if state["pacing"] is not None:
            state["pacing"].cancel()
        if state["rto"] is not None:
            state["rto"].cancel()
        state["pacing"] = sim.schedule(0.002, _noop)
        state["rto"] = sim.schedule(0.25, _noop)
        sim.schedule(0.0001, fire)

    sim.schedule(0.0001, fire)
    start = time.perf_counter()
    sim.run(max_events=100_000)
    elapsed = time.perf_counter() - start
    queue = sim._queue
    return {
        "events_per_second": round(sim.events_processed / elapsed, 1),
        "retained_entries": queue.entry_count(),
        "dead_entries": queue.dead_events,
        "compactions": queue.compactions,
    }


def test_bench_wheel(benchmark):
    insert_eps = benchmark.pedantic(
        lambda: max(_insert_rate() for _ in range(3)), rounds=1, iterations=1
    )
    cancel = _cancel_churn()

    print()
    print(f"  near-horizon insert : {insert_eps:12.0f} pushes/s")
    print(f"  cancel churn        : {cancel['events_per_second']:12.0f} events/s  "
          f"retained={cancel['retained_entries']} "
          f"compactions={cancel['compactions']}")
    # Compaction must bound the pending set: without it this workload
    # retains ~2500 cancelled RTO corpses (0.25s deadline / 0.1ms churn).
    assert cancel["retained_entries"] < 1000, cancel
    assert cancel["compactions"] > 0, cancel
