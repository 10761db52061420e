"""Microbenchmark: the event kernel — churn, drain, full stack, compaction.

Three rates are printed (``pytest -s``):

* **churn**: the kernel's steady state through ``Simulator.run`` — each
  event schedules its successor from a sliding window of near-future
  timers and every seventh also arms and cancels a far decoy (pacing/RTO
  churn);
* **drain**: ``Simulator.run`` emptying one pre-filled, tie-dense heap
  with empty callbacks;
* **full simulator**: one CUBIC bulk flow through the whole stack.

One bound is asserted: cancel-heavy churn (a pacing and an RTO timer
re-armed on every event) keeps the heap bounded through compaction.
Without compaction that workload retains ~2500 cancelled RTO entries
(0.25 s deadline / 0.1 ms churn).
"""

import time

from repro.experiments.fig1 import run_single_cca
from repro.sim.kernel import Simulator

CHURN_EVENTS = 120_000
CANCEL_EVERY = 7  # schedule-then-cancel decoys: pacing/RTO churn
WINDOW = 64  # pending timers in steady state
DELAYS = (0.0001, 0.0004, 0.0011, 0.0002, 0.0031, 0.0007, 0.0017)


def _noop() -> None:
    return None


def _noop_arg(_) -> None:
    return None


def _churn_events_per_second() -> float:
    """Steady-state kernel churn: dispatch one, schedule one, sprinkle cancels."""
    sim = Simulator()
    state = {"count": 0}

    def fire() -> None:
        count = state["count"] = state["count"] + 1
        if count % CANCEL_EVERY == 0:
            sim.schedule(0.25, _noop).cancel()
        sim.schedule(DELAYS[count % 7], fire)

    for i in range(WINDOW):
        sim.schedule(DELAYS[i % 7] * (1 + i % 3), fire)
    start = time.perf_counter()
    sim.run(max_events=CHURN_EVENTS)
    elapsed = time.perf_counter() - start
    return CHURN_EVENTS / elapsed


DRAIN_EVENTS = 100_000


def _drain_events_per_second() -> float:
    """``Simulator.run`` over a pre-filled, tie-dense heap."""
    sim = Simulator()
    for index in range(DRAIN_EVENTS):
        event = sim.schedule_at((index % 977) * 1e-3, _noop)
        if index % CANCEL_EVERY == 0:
            event.cancel()
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    expected = DRAIN_EVENTS - (DRAIN_EVENTS + CANCEL_EVERY - 1) // CANCEL_EVERY
    assert sim.events_processed == expected, (sim.events_processed, expected)
    return expected / elapsed


def _cancel_churn():
    """The transport pacing pattern: arm two timers, cancel, re-arm; the
    chain itself, and a delivery per step, are handle-free entries (a
    link's departures and deliveries), so compaction runs on a mixed heap."""
    sim = Simulator()
    state = {"pacing": None, "rto": None, "retained": 0}

    def fire(_):
        if state["pacing"] is not None:
            state["pacing"].cancel()
        if state["rto"] is not None:
            state["rto"].cancel()
        state["pacing"] = sim.schedule(0.002, _noop)
        state["rto"] = sim.schedule(0.25, _noop)
        sim.post_at(sim.now + 0.0001, fire, None)
        sim.post_at(sim.now + 0.003, _noop_arg, None)
        state["retained"] = max(state["retained"], len(sim._heap))

    sim.post_at(0.0001, fire, None)
    start = time.perf_counter()
    sim.run(max_events=100_000)
    elapsed = time.perf_counter() - start
    return {
        "events_per_second": round(sim.events_processed / elapsed, 1),
        "max_retained_entries": state["retained"],
        "retained_entries": len(sim._heap),
        "dead_entries": sim._dead,
    }


def test_bench_kernel(benchmark):
    churn_eps = benchmark.pedantic(
        lambda: max(_churn_events_per_second() for _ in range(3)), rounds=1, iterations=1
    )
    run_eps = max(_drain_events_per_second() for _ in range(3))
    start = time.perf_counter()
    bulk = run_single_cca("cubic", duration=2.0)
    sim_eps = bulk.net.sim.events_processed / (time.perf_counter() - start)
    cancel = _cancel_churn()

    print()
    print(f"  churn          : {churn_eps:12.0f} events/s")
    print(f"  drain          : {run_eps:12.0f} events/s (full drain)")
    print(f"  full simulator : {sim_eps:12.0f} events/s (cubic bulk flow)")
    print(f"  cancel churn   : {cancel['events_per_second']:12.0f} events/s  "
          f"retained<={cancel['max_retained_entries']} dead={cancel['dead_entries']}")
    assert cancel["max_retained_entries"] < 1000, cancel
