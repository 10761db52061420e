"""Invariant-hook cost on the dispatch loop, off (counted) and on (timed).

The invariant monitor (:mod:`repro.check`) adds exactly one seam to the
kernel hot path: a ``check is not None`` branch per dispatched event (the
hook itself is hoisted out of the loop). Every production experiment runs
disarmed, so that configuration is gated, and gated on a count: with no
hook attached ``Simulator.run`` makes exactly the Python-level calls of a
reconstruction of the branch-free pre-hook loop — none per event beyond
the callbacks, since both drain the heap inline. A wall-clock budget cannot
resolve one branch per event on a shared box (the two loops read 0.94 to
1.18 of each other round to round), a count repeats exactly.

The rates are printed for context (``pytest -s``): the two loops draining
identical queues with empty callbacks, and a full fig1a-style CUBIC bulk
flow with an :class:`~repro.check.monitor.InvariantMonitor` attached vs
the same run bare.
"""

import time
from heapq import heappop, heappush

from repro.check.monitor import InvariantMonitor
from repro.experiments.fig1 import run_single_cca
from repro.sim.kernel import Simulator
from tests.test_net_hop import python_calls

EVENT_COUNT = 100_000


def _nop() -> None:
    return None


def _nop_arg(_) -> None:
    return None


def _filled_sim() -> Simulator:
    """Both entry shapes: every other event is a handle-free ``post_at``."""
    sim = Simulator()
    for index in range(EVENT_COUNT):
        if index % 2:
            sim.post_at(float(index % 977), _nop_arg, None)
        else:
            sim.schedule(float(index % 977), _nop)
    return sim


def _drain_current(sim: Simulator) -> None:
    sim.run()  # the shipped loop: one disarmed branch per event


def _drain_prehook(sim: Simulator) -> None:
    # The pre-hook dispatch loop: a faithful replica of ``Simulator.run``
    # (stop flag, inline heap drain with the ``until`` refile, handle-free
    # and handled entries, cancelled-head reclaim, run counter, max_events
    # test, try/finally) minus *only* the invariant branches.
    until = None
    max_events = None
    sim._running = True
    sim._stop_requested = False
    processed = 0
    heap = sim._heap
    pop = heappop
    limit = float("inf") if until is None else until
    try:
        while not sim._stop_requested:
            if not heap:
                break
            entry = pop(heap)
            time_ = entry[0]
            if time_ > limit:
                heappush(heap, entry)
                break
            if len(entry) == 4:
                callback, args = entry[2], entry[3]
            else:
                event = entry[2]
                if event.cancelled:
                    sim._dead -= 1
                    continue
                event._sim = None
                callback, args = event.callback, event.args
            sim.now = time_
            callback(*args)
            processed += 1
            if max_events is not None and processed >= max_events:
                break
    finally:
        sim._running = False
        sim.events_processed += processed


def _events_per_second(drain) -> float:
    sim = _filled_sim()
    start = time.perf_counter()
    drain(sim)
    elapsed = time.perf_counter() - start
    assert sim.events_processed == EVENT_COUNT
    return EVENT_COUNT / elapsed


def _best_of(drain, rounds: int = 3) -> float:
    return max(_events_per_second(drain) for _ in range(rounds))


def _sim_calls(drain):
    sim = _filled_sim()
    return python_calls(lambda: drain(sim), "sim")


def _run_armed(duration: float):
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
    monitor = InvariantMonitor(net).arm()
    bulk = BulkTransfer(net, cc="cubic")
    net.run(until=duration)
    monitor.final_check()
    return bulk, monitor


def test_bench_check_hook_overhead(benchmark):
    _best_of(_drain_prehook, rounds=1)  # warm allocators/caches for both
    prehook_eps = _best_of(_drain_prehook)
    current_eps = benchmark.pedantic(
        lambda: _best_of(_drain_current), rounds=1, iterations=1
    )
    disarmed_overhead = prehook_eps / current_eps

    # Armed cost on a realistic workload, for context (not gated: arming
    # the monitor is an explicit debugging/chaos choice, not the default).
    duration = 2.0
    start = time.perf_counter()
    bare = run_single_cca("cubic", duration=duration)
    bare_eps = bare.net.sim.events_processed / (time.perf_counter() - start)
    start = time.perf_counter()
    armed_bulk, monitor = _run_armed(duration)
    armed_eps = armed_bulk.net.sim.events_processed / (time.perf_counter() - start)
    armed_overhead = bare_eps / armed_eps

    print()
    print(f"  pre-hook loop  : {prehook_eps:12.0f} events/s")
    print(f"  disarmed loop  : {current_eps:12.0f} events/s  "
          f"({(disarmed_overhead - 1) * 100:+.2f}% overhead, not gated)")
    print(f"  bare fig1a     : {bare_eps:12.0f} events/s")
    print(f"  armed fig1a    : {armed_eps:12.0f} events/s  "
          f"({(armed_overhead - 1) * 100:+.2f}% overhead, "
          f"{monitor.checks_run} checks)")
    # Disarmed, the shipped loop is the replica plus its own frame: no
    # Python call into ``sim/`` per event on either side.
    calls = _sim_calls(_drain_current)
    assert calls.pop("run") == 1
    assert calls == _sim_calls(_drain_prehook)
