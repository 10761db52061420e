"""The timer-wheel queue must be bit-for-bit interchangeable with the heap.

:class:`repro.sim.events.EventQueue` (wheel + overflow) and
:class:`repro.sim.events.HeapEventQueue` (the classic single heap it
replaced) are driven through identical randomized workloads — schedules
at arbitrary times (same-instant collisions and far-beyond-horizon
overflow included), cancels, reschedules, interleaved pops — and must
dispatch exactly the same events in exactly the same order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import COMPACT_MIN_DEAD, EventQueue, HeapEventQueue
from repro.sim.kernel import Simulator
from repro.sim.wheel import DEFAULT_HORIZON, TimerWheel


def _noop():
    return None


# One operation = (kind, payload) chosen by index into the live handles.
_ops = st.lists(
    st.one_of(
        # Schedule at a time drawn from a mix of scales: sub-granularity
        # collisions, normal near-horizon timers, and far-future overflow.
        st.tuples(
            st.just("push"),
            st.one_of(
                st.floats(min_value=0.0, max_value=0.004),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("reschedule"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("pop"), st.just(None)),
        st.tuples(st.just("peek"), st.just(None)),
    ),
    min_size=1,
    max_size=120,
)


def _run_workload(queue, ops):
    """Apply ops; return the (time, seq) dispatch record."""
    clock = 0.0
    handles = []
    record = []
    for kind, payload in ops:
        if kind == "push":
            handles.append(queue.push(clock + payload, _noop))
        elif kind == "cancel" and handles:
            handles[payload % len(handles)].cancel()
        elif kind == "reschedule" and handles:
            old = handles[payload % len(handles)]
            if not old.cancelled:
                old.cancel()
                handles.append(queue.push(old.time + 0.5, _noop))
        elif kind == "pop":
            event = queue.pop_next(None)
            if event is not None:
                clock = event.time
                record.append((event.time, event.seq))
        elif kind == "peek":
            record.append(("peek", queue.peek_time()))
    while True:
        event = queue.pop_next(None)
        if event is None:
            break
        record.append((event.time, event.seq))
    return record


class TestWheelMatchesHeap:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_identical_dispatch_order(self, ops):
        wheel_record = _run_workload(EventQueue(), ops)
        heap_record = _run_workload(HeapEventQueue(), ops)
        assert wheel_record == heap_record

    @settings(max_examples=50, deadline=None)
    @given(_ops)
    def test_identical_dispatch_order_tiny_horizon(self, ops):
        """A 10 ms horizon forces constant overflow/wheel hand-offs."""
        wheel_record = _run_workload(
            EventQueue(granularity=1e-3, horizon=10e-3), ops
        )
        heap_record = _run_workload(HeapEventQueue(), ops)
        assert wheel_record == heap_record

    def test_same_instant_fifo(self):
        queue = EventQueue()
        events = [queue.push(1.0, _noop) for _ in range(50)]
        popped = [queue.pop_next(None) for _ in range(50)]
        assert popped == events

    def test_mid_drain_insert_keeps_order(self):
        """Scheduling for 'now' while its bucket drains stays FIFO."""
        sim = Simulator()
        order = []

        def chain(n):
            order.append(n)
            if n < 5:
                sim.schedule(0.0, chain, n + 1)  # same instant, same bucket

        sim.schedule(0.0001, chain, 0)
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]


# Per-fire actions for the simulator-level equivalence suite: each
# dispatched event consumes the next action and mutates the pending set
# mid-run — schedules into the currently draining bucket, same-tick
# cancels, reschedules — exactly the reentrancy the wheel must get
# right. Delays mix three scales: sub-granularity (same-bucket merges),
# near-horizon, and beyond-horizon (overflow interleavings).
_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("sched"),
            st.one_of(
                st.floats(min_value=0.0, max_value=0.004),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=50.0),
            ),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("resched"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("noop"), st.just(None)),
    ),
    min_size=1,
    max_size=80,
)


class _Script:
    """Replays one action list through a Simulator, recording dispatch."""

    def __init__(self, sim, actions):
        self.sim = sim
        self.actions = list(actions)
        self.cursor = 0
        self.label = 0
        self.handles = []
        self.record = []

    def seed(self):
        # Same three scales as the actions, landing in distinct buckets.
        for delay in (0.0003, 0.0009, 0.25, 7.0):
            self.spawn(delay)

    def spawn(self, delay):
        label = self.label
        self.label += 1
        self.handles.append(self.sim.schedule(delay, self.fire, label))

    def fire(self, label):
        self.record.append((round(self.sim.now, 9), label))
        if self.cursor >= len(self.actions):
            return
        kind, payload = self.actions[self.cursor]
        self.cursor += 1
        if kind == "sched":
            self.spawn(payload)
        elif kind == "cancel" and self.handles:
            self.handles[payload % len(self.handles)].cancel()
        elif kind == "resched" and self.handles:
            old = self.handles[payload % len(self.handles)]
            if not old.cancelled:
                old.cancel()
                self.spawn(0.0007)


def _dispatch_record(actions, make_sim, run):
    sim = make_sim()
    script = _Script(sim, actions)
    script.seed()
    run(sim)
    return script.record


def _heap_sim():
    sim = Simulator()
    sim._queue = HeapEventQueue()
    return sim


class TestSimulatorLoopEquivalence:
    """A wheel-backed and a heap-backed simulator must dispatch identically.

    ``Simulator.run`` is one loop over ``pop_next``; only the queue
    differs between the two sides. (Two of the ids date from when a
    batch loop and a per-event loop were a third and fourth side.)
    """

    @settings(max_examples=120, deadline=None)
    @given(_actions)
    def test_three_way_identical_dispatch(self, actions):
        wheel = _dispatch_record(actions, Simulator, lambda s: s.run())
        heap = _dispatch_record(actions, _heap_sim, lambda s: s.run())
        assert wheel == heap

    @settings(max_examples=40, deadline=None)
    @given(_actions)
    def test_batch_equivalence_tiny_horizon(self, actions):
        """Constant wheel/overflow hand-offs while a bucket drains."""

        def tiny():
            sim = Simulator()
            sim._queue = EventQueue(granularity=1e-3, horizon=10e-3)
            return sim

        wheel = _dispatch_record(actions, tiny, lambda s: s.run())
        heap = _dispatch_record(actions, _heap_sim, lambda s: s.run())
        assert wheel == heap

    @settings(max_examples=40, deadline=None)
    @given(_actions, st.floats(min_value=0.0005, max_value=3.0))
    def test_epoch_runs_match(self, actions, epoch):
        """Repeated run(until=...) epochs agree with one full drain."""

        def run_epochs(sim):
            until = epoch
            for _ in range(30):
                sim.run(until=until)
                until += epoch
            sim.run()

        chunked = _dispatch_record(actions, Simulator, run_epochs)
        whole = _dispatch_record(actions, Simulator, lambda s: s.run())
        assert chunked == whole


class TestWheelMechanics:
    def test_beyond_horizon_rejected(self):
        queue = EventQueue()
        near = queue.push(DEFAULT_HORIZON / 2, _noop)
        far = queue.push(DEFAULT_HORIZON + 1.0, _noop)
        assert [entry[2] for entry in queue._overflow] == [far]
        assert queue._wheel.entry_count() == 1
        assert queue.pop_next(None) is near
        assert queue.pop_next(None) is far

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimerWheel(granularity=0.0)
        with pytest.raises(ValueError):
            TimerWheel(granularity=1.0, horizon=0.5)

    def test_overflow_pop_advances_base(self):
        """Far-future pops move the wheel's position so the horizon tracks."""
        queue = EventQueue(granularity=1e-3, horizon=1.0)
        queue.push(50.0, _noop)
        assert queue.pop_next(None).time == 50.0
        # The wheel's base moved to ~50s: a 50.5s push is near-horizon now.
        queue.push(50.5, _noop)
        assert queue._wheel.entry_count() == 1
        assert len(queue._overflow) == 0


class TestCompaction:
    def test_cancel_heavy_queue_stays_bounded(self):
        """Pacing-style churn must not retain corpses until their deadline."""
        sim = Simulator()
        state = {"pacing": None, "rto": None, "fires": 0}

        def fire():
            state["fires"] += 1
            if state["pacing"] is not None:
                state["pacing"].cancel()
            if state["rto"] is not None:
                state["rto"].cancel()
            state["pacing"] = sim.schedule(0.002, _noop)
            state["rto"] = sim.schedule(0.25, _noop)  # cancelled 0.0001s later
            if state["fires"] < 20_000:
                sim.schedule(0.0001, fire)

        sim.schedule(0.0001, fire)
        sim.run()
        queue = sim._queue
        assert queue.compactions > 0
        # Without compaction ~2500 cancelled RTO entries would be retained
        # (0.25s deadline / 0.0001s churn); bounded means O(threshold).
        assert queue.entry_count() <= 2 * COMPACT_MIN_DEAD + 2
        assert queue.dead_events <= 2 * COMPACT_MIN_DEAD

    def test_compaction_preserves_order(self):
        rng = random.Random(7)
        queue = EventQueue()
        queue.compact_min_dead = 16  # make compaction easy to trigger
        reference = HeapEventQueue()
        live = []
        for _ in range(500):
            t = rng.random() * 8.0
            a = queue.push(t, _noop)
            b = reference.push(t, _noop)
            if rng.random() < 0.7:
                a.cancel()
                b.cancel()
            else:
                live.append((a, b))
        assert queue.compactions > 0
        got = []
        expected = []
        while True:
            x = queue.pop_next(None)
            y = reference.pop_next(None)
            assert (x is None) == (y is None)
            if x is None:
                break
            got.append((x.time, x.seq))
            expected.append((y.time, y.seq))
        assert got == expected

    def test_len_counts_live_only(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        assert queue.dead_events == 4
        events[0].cancel()  # idempotent: no double-count
        assert len(queue) == 6


class TestPeekReclaims:
    def test_peek_discards_and_detaches_cancelled_heads(self):
        """Satellite fix: peek must clear ``_queue`` like pop does."""
        for cls in (EventQueue, HeapEventQueue):
            queue = cls()
            dead = queue.push(1.0, _noop)
            keep = queue.push(2.0, _noop)
            dead.cancel()
            assert queue.dead_events == 1
            assert queue.peek_time() == 2.0
            # The corpse physically left the structure and was detached,
            # so cancelling it again cannot corrupt the dead count.
            assert dead._queue is None
            assert queue.dead_events == 0
            dead.cancel()
            assert queue.dead_events == 0
            assert queue.pop_next(None) is keep
