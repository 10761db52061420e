"""The kernel's inline heap drain against the naive event queue.

:class:`repro.sim.kernel.Simulator` (one heap of ``(time, seq, event)``
tuples, drained inline) and :class:`tests.oracles.event_queue.NaiveSimulator`
(a heap of comparable event objects behind one ``pop_next`` call per
event) are driven through identical randomized scripts — schedules at
arbitrary times with same-instant collisions, cancels and reschedules made
mid-run from inside callbacks, chunked ``run(until=...)``, ``stop()`` and
``max_events`` — and must dispatch exactly the same events in exactly the
same order, with the same clock and the same pending count after every
run call.

The file is named for the timer wheel this suite was first written
against; it keeps its name (and its test ids) now that the wheel is gone.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import COMPACT_MIN_DEAD
from repro.sim.kernel import Simulator
from tests.oracles.event_queue import NaiveSimulator


def _noop():
    return None


def _noop_arg(_):
    return None


# One operation = (kind, payload), applied between run calls.
_ops = st.lists(
    st.one_of(
        # Delays from three scales: sub-millisecond collisions, transport
        # timers, and far-future sentinels.
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

# Dense ties: every delay inside 10 ms, a quarter of them exactly zero.
_dense_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.one_of(st.just(0.0), st.sampled_from([1e-3, 2e-3, 5e-3]),
                      st.floats(min_value=0.0, max_value=0.01)),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("reschedule"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("pop"), st.just(None)),
    ),
    min_size=1,
    max_size=120,
)


def _run_workload(sim, ops):
    """Apply ops between one-event runs; return what was dispatched and seen."""
    handles = []
    record = []

    def fire(label):
        record.append((sim.now, label))

    for kind, payload in ops:
        if kind == "push":
            handles.append(sim.schedule(payload, fire, len(handles)))
        elif kind == "cancel" and handles:
            sim.cancel(handles[payload % len(handles)])
        elif kind == "reschedule" and handles:
            old = handles[payload % len(handles)]
            handles.append(sim.reschedule(old, 0.5, fire, len(handles)))
        elif kind == "pop":
            sim.run(max_events=1)
            record.append(("clock", sim.now))
        elif kind == "peek":
            record.append(("pending", sim.pending_events))
    sim.run()
    record.append(("end", sim.now, sim.pending_events))
    return record


class TestWheelMatchesHeap:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_identical_dispatch_order(self, ops):
        assert _run_workload(Simulator(), ops) == _run_workload(NaiveSimulator(), ops)

    @settings(max_examples=50, deadline=None)
    @given(_dense_ops)
    def test_identical_dispatch_order_tiny_horizon(self, ops):
        """Every delay within 10 ms: the order rests on ``seq`` tie-breaks."""
        assert _run_workload(Simulator(), ops) == _run_workload(NaiveSimulator(), ops)

    def test_same_instant_fifo(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(1.0, fired.append, i) for i in range(50)]
        sim.run()
        assert fired == list(range(50))
        assert [event.seq for event in events] == sorted(event.seq for event in events)

    def test_mid_drain_insert_keeps_order(self):
        """Scheduling for 'now' from a callback stays FIFO."""
        sim = Simulator()
        order = []

        def chain(n):
            order.append(n)
            if n < 5:
                sim.schedule(0.0, chain, n + 1)  # same instant

        sim.schedule(0.0001, chain, 0)
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]


# Per-fire actions for the simulator-level equivalence suite: each
# dispatched event consumes the next action and mutates the pending set
# mid-run — same-instant schedules, cancels (of pending, fired or already
# cancelled events), reschedules, a stop.
_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("sched"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=0.004),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=50.0),
            ),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("resched"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("stop"), st.just(None)),
        st.tuples(st.just("noop"), st.just(None)),
    ),
    min_size=1,
    max_size=80,
)


class _Script:
    """Replays one action list through a simulator, recording dispatch."""

    def __init__(self, sim, actions):
        self.sim = sim
        self.actions = list(actions)
        self.cursor = 0
        self.label = 0
        self.handles = []
        self.record = []

    def seed(self):
        for delay in (0.0003, 0.0009, 0.25, 7.0):
            self.spawn(delay)

    def spawn(self, delay):
        label = self.label
        self.label += 1
        self.handles.append(self.sim.schedule(delay, self.fire, label))

    def fire(self, label):
        self.record.append((self.sim.now, label, self.sim.pending_events))
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
            label = self.label
            self.label += 1
            self.handles.append(self.sim.reschedule(old, 0.0007, self.fire, label))
        elif kind == "stop":
            self.sim.stop()


def _dispatch_record(actions, make_sim, run):
    sim = make_sim()
    script = _Script(sim, actions)
    script.seed()
    run(sim, script)
    return script.record


#: Run calls a resume loop may make beyond one per filed event. Each call
#: dispatches an event or honours a ``stop()``, so only a miscounted
#: pending set (``pending_events`` non-zero with nothing left to
#: dispatch) can pass the bound: it fails the test instead of hanging it.
RESUME_MARGIN = 8


def _resume_until_empty(sim, script, tag, **run_kwargs):
    """``sim.run(**run_kwargs)`` until nothing is pending, recording each call."""
    calls = 0
    while sim.pending_events:
        calls += 1
        if calls > script.label + RESUME_MARGIN:
            pytest.fail(
                f"{calls} run calls for {script.label} filed events, "
                f"{sim.pending_events} still pending: the pending count is off"
            )
        sim.run(**run_kwargs)
        script.record.append((tag, sim.now, sim.pending_events))


def _drain(sim, script):
    """Run to empty, restarting after every ``stop()``."""
    _resume_until_empty(sim, script, "run")


class TestSimulatorLoopEquivalence:
    """The inline drain and the naive ``pop_next`` loop dispatch identically.

    (Two of the ids date from when a batch loop, a per-event loop and the
    timer wheel were further sides of this comparison.)
    """

    @settings(max_examples=120, deadline=None)
    @given(_actions)
    def test_three_way_identical_dispatch(self, actions):
        fast = _dispatch_record(actions, Simulator, _drain)
        naive = _dispatch_record(actions, NaiveSimulator, _drain)
        assert fast == naive

    @settings(max_examples=40, deadline=None)
    @given(_actions, st.integers(min_value=1, max_value=7))
    def test_batch_equivalence_tiny_horizon(self, actions, budget):
        """``run(max_events=N)`` slices, resumed until empty."""

        def sliced(sim, script):
            _resume_until_empty(sim, script, "slice", max_events=budget)

        fast = _dispatch_record(actions, Simulator, sliced)
        naive = _dispatch_record(actions, NaiveSimulator, sliced)
        assert fast == naive

    @settings(max_examples=40, deadline=None)
    @given(_actions, st.floats(min_value=0.0005, max_value=3.0))
    def test_epoch_runs_match(self, actions, epoch):
        """Repeated run(until=...) epochs agree with the naive loop's epochs
        and dispatch what one full drain does."""

        def run_epochs(sim, script):
            until = epoch
            for _ in range(30):
                sim.run(until=until)
                script.record.append(("epoch", sim.now, sim.pending_events))
                until += epoch
            _drain(sim, script)

        chunked = _dispatch_record(actions, Simulator, run_epochs)
        assert chunked == _dispatch_record(actions, NaiveSimulator, run_epochs)
        whole = _dispatch_record(actions, Simulator, _drain)
        fired = [entry for entry in chunked if isinstance(entry[1], int)]
        assert fired == [entry for entry in whole if isinstance(entry[1], int)]


# Handle-free filings beside handled ones: each op files at the top level
# or runs the kernel; a "link" filing is a chain of handle-free events (as a
# link's departure files its successor and a delivery) that cancels a
# handled event mid-run.
_mixed_delays = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-3, 2e-3]),
    st.floats(min_value=0.0, max_value=0.01),
    st.floats(min_value=0.0, max_value=3.0),
)
_mixed_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "post_at", "link"]), _mixed_delays),
        st.tuples(st.sampled_from(["cancel", "reschedule"]), st.integers(0, 10**6)),
        st.tuples(
            st.just("run"),
            st.tuples(
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
                st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            ),
        ),
        st.tuples(st.just("stop"), _mixed_delays),
    ),
    min_size=1,
    max_size=150,
)


def _mixed_workload(sim, ops):
    """Apply ``ops`` to ``sim``; the dispatch record plus the clock,
    ``events_processed`` and ``pending_events`` after every run call."""
    handles = []
    record = []
    labels = iter(range(10**9))

    def fire(label):
        record.append((sim.now, label))

    def hop(args):
        label, left, victim = args
        record.append((sim.now, label))
        if victim is not None and handles:
            handles[victim % len(handles)].cancel()
        if left:
            sim.post_at(sim.now + 1e-3 * left, hop, (next(labels), left - 1, None))
            sim.post_at(sim.now + 2e-3, fire, next(labels))

    for kind, payload in ops:
        if kind == "schedule":
            handles.append(sim.schedule(payload, fire, next(labels)))
        elif kind == "post_at":
            sim.post_at(sim.now + payload, fire, next(labels))
        elif kind == "link":
            sim.post_at(sim.now + payload, hop, (next(labels), 3, len(handles)))
        elif kind == "cancel" and handles:
            sim.cancel(handles[payload % len(handles)])
        elif kind == "reschedule" and handles:
            old = handles[payload % len(handles)]
            handles.append(sim.reschedule(old, 0.5, fire, next(labels)))
        elif kind == "stop":
            sim.post_at(sim.now + payload, lambda _: sim.stop(), None)
        elif kind == "run":
            until, max_events = payload
            sim.run(until=None if until is None else sim.now + until, max_events=max_events)
            record.append(("run", sim.now, sim.events_processed, sim.pending_events))
    for _ in range(50):  # bounded: a miscounted pending set fails, not hangs
        if not sim.pending_events:
            break
        sim.run()
        record.append(("end", sim.now, sim.events_processed, sim.pending_events))
    return record


class TestHandleFreeEntries:
    """``post_at`` files plain heap entries; mixed with handled
    events they dispatch exactly as the naive queue's ordinary events."""

    @settings(max_examples=200, deadline=None)
    @given(_mixed_ops)
    def test_mixed_filings_match_the_naive_queue(self, ops):
        assert _mixed_workload(Simulator(), ops) == _mixed_workload(NaiveSimulator(), ops)

    def test_post_at_checks_the_clock(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.post_at(1.0 - 1e-9, _noop_arg, None)
        with pytest.raises(SimulationError):
            sim.schedule(-1e-9, _noop)
        assert sim.pending_events == 0 and not sim._heap

    def test_hook_sees_handle_free_entries_before_the_clock_moves(self):
        sim = Simulator()
        seen = []
        sim.attach_invariant_hook(lambda now, time: seen.append((now, time, sim.now)))
        sim.post_at(0.5, _noop_arg, None)
        sim.schedule(0.25, _noop)
        sim.post_at(1.0, _noop_arg, None)
        sim.run()
        assert seen == [(0.0, 0.25, 0.0), (0.25, 0.5, 0.25), (0.5, 1.0, 0.5)]

    def test_until_refiles_a_handle_free_entry_with_its_seq(self):
        sim = Simulator()
        fired = []
        sim.post_at(2.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.post_at(2.0, fired.append, "c")
        sim.run(until=1.0)
        assert sim.now == 1.0 and sim.pending_events == 3
        sim.post_at(2.0, fired.append, "d")  # same instant, filed later
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_compaction_keeps_every_handle_free_entry(self):
        sim, naive = Simulator(), NaiveSimulator()
        fired = {id(sim): [], id(naive): []}
        for s in (sim, naive):
            doomed = [s.schedule(0.5 + i * 1e-3, _noop) for i in range(3 * COMPACT_MIN_DEAD)]
            for i in range(2 * COMPACT_MIN_DEAD):
                s.post_at(i * 1e-3, fired[id(s)].append, i)
            for event in doomed:
                event.cancel()
        assert sim._dead < COMPACT_MIN_DEAD  # compacted along the way
        assert sim.pending_events == naive.pending_events == 2 * COMPACT_MIN_DEAD
        sim.run()
        naive.run()
        assert fired[id(sim)] == fired[id(naive)] == list(range(2 * COMPACT_MIN_DEAD))
        assert sim.events_processed == naive.events_processed


class TestCompaction:
    def test_cancel_heavy_queue_stays_bounded(self):
        """Pacing-style churn must not retain corpses until their deadline."""
        sim = Simulator()
        state = {"pacing": None, "rto": None, "fires": 0}
        retained = []

        def fire():
            state["fires"] += 1
            if state["pacing"] is not None:
                state["pacing"].cancel()
            if state["rto"] is not None:
                state["rto"].cancel()
            state["pacing"] = sim.schedule(0.002, _noop)
            state["rto"] = sim.schedule(0.25, _noop)  # cancelled 0.0001s later
            retained.append(len(sim._heap))
            if state["fires"] < 20_000:
                sim.schedule(0.0001, fire)

        sim.schedule(0.0001, fire)
        sim.run()
        # Without compaction ~2500 cancelled RTO entries would be retained
        # (0.25s deadline / 0.0001s churn); bounded means O(threshold).
        assert max(retained) <= 2 * COMPACT_MIN_DEAD + 4
        assert sim._dead <= 2 * COMPACT_MIN_DEAD
        assert sim.pending_events == 0

    def test_compaction_preserves_order(self):
        rng = random.Random(7)
        fast, naive = Simulator(), NaiveSimulator()
        fired = {id(fast): [], id(naive): []}
        compacted = False
        for _ in range(2000):
            t = rng.random() * 8.0
            pair = [sim.schedule(t, fired[id(sim)].append, t) for sim in (fast, naive)]
            if rng.random() < 0.7:
                before = len(fast._heap)
                for event in pair:
                    event.cancel()
                compacted |= len(fast._heap) < before
        assert compacted
        assert fast.pending_events == naive.pending_events
        fast.run()
        naive.run()
        assert fired[id(fast)] == fired[id(naive)]

    def test_compaction_inside_a_callback_keeps_the_run_going(self):
        """A cancel from a callback that compacts must not end the drain:
        ``run`` holds the heap list it is draining."""
        sim = Simulator()
        doomed = [sim.schedule(5.0, _noop) for _ in range(4 * COMPACT_MIN_DEAD)]
        fired = []

        def purge():
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, purge)
        for i in range(3000):
            sim.schedule(2.0 + i * 1e-3, fired.append, i)
        sim.run()
        assert fired == list(range(3000))
        assert sim.pending_events == 0 and not sim._heap

    def test_len_counts_live_only(self):
        sim = Simulator()
        events = [sim.schedule(float(i), _noop) for i in range(10)]
        assert sim.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_events == 6
        assert sim._dead == 4
        events[0].cancel()  # idempotent: no double-count
        assert sim.pending_events == 6


class TestPeekReclaims:
    def test_peek_discards_and_detaches_cancelled_heads(self):
        """A run that looks past a cancelled head reclaims it for good."""
        sim = Simulator()
        dead = sim.schedule(1.0, _noop)
        keep = sim.schedule(2.0, _noop)
        dead.cancel()
        assert sim._dead == 1
        sim.run(until=1.5)  # pops the corpse, refiles the 2.0 s event
        assert [entry[2] for entry in sim._heap] == [keep]
        assert sim._dead == 0
        dead.cancel()
        assert sim._dead == 0
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 2.0 and sim.pending_events == 0

    def test_cancel_after_dispatch_changes_no_count(self):
        sim = Simulator()
        first = sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        sim.run(until=1.0)
        first.cancel()
        assert first.cancelled
        assert sim._dead == 0 and sim.pending_events == 1
