"""Unit tests for the discrete-event kernel."""

import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from tests.oracles.event_queue import NaiveEventQueue


class TestEventQueue:
    """The reference queue's own rules (``tests/oracles``): the equivalence
    suite in ``test_sim_wheel.py`` is only as good as the queue it holds the
    kernel to."""

    def test_pops_in_time_order(self):
        queue = NaiveEventQueue()
        fired = []
        queue.push(2.0, fired.append, (2,))
        queue.push(1.0, fired.append, (1,))
        queue.push(3.0, fired.append, (3,))
        order = [queue.pop().time for _ in range(3)]
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_among_simultaneous_events(self):
        queue = NaiveEventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = NaiveEventQueue()
        doomed = queue.push(1.0, lambda: None)
        survivor = queue.push(2.0, lambda: None)
        doomed.cancel()
        assert queue.pop() is survivor

    def test_len_tracks_live_events(self):
        queue = NaiveEventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = NaiveEventQueue()
        doomed = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        doomed.cancel()
        assert queue.peek_time() == 5.0

    def test_pop_empty_returns_none(self):
        assert NaiveEventQueue().pop() is None

    def test_cancel_without_notify_updates_len(self):
        # cancel() does its own bookkeeping.
        queue = NaiveEventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_len(self):
        queue = NaiveEventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # already delivered; must not decrement again
        assert len(queue) == 1

    def test_pop_next_returns_due_event(self):
        queue = NaiveEventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.pop_next(until=2.0) is event
        assert len(queue) == 0

    def test_pop_next_leaves_future_events_queued(self):
        queue = NaiveEventQueue()
        queue.push(5.0, lambda: None)
        assert queue.pop_next(until=2.0) is None
        assert len(queue) == 1
        assert queue.peek_time() == 5.0

    def test_pop_next_boundary_is_inclusive(self):
        queue = NaiveEventQueue()
        event = queue.push(2.0, lambda: None)
        assert queue.pop_next(until=2.0) is event

    def test_pop_next_without_bound_pops_everything(self):
        queue = NaiveEventQueue()
        queue.push(3.0, lambda: None)
        queue.push(1.0, lambda: None)
        times = [queue.pop_next().time for _ in range(2)]
        assert times == [1.0, 3.0]
        assert queue.pop_next() is None

    def test_pop_next_skips_cancelled_before_bound_check(self):
        queue = NaiveEventQueue()
        doomed = queue.push(1.0, lambda: None)
        survivor = queue.push(1.5, lambda: None)
        doomed.cancel()
        assert queue.pop_next(until=2.0) is survivor
        assert len(queue) == 0


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_at_their_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append("late"))
        sim.run(until=2.0)
        assert seen == []
        assert sim.now == 2.0
        sim.run(until=6.0)
        assert seen == ["late"]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(1))
        sim.cancel(event)
        sim.run()
        assert seen == []
        assert sim.pending_events == 0

    def test_cancelled_event_holds_no_reference_to_its_callbacks_owner(self):
        """A cancelled event stays filed until it surfaces; it must not keep
        the object whose bound method (or argument) it would have run."""

        class Owner:
            def fire(self, _arg):
                raise AssertionError("a cancelled event ran")

        sim = Simulator()
        owner = Owner()
        alive = weakref.ref(owner)
        event = sim.schedule(1.0, owner.fire, owner)
        event.cancel()
        del owner
        assert alive() is None
        sim.run()
        assert sim.pending_events == 0

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_stop_halts_processing(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    # -- regression: run(until=..., max_events=...) used to fast-forward the
    # clock to `until` even when the max_events break left events pending,
    # so the next run() moved the clock backwards. ------------------------

    def test_max_events_break_does_not_fast_forward_clock(self):
        sim = Simulator()
        for i in range(1, 11):
            sim.schedule(float(i), lambda: None)
        sim.run(until=20.0, max_events=3)
        # Events at t=4..10 are still pending: the clock must sit at the
        # last processed event, not jump to the bound.
        assert sim.now == 3.0
        assert sim.pending_events == 7

    def test_clock_is_monotonic_across_resumptions(self):
        sim = Simulator()
        fired = []
        for i in range(1, 11):
            sim.schedule(float(i), fired.append, float(i))
        observed = []
        while sim.pending_events:
            sim.run(until=20.0, max_events=3)
            observed.append(sim.now)
        assert observed == sorted(observed)
        assert fired == [float(i) for i in range(1, 11)]
        # Only the final, fully-drained run may fast-forward to the bound.
        assert sim.now == 20.0

    def test_callbacks_never_observe_backwards_clock(self):
        sim = Simulator()
        stamps = []
        for i in range(1, 6):
            sim.schedule(float(i), lambda: stamps.append(sim.now))
        sim.run(until=50.0, max_events=2)
        sim.run(until=50.0)
        assert stamps == sorted(stamps)
        assert stamps == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_does_not_fast_forward_clock(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(5.0, lambda: None)
        sim.run(until=20.0)
        assert sim.now == 1.0
        sim.run(until=20.0)
        assert sim.now == 20.0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, sim.run)
        with pytest.raises(SimulationError):
            sim.run()
        sim.run()  # the guard is released on the way out

    def test_pending_events_is_exact_mid_run(self):
        """A callback sees the live count, its own event already gone."""
        sim = Simulator()
        seen = []
        for i in range(1, 6):
            sim.schedule(i * 1e-4, lambda: seen.append(sim.pending_events))
        sim.run()
        assert seen == [4, 3, 2, 1, 0]

    def test_until_is_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.schedule(2.0 + 1e-9, lambda: seen.append(sim.now))
        sim.run(until=2.0)
        assert seen == [2.0]
        assert sim.pending_events == 1

    def test_cancelled_head_does_not_stop_the_run(self):
        sim = Simulator()
        seen = []
        doomed = sim.schedule(1.0, lambda: seen.append("doomed"))
        sim.schedule(1.5, lambda: seen.append("survivor"))
        doomed.cancel()
        sim.run(until=2.0)
        assert seen == ["survivor"]
        assert sim.pending_events == 0 and not sim._heap

    def test_invariant_hook_sees_the_old_clock_before_the_callback(self):
        sim = Simulator()
        seen = []
        sim.attach_invariant_hook(lambda now, at: seen.append(("hook", now, at)))
        sim.schedule(1.0, lambda: seen.append(("callback", sim.now)))
        sim.schedule(3.0, lambda: seen.append(("callback", sim.now)))
        sim.run()
        assert seen == [
            ("hook", 0.0, 1.0), ("callback", 1.0), ("hook", 1.0, 3.0), ("callback", 3.0),
        ]

    def test_args_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, lambda a, b: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(1.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]
