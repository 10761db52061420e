"""Event-pool recycling: transient events are reused, regular ones never.

The recycle contract (``docs/PERFORMANCE.md``): only events scheduled via
``schedule_transient``/``schedule_at_transient`` return to the pool, and
only after their callback ran. ``cancel()`` demotes a transient to a
regular event (the caller proved it kept a handle), so cancelled corpses
are shed but never recycled. Pooled events must not pin callbacks or
packets, and the free list is bounded.
"""

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.pool import EventPool


def _noop():
    return None


class TestPoolRecycling:
    def test_transient_events_are_reused(self):
        sim = Simulator()
        state = {"fires": 0}

        def fire():
            state["fires"] += 1
            if state["fires"] < 1000:
                sim.schedule_transient(0.001, fire)

        sim.schedule_transient(0.001, fire)
        sim.run()
        pool = sim._queue.pool
        assert state["fires"] == 1000
        # Steady-state churn runs on recycled objects: ~1 allocation.
        assert pool.created <= 2
        assert pool.reused >= 998

    def test_regular_events_never_pooled(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(0.001, _noop)
        sim.run()
        pool = sim._queue.pool
        assert pool.released == 0
        assert len(pool) == 0

    def test_pooled_event_releases_references(self):
        """A recycled event must not pin its callback or arguments."""
        sim = Simulator()
        payload = object()
        sim.schedule_transient(0.001, lambda _p: None, payload)
        sim.run()
        free = sim._queue.pool._free
        assert len(free) == 1
        recycled = free[0]
        assert recycled.callback is None
        assert recycled.args == ()
        assert recycled._queue is None

    def test_free_list_is_bounded(self):
        pool = EventPool(max_free=4)
        queue = EventQueue(pool=pool)
        events = [
            queue.push(float(i), _noop, (), True) for i in range(10)
        ]
        for event in events:
            queue.pop_next(None)
            pool.release(event)
        assert len(pool) == 4
        assert pool.released == 4

    def test_cancelled_transient_never_pooled(self):
        """cancel() demotes a transient: the handle must stay unaliased.

        The caller proved it kept the handle by cancelling, so recycling
        the object would alias that handle onto a future unrelated event.
        The corpse is shed from the queue but NOT returned to the pool.
        """
        sim = Simulator()
        doomed = sim.schedule_transient(0.001, _noop)
        sim.schedule(0.002, _noop)
        doomed.cancel()
        assert doomed.transient is False
        sim.run()
        pool = sim._queue.pool
        assert pool.released == 0
        assert doomed not in pool._free
        # The handle still describes the event the caller cancelled.
        assert doomed.cancelled is True
        assert doomed.callback is _noop

    def test_cancel_transient_mid_batch_does_not_alias(self):
        """Regression: cancelling a transient from within the same dispatch
        batch (same wheel bucket) must neither fire it nor recycle it.

        Pre-fix, the batch loop pooled the cancelled corpse inline, so the
        next transient push returned the *same object* as the retained
        handle — cancel() on the handle would then kill the new event.
        """
        sim = Simulator()
        fired = []
        handles = {}

        def canceller():
            handles["doomed"].cancel()

        # Same 1ms wheel bucket: canceller dispatches first (earlier seq),
        # then the loop walks over the now-cancelled transient corpse.
        sim.schedule(0.0005, canceller)
        handles["doomed"] = sim.schedule_transient(0.0006, fired.append, "doomed")
        sim.schedule(0.0007, fired.append, "survivor")
        sim.run(until=0.001)
        assert fired == ["survivor"]
        assert sim._queue.pool.released == 0
        # A fresh transient must be a distinct object from the handle.
        fresh = sim.schedule_transient(0.001, _noop)
        assert fresh is not handles["doomed"]
        # Cancelling the stale handle again must not touch the new event.
        handles["doomed"].cancel()
        assert fresh.cancelled is False
        sim.run()
        assert fresh.cancelled is False

    def test_reuse_resets_all_fields(self):
        queue = EventQueue()
        stale = queue.push(1.0, _noop, (), True)
        queue.pop_next(None)  # dispatch-style pop; caller pools it
        queue.pool.release(stale)
        fresh = queue.push(2.0, _noop, ("x",), False)
        assert fresh is stale  # recycled object
        assert fresh.time == 2.0
        assert fresh.cancelled is False
        assert fresh.transient is False
        assert fresh.args == ("x",)

    def test_schedule_transient_rejects_past(self):
        import pytest

        from repro.errors import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_transient(-0.1, _noop)
        with pytest.raises(SimulationError):
            sim.schedule_at_transient(-0.1, _noop)


class TestReschedule:
    def test_reschedule_cancels_previous(self):
        sim = Simulator()
        fired = []
        first = sim.reschedule(None, 0.5, fired.append, "first")
        second = sim.reschedule(first, 0.2, fired.append, "second")
        sim.run()
        assert fired == ["second"]
        assert first.cancelled
        assert not second.cancelled

    def test_reschedule_accepts_fired_event(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(0.1, fired.append, "first")
        sim.run()
        again = sim.reschedule(first, 0.1, fired.append, "again")
        sim.run()
        assert fired == ["first", "again"]
        assert again is not first

    def test_reschedule_rejects_negative_delay(self):
        import pytest

        from repro.errors import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.reschedule(None, -1.0, _noop)

    def test_negative_delay_keeps_pending_timer(self):
        import pytest

        from repro.errors import SimulationError

        sim = Simulator()
        fired = []
        armed = sim.schedule(0.5, fired.append, "armed")
        with pytest.raises(SimulationError):
            sim.reschedule(armed, -1.0, _noop)
        assert not armed.cancelled
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["armed"]


class TestLinkUsesTransients:
    def test_link_traffic_recycles_events(self):
        """The per-packet serialize/deliver path must ride the pool."""
        from repro.net.link import Link, LinkSpec
        from repro.net.packet import Packet, PacketType

        sim = Simulator()
        link = Link(sim, LinkSpec(rate_bps=8_000_000, delay=0.01))
        delivered = []
        link.connect(delivered.append)
        for i in range(200):
            sim.schedule(
                i * 0.0005,
                lambda: link.send(Packet(flow_id=0, ptype=PacketType.DATA, payload_bytes=1000)),
            )
        sim.run()
        assert len(delivered) == 200
        pool = sim._queue.pool
        # 2 transient events per packet (serialize-done + deliver), served
        # from a handful of allocations once the pipeline is warm.
        assert pool.released >= 300
        assert pool.reused >= 300
