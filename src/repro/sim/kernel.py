"""The simulator: a single clock driving an event queue.

Typical use::

    sim = Simulator()
    sim.schedule(0.5, fire_probe)
    sim.run(until=60.0)

Components receive the simulator at construction time and schedule their own
callbacks; nothing in the library spawns threads or sleeps on wall-clock time.

Dispatch is *batched*: :meth:`Simulator.run` pays the slow two-level
queue sweep once per loaded timer-wheel bucket and then walks the sorted
bucket with a tight inner loop — one Python-level iteration per event
instead of one ``pop_next`` call per event. Observable semantics are
unchanged (``sim.now`` still advances per event, dispatch order is
bit-for-bit the heap order, ``stop()`` still halts after the active
event); what moves to per-batch granularity is the queue bookkeeping,
the compaction trigger, and the invariant hook (see
:meth:`attach_batch_invariant_hook`). :meth:`run_per_event` keeps the
classic one-pop-per-event loop as the reference implementation the
equivalence suite and the kernel benchmark compare :meth:`run` against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

_INF = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulation time in seconds. Starts at 0.0 and only moves
        forward.
    """

    # ``self.now`` is written once per dispatched event and read by
    # nearly every callback; slot storage keeps those accesses off the
    # instance dict.
    __slots__ = (
        "now",
        "_queue",
        "_running",
        "_stop_requested",
        "events_processed",
        "_obs",
        "_batch_invariant_hook",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stop_requested = False
        self.events_processed = 0
        #: Optional :class:`repro.obs.Observability` context. ``None`` keeps
        #: the dispatch loop untouched; when set, each ``run`` folds its
        #: event count into the ``sim.events_processed`` counter afterwards
        #: (off the per-event hot path).
        self._obs = None
        #: Optional per-batch invariant hook ``fn(now, first_time, count)``
        #: called once per dispatched batch (see :mod:`repro.check` and
        #: :meth:`attach_batch_invariant_hook`).
        self._batch_invariant_hook: Optional[Callable[[float, float, int], None]] = None

    def attach_obs(self, obs) -> None:
        """Attach an observability context (see :mod:`repro.obs`)."""
        self._obs = obs

    def attach_batch_invariant_hook(
        self, hook: Optional[Callable[[float, float, int], None]]
    ) -> None:
        """Install (or clear) the batched invariant hook.

        ``hook(now, first_time, count)`` fires once per dispatched batch:
        ``now`` is the clock before the batch, ``first_time`` the first
        event's time, ``count`` how many live events dispatched. Because
        every batch is a sorted run, checking ``first_time >= now``
        certifies clock monotonicity for the whole batch, at 1/len(batch)
        the cost of checking every event. The hook may raise: an
        :class:`~repro.errors.InvariantError` propagates out of
        :meth:`run`. Slow-path (overflow/singleton) events report as
        batches of one, *before* their callback runs; full batches report
        at the batch boundary, i.e. a law violated mid-batch is detected
        at the end of that bucket rather than between events.
        """
        self._batch_invariant_hook = hook

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        return self._queue.push(time, callback, args)

    def schedule_transient(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule a fire-and-forget callback whose Event is pool-recycled.

        The returned event object is returned to the event pool right
        after its callback runs; the caller MUST NOT retain the reference
        past dispatch (see the recycle contract in ``docs/PERFORMANCE.md``).
        Use for high-volume per-packet events nobody ever cancels — link
        serialization completions, deliveries.

        ``cancel()`` on the returned event *before* it fires is safe: the
        cancel demotes the event to a regular (non-pooled) one, so the
        retained handle can never alias a recycled object. Cancelling
        after dispatch remains undefined — by then the object may already
        be filed as a different event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args, transient=True)

    def schedule_at_transient(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Absolute-time variant of :meth:`schedule_transient`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        return self._queue.push(time, callback, args, transient=True)

    def reschedule(
        self, event: Optional[Event], delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Cancel ``event`` (if still pending) and arm a replacement timer.

        The cancel-or-reschedule idiom every transport timer uses —
        ``conn._rto_event = sim.reschedule(conn._rto_event, rto, fire)`` —
        with the cancel bookkeeping in one place. ``event`` may be
        ``None`` or already fired/cancelled; both are no-ops.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if event is not None and not event.cancelled:
            event.cancel()
        return self._queue.push(self.now + delay, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event. Safe to call more than once."""
        event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in order until the queue drains or limits are hit.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. The clock is advanced
            to ``until`` even if no event fires exactly then, so repeated
            ``run(until=...)`` calls behave like contiguous epochs — but only
            when the queue was actually drained up to ``until``. If the run
            stops early (``max_events`` reached, or :meth:`stop` called)
            while events earlier than ``until`` are still pending, the clock
            stays at the last processed event so a later ``run`` never moves
            it backwards.
        max_events:
            Safety valve for runaway event cascades in tests.

        This is the batch loop: one slow queue sweep per loaded bucket,
        then a tight walk over the bucket's sorted entries. Mid-batch
        schedules merge into the live window (dispatch order stays
        bit-for-bit the heap order — see ``tests/test_sim_wheel.py``),
        ``stop()`` is honored per event, and a callback exception leaves
        the queue exactly as the per-event loop would (the failing event
        consumed, the cursor and live/dead counts settled).
        """
        if type(self._queue) is not EventQueue:
            # A swapped-in queue (HeapEventQueue cross-checks, test
            # doubles) has no wheel to batch-drain: serve it with the
            # per-event reference loop instead of reaching into
            # internals it does not have.
            return self.run_per_event(until, max_events)
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        wheel = queue._wheel
        pool = queue._pool
        free = pool._free
        max_free = pool.max_free
        overflow = queue._overflow
        granularity = wheel.granularity
        batch_check = self._batch_invariant_hook
        processed = 0
        released = 0
        drained = False
        try:
            while not self._stop_requested:
                drain = wheel._drain
                pos = wheel._drain_pos
                n = len(drain)
                if pos < n and (not overflow or drain[pos] < overflow[0]):
                    # Fast path: dispatch the eligible prefix of the
                    # loaded bucket. The bound indices are computed once;
                    # mid-batch inserts can only shift entries rightwards
                    # past the bound, where the next outer iteration picks
                    # them up in order (an insert *before* the cursor is
                    # impossible: new entries carry a larger seq and a
                    # time >= now).
                    bound = n
                    if overflow:
                        cut = bisect_left(drain, overflow[0], lo=pos)
                        if cut < bound:
                            bound = cut
                    if until is not None and until < (wheel._drain_tick + 1) * granularity:
                        cut = bisect_right(drain, (until, _INF), lo=pos)
                        if cut < bound:
                            bound = cut
                        if cut == pos:
                            # Everything left in this bucket (and hence in
                            # the whole queue) is beyond the epoch.
                            drained = True
                            break
                    if max_events is not None:
                        cut = pos + (max_events - processed)
                        if cut < bound:
                            bound = cut
                else:
                    bound = pos
                if bound <= pos:
                    # Slow path: bucket exhausted, or the overflow head
                    # precedes or interleaves. One classic fused pop.
                    event = queue.pop_next(until)
                    if event is None:
                        drained = True
                        break
                    if batch_check is not None:
                        batch_check(self.now, event.time, 1)
                    self.now = event.time
                    event.callback(*event.args)
                    if event.transient and len(free) < max_free:
                        event.callback = None
                        event.args = ()
                        event._queue = None
                        free.append(event)
                        released += 1
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        break
                    continue
                start = pos
                start_now = self.now
                first_time = drain[pos][0]
                dead_delta = 0
                queue._in_batch = True
                try:
                    while pos < bound:
                        entry = drain[pos]
                        pos += 1
                        event = entry[2]
                        if event.cancelled:
                            dead_delta += 1
                            event._queue = None
                            if event.transient and len(free) < max_free:
                                event.callback = None
                                event.args = ()
                                free.append(event)
                                released += 1
                            continue
                        event._queue = None
                        self.now = entry[0]
                        event.callback(*event.args)
                        if event.transient and len(free) < max_free:
                            event.callback = None
                            event.args = ()
                            event._queue = None
                            free.append(event)
                            released += 1
                        if self._stop_requested:
                            break
                finally:
                    # Exception-safe writeback: whatever happened, the
                    # cursor and the live/dead counts reflect exactly the
                    # entries consumed — same queue state the per-event
                    # loop would leave behind.
                    wheel._drain_pos = pos
                    queue._dead -= dead_delta
                    live_done = pos - start - dead_delta
                    queue._live -= live_done
                    processed += live_done
                    queue._in_batch = False
                    if queue._compact_pending:
                        queue._compact_pending = False
                        if (
                            queue._dead >= queue.compact_min_dead
                            and queue._dead > queue._live
                        ):
                            queue._compact()
                if batch_check is not None and live_done:
                    batch_check(start_now, first_time, live_done)
                if max_events is not None and processed >= max_events:
                    break
            if until is not None and drained and until > self.now:
                self.now = until
        finally:
            self._running = False
            pool.released += released
            self.events_processed += processed
            obs = self._obs
            if obs is not None and processed:
                obs.registry.counter("sim.events_processed").add(processed)

    def run_per_event(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """The classic one-pop-per-event loop (reference implementation).

        Semantically identical to :meth:`run` — the hypothesis suite in
        ``tests/test_sim_wheel.py`` holds the two to bit-for-bit equal
        dispatch records — but pays the full queue sweep for every
        event. :meth:`run` routes here for a swapped-in queue without a
        wheel; it is also the loop the batch path is benchmarked against.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stop_requested = False
        processed_this_run = 0
        drained = False
        pop_next = self._queue.pop_next
        # Pool-less queues (HeapEventQueue cross-checks) disable the
        # transient-recycle branch by making its guard always false.
        pool = getattr(self._queue, "pool", None)
        free = pool._free if pool is not None else ()
        max_free = pool.max_free if pool is not None else 0
        batch_check = self._batch_invariant_hook
        try:
            while not self._stop_requested:
                event = pop_next(until)
                if event is None:
                    drained = True
                    break
                if batch_check is not None:
                    batch_check(self.now, event.time, 1)
                self.now = event.time
                event.callback(*event.args)
                if event.transient and len(free) < max_free:
                    # Inlined EventPool.release: per-event call overhead
                    # on the dispatch hot path is worth avoiding.
                    event.callback = None
                    event.args = ()
                    event._queue = None
                    free.append(event)
                    pool.released += 1
                self.events_processed += 1
                processed_this_run += 1
                if max_events is not None and processed_this_run >= max_events:
                    break
            if until is not None and drained and until > self.now:
                self.now = until
        finally:
            self._running = False
            obs = self._obs
            if obs is not None and processed_this_run:
                obs.registry.counter("sim.events_processed").add(processed_this_run)

    def stop(self) -> None:
        """Request the current ``run`` to return after the active event."""
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Inside a batch this is settled at batch boundaries: a callback
        reading it mid-batch may see already-dispatched batchmates still
        counted. Use for post-run assertions, not mid-batch control flow.
        """
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"
