"""The simulator: a single clock driving one event heap.

Typical use::

    sim = Simulator()
    sim.schedule(0.5, fire_probe)
    sim.run(until=60.0)

Components receive the simulator at construction time and schedule their own
callbacks; nothing in the library spawns threads or sleeps on wall-clock time.

Pending events are one ``heapq`` list of ``(time, seq, event)`` tuples from
the schedule methods and handle-free ``(time, seq, callback, args)`` ones
from :meth:`Simulator.post_at`, which :meth:`Simulator.run` drains inline:
every ordering comparison is a C tuple compare, and dispatching an event
costs no Python call besides its callback. ``tests/oracles`` holds the
naive queue the dispatch order is checked against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

#: Allocation without an ``Event.__init__`` frame: ``__new__`` plus direct
#: slot stores is ~25% cheaper, and schedules are the simulator's hottest
#: allocation site.
_new_event = Event.__new__

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
        "_heap",
        "_seq",
        "_dead",
        "_running",
        "_stop_requested",
        "events_processed",
        "_obs",
        "_invariant_hook",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Filed entries: ``(time, seq, event)``, live or cancelled, and
        #: handle-free ``(time, seq, callback, args)``, always live.
        self._heap: List[tuple] = []
        self._seq = count()
        #: Cancelled entries still filed in ``_heap`` (see
        #: :meth:`Event.cancel`, which counts them and triggers compaction).
        self._dead = 0
        self._running = False
        self._stop_requested = False
        self.events_processed = 0
        #: Optional :class:`repro.obs.Observability` context. ``None`` keeps
        #: the dispatch loop untouched; when set, each ``run`` folds its
        #: event count into the ``sim.events_processed`` counter afterwards
        #: (off the per-event hot path).
        self._obs = None
        #: Optional invariant hook ``fn(now, event_time)`` called before
        #: each callback (see :meth:`attach_invariant_hook`).
        self._invariant_hook: Optional[Callable[[float, float], None]] = None

    def attach_obs(self, obs) -> None:
        """Attach an observability context (see :mod:`repro.obs`)."""
        self._obs = obs

    def attach_invariant_hook(
        self, hook: Optional[Callable[[float, float], None]]
    ) -> None:
        """Install (or clear) the per-event invariant hook.

        ``hook(now, event_time)`` fires once per dispatched event, after
        the event left the queue and before the clock moves and its
        callback runs: ``now`` is the clock the previous event left,
        ``event_time`` the time about to become ``now``. The hook may
        raise: an :class:`~repro.errors.InvariantError` propagates out of
        :meth:`run` with the offending event's callback not run (see
        :mod:`repro.check`).
        """
        self._invariant_hook = hook

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        seq = next(self._seq)
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        heappush(self._heap, (time, seq, event))
        return event

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
        time = self.now + delay
        seq = next(self._seq)
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        heappush(self._heap, (time, seq, event))
        return event

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """:meth:`schedule_at` for a callback nobody will cancel: a plain
        heap entry, no :class:`Event` and no handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        heappush(self._heap, (time, next(self._seq), callback, args))

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
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stop_requested = False
        processed = 0
        drained = False
        heap = self._heap
        pop = heappop
        limit = _INF if until is None else until
        check = self._invariant_hook
        try:
            while not self._stop_requested:
                if not heap:
                    drained = True
                    break
                entry = pop(heap)
                time = entry[0]
                if time > limit:
                    # Beyond this run: refile it untouched (same seq, so
                    # the dispatch order cannot change).
                    heappush(heap, entry)
                    drained = True
                    break
                if len(entry) == 4:
                    # Handle-free: nobody could have cancelled it.
                    callback, args = entry[2], entry[3]
                else:
                    event = entry[2]
                    if event.cancelled:
                        # A cancelled head leaves the heap for good.
                        self._dead -= 1
                        continue
                    event._sim = None
                    callback, args = event.callback, event.args
                if check is not None:
                    check(self.now, time)
                self.now = time
                callback(*args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
            if until is not None and drained and until > self.now:
                self.now = until
        finally:
            self._running = False
            self.events_processed += processed
            obs = self._obs
            if obs is not None and processed:
                obs.registry.counter("sim.events_processed").add(processed)

    def stop(self) -> None:
        """Request the current ``run`` to return after the active event."""
        self._stop_requested = True

    def _compact(self) -> None:
        """Drop every cancelled entry in O(live).

        The list is rewritten in place: :meth:`run` holds a local
        reference to it while a callback's cancel may land here.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if len(entry) == 4 or not entry[2].cancelled]
        heapify(heap)
        self._dead = 0

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"
