"""The simulator: a single clock driving an event queue.

Typical use::

    sim = Simulator()
    sim.schedule(0.5, fire_probe)
    sim.run(until=60.0)

Components receive the simulator at construction time and schedule their own
callbacks; nothing in the library spawns threads or sleeps on wall-clock time.

Dispatch is one :meth:`~repro.sim.events.EventQueue.pop_next` per event:
:meth:`Simulator.run` knows nothing about how the queue is built, so a
wheel-backed and a heap-backed simulator run the same loop (the
equivalence suite in ``tests/test_sim_wheel.py`` swaps the queue and
nothing else).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


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
        "_invariant_hook",
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
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self.now:.6f}"
            )
        return self._queue.push(time, callback, args)

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
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stop_requested = False
        processed = 0
        drained = False
        pop_next = self._queue.pop_next
        check = self._invariant_hook
        try:
            while not self._stop_requested:
                event = pop_next(until)
                if event is None:
                    drained = True
                    break
                if check is not None:
                    check(self.now, event.time)
                self.now = event.time
                event.callback(*event.args)
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

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"
