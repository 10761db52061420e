"""The naive event queue and the per-event run loop over it.

:class:`NaiveEventQueue` is a binary heap of :class:`OracleEvent` objects
ordered through ``__lt__`` on ``(time, seq)``, with lazy cancellation and
no compaction. :class:`NaiveSimulator` puts the kernel's public surface
(``schedule``/``schedule_at``/``reschedule``/``cancel``/``post_at``/
``run``/``stop``/``pending_events``) on top of it with one ``pop_next``
call per event; a handle-free ``post_at`` is an ordinary event whose
handle is dropped.
Neither shares code with :mod:`repro.sim`, so a dispatch record that
matches between the two is evidence, not a tautology.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


class OracleEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue: Optional["NaiveEventQueue"] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    def __lt__(self, other: "OracleEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class NaiveEventQueue:
    """One heap of events; cancelled ones are skipped when they surface."""

    def __init__(self) -> None:
        self._heap: List[OracleEvent] = []
        self._next_seq = 0
        self._live = 0

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> OracleEvent:
        event = OracleEvent(time, self._next_seq, callback, args)
        event._queue = self
        self._next_seq += 1
        heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> Optional[OracleEvent]:
        return self.pop_next(None)

    def pop_next(self, until: Optional[float] = None) -> Optional[OracleEvent]:
        """The earliest live event with ``time <= until``, or ``None``."""
        heap = self._heap
        while heap:
            event = heap[0]
            if event.cancelled:
                heappop(heap)
                event._queue = None
                continue
            if until is not None and event.time > until:
                return None
            heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0].cancelled:
            heappop(heap)._queue = None
        return heap[0].time if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class NaiveSimulator:
    """The kernel's rules, one ``pop_next`` per dispatched event."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue = NaiveEventQueue()
        self._running = False
        self._stop_requested = False
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> OracleEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> OracleEvent:
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time}, current time is {self.now}")
        return self._queue.push(time, callback, args)

    def reschedule(self, event, delay: float, callback: Callable[..., Any], *args: Any):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if event is not None:
            event.cancel()
        return self._queue.push(self.now + delay, callback, args)

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        self.schedule_at(time, callback, *args)

    def cancel(self, event: OracleEvent) -> None:
        event.cancel()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stop_requested = False
        processed = 0
        drained = False
        try:
            while not self._stop_requested:
                event = self._queue.pop_next(until)
                if event is None:
                    drained = True
                    break
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

    def stop(self) -> None:
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        return len(self._queue)
