"""Event objects and the pending-event queue.

The queue is a two-level hierarchy keyed on ``(time, sequence_number)``:
a near-horizon :class:`~repro.sim.wheel.TimerWheel` (O(1) inserts,
sort-once-then-walk drains) backed by a binary-heap overflow for
far-future timers. The sequence number is a monotonically increasing
insertion counter, which gives FIFO ordering among events scheduled for
the same instant — a requirement for deterministic replay. Both levels
store ``(time, seq, event)`` tuples so every comparison happens at C
speed; dispatch order is bit-for-bit identical to the classic
single-heap queue, kept below as :class:`HeapEventQueue`: the reference
the equivalence tests hold the wheel to and the kernel benchmark
measures it against (nothing in ``src/repro`` uses it).

Cancellation is lazy — a cancelled event stays filed until its time
arrives — but bounded: when dead entries outnumber live ones the queue
compacts, rebuilding every level in O(live). A pacing-heavy transport
that arms and cancels a timer per packet no longer retains each corpse
until its original deadline.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.wheel import DEFAULT_GRANULARITY, DEFAULT_HORIZON, TimerWheel


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`
    rather than directly. Holding a reference allows cancellation via
    :meth:`cancel`; a cancelled event stays filed but is skipped when
    popped (lazy deletion, bounded by compaction).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the kernel skips it. Idempotent.

        Live-count accounting lives in the queue, so cancelling directly or
        via :meth:`repro.sim.kernel.Simulator.cancel` agree on ``len(queue)``.
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._on_event_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"


#: Compaction trigger floor: never compact while fewer dead entries than
#: this are filed, whatever the dead:live ratio (tiny queues churn).
COMPACT_MIN_DEAD = 256


class EventQueue:
    """Timer wheel + overflow heap with lazy-but-bounded cancellation."""

    __slots__ = (
        "_wheel",
        "_overflow",
        "_next_seq",
        "_live",
        "_dead",
        "_inv_g",
        "compact_min_dead",
        "compactions",
    )

    def __init__(
        self,
        granularity: float = DEFAULT_GRANULARITY,
        horizon: float = DEFAULT_HORIZON,
    ) -> None:
        self._wheel = TimerWheel(granularity, horizon)
        self._overflow: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0
        #: Cancelled entries still physically filed somewhere.
        self._dead = 0
        self._inv_g = self._wheel.inv_granularity
        self.compact_min_dead = COMPACT_MIN_DEAD
        self.compactions = 0

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> Event:
        """Insert a new event and return it (for possible cancellation).

        Wheel filing is done here by reaching into :class:`TimerWheel`
        slots directly: this runs once per scheduled event and
        method-call overhead would measurably dominate the real work.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        # ``__new__`` + direct slot stores: ~25% cheaper than calling
        # ``Event.__init__`` and this is the single hottest allocation
        # site in the simulator.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._queue = self
        entry = (time, seq, event)
        tick = int(time * self._inv_g)
        wheel = self._wheel
        if tick <= wheel._drain_tick:
            # Same-bucket insert while (or after) that bucket drains.
            # Appending beats bisecting when the entry already sorts last —
            # the common case, since seq grows monotonically.
            drain = wheel._drain
            if not drain or entry >= drain[-1]:
                drain.append(entry)
            else:
                insort(drain, entry, lo=wheel._drain_pos)
        elif tick - wheel._base_tick <= wheel.horizon_ticks:
            buckets = wheel._buckets
            bucket = buckets.get(tick)
            if bucket is None:
                buckets[tick] = [entry]
                heappush(wheel._tick_heap, tick)
            else:
                bucket.append(entry)
            wheel._bucket_entries += 1
        else:
            heappush(self._overflow, entry)
        self._live += 1
        return event

    # ------------------------------------------------------------------
    # Remove
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        return self.pop_next(None)

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event with ``time <= until`` in one sweep.

        Cancelled heads are discarded (and reclaimed) as they surface; an
        event beyond ``until`` stays queued and ``None`` is returned.
        This is the kernel's per-event hot path: the overwhelmingly
        common case — a live entry at the drain cursor that beats the
        overflow head — is handled inline; everything else (bucket
        exhausted, cancelled head, overflow wins) takes the slow path.
        """
        wheel = self._wheel
        drain = wheel._drain
        pos = wheel._drain_pos
        if pos < len(drain):
            entry = drain[pos]
            event = entry[2]
            if not event.cancelled:
                overflow = self._overflow
                if not overflow or entry < overflow[0]:
                    if until is not None and entry[0] > until:
                        return None
                    wheel._drain_pos = pos + 1
                    event._queue = None
                    self._live -= 1
                    return event
        return self._pop_slow(until)

    def _pop_slow(self, until: Optional[float]) -> Optional[Event]:
        """General pop: shed cancelled heads, pick min(wheel, overflow)."""
        wheel, overflow = self._heads()
        if wheel is None:
            if overflow is None:
                return None
            best, from_wheel = overflow, False
        elif overflow is None or wheel < overflow:
            best, from_wheel = wheel, True
        else:
            best, from_wheel = overflow, False
        time = best[0]
        if until is not None and time > until:
            return None
        if from_wheel:
            self._wheel.advance()
        else:
            heappop(self._overflow)
            self._wheel.note_tick(int(time * self._inv_g))
        event = best[2]
        event._queue = None
        self._live -= 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or ``None`` if empty.

        Cancelled heads encountered on the way are discarded *and*
        reclaimed (``_queue`` cleared, dead count adjusted) — symmetric
        with :meth:`pop_next`.
        """
        wheel, overflow = self._heads()
        if wheel is None:
            return overflow[0] if overflow is not None else None
        if overflow is None or wheel < overflow:
            return wheel[0]
        return overflow[0]

    def _heads(self):
        """Current (wheel, overflow) head entries, shedding cancelled ones."""
        wheel = self._wheel
        whead = wheel.peek()
        while whead is not None and whead[2].cancelled:
            wheel.advance()
            self._reclaim(whead[2])
            whead = wheel.peek()
        overflow = self._overflow
        ohead = None
        while overflow:
            candidate = overflow[0]
            if candidate[2].cancelled:
                heappop(overflow)
                self._reclaim(candidate[2])
            else:
                ohead = candidate
                break
        return whead, ohead

    def _reclaim(self, event: Event) -> None:
        """A cancelled entry left the structures: finish its bookkeeping."""
        self._dead -= 1
        event._queue = None

    # ------------------------------------------------------------------
    # Cancellation + compaction
    # ------------------------------------------------------------------
    def _on_event_cancelled(self) -> None:
        """Hook invoked by :meth:`Event.cancel` (exactly once per event)."""
        self._live -= 1
        self._dead += 1
        if self._dead >= self.compact_min_dead and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild every level in O(live), dropping cancelled entries."""
        removed = self._wheel.compact()
        overflow = self._overflow
        if overflow:
            live = []
            for entry in overflow:
                if entry[2].cancelled:
                    removed.append(entry[2])
                else:
                    live.append(entry)
            heapify(live)
            self._overflow = live
        for event in removed:
            event._queue = None
        self._dead -= len(removed)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dead_events(self) -> int:
        """Cancelled entries still filed (bounded by compaction)."""
        return self._dead

    def entry_count(self) -> int:
        """Entries physically filed across all levels (live + dead)."""
        return self._wheel.entry_count() + len(self._overflow)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class HeapEventQueue:
    """The classic single binary heap of :class:`Event` (pre-wheel).

    Kept as the reference implementation: the hypothesis property suite
    drives it and :class:`EventQueue` through identical workloads and
    asserts bit-for-bit equal dispatch order, and the kernel benchmark
    measures the wheel's speedup against it on the same churn.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> Event:
        event = Event(time, self._next_seq, callback, args)
        event._queue = self
        self._next_seq += 1
        heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        return self.pop_next(None)

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        heap = self._heap
        pop = heappop
        while heap:
            event = heap[0]
            if event.cancelled:
                pop(heap)
                self._dead -= 1
                event._queue = None
                continue
            if until is not None and event.time > until:
                return None
            pop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0].cancelled:
            event = heappop(heap)
            # Symmetric with pop_next: a discarded corpse is fully
            # detached so a later cancel() cannot double-count.
            self._dead -= 1
            event._queue = None
        if not heap:
            return None
        return heap[0].time

    def _on_event_cancelled(self) -> None:
        self._live -= 1
        self._dead += 1

    @property
    def dead_events(self) -> int:
        return self._dead

    def entry_count(self) -> int:
        return len(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
