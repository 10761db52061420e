"""Near-horizon timer wheel: the fast level of the event queue hierarchy.

The wheel buckets entries by quantized time tick (``tick = int(time /
granularity)``). Buckets are plain lists keyed in a dict, with a small
heap of *occupied ticks* — so an insert is an O(1) list append plus, for
a bucket's first entry, one integer heap push. When the simulation clock
reaches a bucket it is sorted once (a C-level sort over ``(time, seq,
event)`` tuples, so no Python ``__lt__`` calls) and then drained by
advancing an index — no per-event heap sifting at all.

Ordering guarantee: the wheel dispatches in exact global ``(time, seq)``
order. Ticks are monotone in time, ticks are drained smallest-first, and
within a bucket the tuple sort provides the total order — so the hybrid
queue in :mod:`repro.sim.events` is bit-for-bit interchangeable with the
classic binary heap it replaces.

Filing lives in the owner: :meth:`repro.sim.events.EventQueue.push`
writes the wheel's slots directly (once per scheduled event, where a
method call would dominate the work). It merges same-bucket arrivals
into the un-drained suffix, so schedules for the current instant made
while its bucket drains keep exact FIFO order, and keeps entries further
out than ``horizon`` seconds from the wheel's current position in the
overflow heap (the second level of the hierarchy).
"""

from __future__ import annotations

from heapq import heappop
from typing import List, Optional, Tuple

#: Bucket width in seconds. 1 ms comfortably separates pacing ticks,
#: link serialize completions and RTTs while keeping bucket sorts small.
DEFAULT_GRANULARITY = 1e-3

#: How far ahead of the wheel's position an entry may land (seconds).
#: Covers pacing/serialization/RTT/RTO timers; anything further (idle
#: probes, experiment-end sentinels) overflows to the heap level.
DEFAULT_HORIZON = 4.0

#: Queue entry: ``(time, seq, event)``. ``seq`` is unique, so tuple
#: comparison never falls through to the Event object.
Entry = Tuple[float, int, object]


class TimerWheel:
    """Dict-of-buckets calendar for near-horizon timers."""

    __slots__ = (
        "granularity",
        "inv_granularity",
        "horizon_ticks",
        "_buckets",
        "_tick_heap",
        "_drain",
        "_drain_pos",
        "_drain_tick",
        "_base_tick",
        "_bucket_entries",
    )

    def __init__(
        self,
        granularity: float = DEFAULT_GRANULARITY,
        horizon: float = DEFAULT_HORIZON,
    ) -> None:
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        if horizon <= granularity:
            raise ValueError(f"horizon must exceed the granularity, got {horizon}")
        self.granularity = granularity
        self.inv_granularity = 1.0 / granularity
        self.horizon_ticks = int(horizon / granularity)
        self._buckets: dict = {}
        self._tick_heap: List[int] = []
        #: Bucket currently being drained (sorted ascending) and the
        #: cursor into it. Entries behind the cursor are already popped.
        self._drain: List[Entry] = []
        self._drain_pos = 0
        self._drain_tick = -1
        #: The wheel's notion of "now", in ticks: advanced when a bucket
        #: loads, and nudged by the owner when the overflow heap pops an
        #: event (so a long all-overflow stretch cannot stall the horizon).
        self._base_tick = 0
        #: Entries filed in ``_buckets`` (the not-yet-loaded calendar).
        #: Together with ``len(_drain) - _drain_pos`` this makes
        #: :meth:`entry_count` O(1) instead of a walk over every bucket —
        #: the compaction-policy checks and benchmark probes that used to
        #: pay O(buckets) per call now pay two subtractions.
        self._bucket_entries = 0

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def peek(self) -> Optional[Entry]:
        """The earliest entry (possibly a cancelled one), or ``None``.

        Loads and sorts the next occupied bucket when the current one is
        exhausted. The caller pops the returned entry with
        :meth:`advance` (cancelled entries included — the owner does the
        skipping so it can keep its dead-entry accounting in one place).
        """
        pos = self._drain_pos
        drain = self._drain
        if pos < len(drain):
            return drain[pos]
        tick_heap = self._tick_heap
        if not tick_heap:
            if drain:
                # Release entry refs from the fully-drained bucket.
                self._drain = []
                self._drain_pos = 0
            return None
        tick = heappop(tick_heap)
        bucket = self._buckets.pop(tick)
        bucket.sort()
        self._bucket_entries -= len(bucket)
        self._drain = bucket
        self._drain_pos = 0
        self._drain_tick = tick
        if tick > self._base_tick:
            self._base_tick = tick
        return bucket[0]

    def advance(self) -> None:
        """Consume the entry last returned by :meth:`peek`."""
        self._drain_pos += 1

    def note_tick(self, tick: int) -> None:
        """Advance the wheel's position (called on overflow-heap pops)."""
        if tick > self._base_tick:
            self._base_tick = tick

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Entries physically held (live and cancelled alike). O(1)."""
        return self._bucket_entries + len(self._drain) - self._drain_pos

    def compact(self) -> list:
        """Drop cancelled entries everywhere; return their events.

        Un-drained buckets are filtered in place (insertion order is
        preserved — they are sorted at drain time anyway) and buckets
        left empty are removed along with their tick-heap slot. The
        drain bucket keeps its sort order and its cursor resets to 0.
        """
        removed = []
        drain = self._drain
        if drain:
            live = []
            for entry in drain[self._drain_pos:]:
                if entry[2].cancelled:
                    removed.append(entry[2])
                else:
                    live.append(entry)
            self._drain = live
            self._drain_pos = 0
        buckets = self._buckets
        if buckets:
            emptied = []
            for tick, bucket in buckets.items():
                live = []
                for entry in bucket:
                    if entry[2].cancelled:
                        removed.append(entry[2])
                    else:
                        live.append(entry)
                if live:
                    buckets[tick] = live
                else:
                    emptied.append(tick)
                self._bucket_entries -= len(bucket) - len(live)
            if emptied:
                for tick in emptied:
                    del buckets[tick]
                self._tick_heap = sorted(buckets)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimerWheel g={self.granularity} buckets={len(self._buckets)}"
            f" drain={len(self._drain) - self._drain_pos}>"
        )
