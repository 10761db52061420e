"""Scheduled events.

The pending set lives in :class:`~repro.sim.kernel.Simulator`: one binary
heap of ``(time, seq, event)`` tuples and handle-free ``(time, seq,
callback, args)`` ones. ``seq`` is a monotonically increasing insertion
counter, which gives FIFO ordering among events scheduled for the same
instant — a requirement for deterministic replay — and, being unique,
keeps every heap comparison inside the C tuple compare: the
:class:`Event` itself is never compared.

Cancellation is lazy — a cancelled event stays filed until it reaches the
top of the heap — but bounded: when dead entries outnumber live ones the
simulator compacts the heap in O(live). A pacing-heavy transport that
arms and cancels a timer per packet does not retain each corpse until its
original deadline.
"""

from __future__ import annotations

from typing import Any, Callable

#: Compaction trigger floor: never compact while fewer dead entries than
#: this are filed, whatever the dead:live ratio (tiny queues churn).
COMPACT_MIN_DEAD = 256


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`
    rather than directly. Holding a reference allows cancellation via
    :meth:`cancel`; a cancelled event stays filed but is skipped when it
    surfaces (lazy deletion, bounded by compaction).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

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
        #: The simulator whose heap files this event; ``None`` once it was
        #: dispatched, so a late cancel changes no count.
        self._sim = None

    def cancel(self) -> None:
        """Mark the event so the kernel skips it. Idempotent.

        The dead-entry count lives in the simulator, so cancelling directly
        or via :meth:`repro.sim.kernel.Simulator.cancel` agree on
        ``pending_events``; the compaction check is inlined here (one call
        per cancel instead of two).
        """
        if not self.cancelled:
            self.cancelled = True
            # The kernel skips a cancelled entry before reading these;
            # dropping them frees the callback's owner while it is filed.
            self.callback = self.args = None
            sim = self._sim
            if sim is not None:
                dead = sim._dead + 1
                sim._dead = dead
                if dead >= COMPACT_MIN_DEAD and dead > len(sim._heap) - dead:
                    sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"

