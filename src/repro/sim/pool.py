"""Free-list pooling for kernel :class:`~repro.sim.events.Event` objects.

A discrete-event run at fig1a scale allocates (and immediately discards)
hundreds of thousands of ``Event`` objects — one per link serialization
completion, delivery, pacing tick. Pooling turns that churn into a
free-list pop + six attribute stores.

Only *transient* events are ever recycled: an event scheduled through
``Simulator.schedule_transient``/``schedule_at_transient`` whose caller
promises to drop the returned reference immediately and never cancel it.
The kernel returns such events to the pool right after their callback
runs (or when they are discarded as cancelled), so a retained reference
would alias a *future* event — see ``docs/PERFORMANCE.md`` for the full
recycle contract. Regular ``schedule`` events are never pooled and may
be held or cancelled freely, exactly as before.
"""

from __future__ import annotations

from repro.sim.events import Event


class EventPool:
    """LIFO free list of :class:`Event` objects.

    The free list is bounded so a one-off scheduling burst cannot pin
    memory for the rest of the run. Acquisition is inlined in
    :meth:`repro.sim.events.EventQueue.push` (the hottest allocation
    site), which pops ``_free`` and bumps the counters directly.
    """

    __slots__ = ("_free", "max_free", "created", "reused", "released")

    def __init__(self, max_free: int = 4096) -> None:
        self._free: list = []
        self.max_free = max_free
        #: Events constructed because the free list was empty.
        self.created = 0
        #: Acquisitions served from the free list.
        self.reused = 0
        #: Events returned to the free list.
        self.released = 0

    def release(self, event: Event) -> None:
        """Return a dispatched (or discarded) transient event to the pool.

        Clears the callback/args references so pooled events never pin
        packets or component objects.
        """
        free = self._free
        if len(free) < self.max_free:
            event.callback = None
            event.args = ()
            event._queue = None
            free.append(event)
            self.released += 1

    def __len__(self) -> int:
        return len(self._free)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventPool free={len(self._free)} created={self.created}"
            f" reused={self.reused}>"
        )
