"""Deterministic discrete-event simulation kernel.

Everything in the library runs on a single :class:`~repro.sim.kernel.Simulator`
clock. Events fire in (time, insertion-order) order, so runs are exactly
reproducible for a given scenario seed. Pending events live in a
two-level structure — a near-horizon timer wheel plus an overflow heap
(:mod:`repro.sim.wheel`, :mod:`repro.sim.events`) — with transient
per-packet events recycled through :mod:`repro.sim.pool`.
:class:`HeapEventQueue` and ``Simulator.run_per_event`` are the reference
implementations the equivalence tests hold the wheel and the batch loop to.
"""

from repro.sim.events import Event, EventQueue, HeapEventQueue
from repro.sim.kernel import Simulator
from repro.sim.pool import EventPool
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer
from repro.sim.wheel import TimerWheel

__all__ = [
    "Event",
    "EventPool",
    "EventQueue",
    "HeapEventQueue",
    "Simulator",
    "RandomStreams",
    "PeriodicTimer",
    "TimerWheel",
]
