"""Deterministic discrete-event simulation kernel.

Everything in the library runs on a single :class:`~repro.sim.kernel.Simulator`
clock. Events fire in (time, insertion-order) order, so runs are exactly
reproducible for a given scenario seed. Pending events live in a
two-level structure — a near-horizon timer wheel plus an overflow heap
(:mod:`repro.sim.wheel`, :mod:`repro.sim.events`) — that
:meth:`Simulator.run` drains one event at a time.
:class:`repro.sim.events.HeapEventQueue`, the single heap the wheel
replaced, is the reference the equivalence tests hold it to; import it
from there.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer
from repro.sim.wheel import TimerWheel

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "PeriodicTimer",
    "TimerWheel",
]
