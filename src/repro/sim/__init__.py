"""Deterministic discrete-event simulation kernel.

Everything in the library runs on a single :class:`~repro.sim.kernel.Simulator`
clock. Events fire in (time, insertion-order) order, so runs are exactly
reproducible for a given scenario seed. Pending events live in one binary
heap of ``(time, seq, event)`` tuples that :meth:`Simulator.run` drains
inline.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "PeriodicTimer",
]
