"""Unidirectional links: serializer + drop-tail buffer + propagation delay.

A link models the classic bottleneck pipeline: packets wait in a byte-bounded
FIFO, are serialized one at a time at the link's (possibly time-varying)
rate, may be lost by a stochastic process on departure, and arrive at the
receiver one propagation delay later. Delivery order is FIFO even when the
propagation delay shrinks mid-flight (as in trace-driven 5G links).

One serializer: every packet takes ``send -> _begin_serialization ->
_finish_serialization``, one kernel event per departure, handle-free
(:meth:`~repro.sim.kernel.Simulator.post_at`: a link cancels none). The departure
callback transmits the packet and begins serving the next one; ``send``
begins service itself only on an idle link (``_serving is None``, which
implies an empty queue).
``tx_time`` is fixed when a packet begins service, so a rate change
(fault scaling, background load, a trace step) applies from the next
packet on; the loss draw happens at departure and the delivery is
scheduled at departure with the delay then in force.

A trace-driven link reads its trace once per sample step, not once per
packet: it keeps the step it last read — the trace-time window
``[start, end)`` and that sample's rate and delay — and consults the
trace again only when the clock, folded into one loop of the trace,
leaves the window. Between steps it runs the fixed-rate link's
arithmetic on the cached sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import fmod
from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, PriorityDropTailQueue
from repro.sim.kernel import Simulator

#: How long a link waits before re-checking a trace whose current rate is 0.
OUTAGE_POLL_INTERVAL = 1e-3

@dataclass
class LinkSpec:
    """Static description of one link direction.

    Either give a fixed ``rate_bps``/``delay``, or a ``trace`` (a
    :class:`~repro.traces.model.NetworkTrace`); the trace takes precedence
    when present.
    """

    rate_bps: float = 0.0
    delay: float = 0.0
    queue_bytes: int = 256_000
    loss: Optional[LossModel] = None
    trace: Optional[object] = None
    priority_queue: bool = False

    def validate(self) -> None:
        if self.trace is None and self.rate_bps <= 0:
            raise NetworkError(f"link needs a positive rate or a trace, got {self.rate_bps}")
        if self.delay < 0:
            raise NetworkError(f"delay must be non-negative, got {self.delay}")
        if self.queue_bytes <= 0:
            raise NetworkError(f"queue_bytes must be positive, got {self.queue_bytes}")


@dataclass
class LinkStats:
    """Lifetime counters for one link."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    overflow_drops: int = 0
    #: Packets discarded from the queue by a fault flush (handover blackout).
    flushed: int = 0
    bytes_delivered: int = 0
    busy_time: float = 0.0
    #: Bytes the fluid background engine charged to this link (fleet
    #: mode); not part of ``bytes_delivered``, which stays packet-level.
    background_bytes: int = 0


class Link:
    """One direction of a channel."""

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        name: str = "link",
        rng: Optional[random.Random] = None,
    ) -> None:
        spec.validate()
        self.sim = sim
        self.spec = spec
        self.name = name
        self.rng = rng if rng is not None else random.Random(0)
        self.loss: LossModel = spec.loss if spec.loss is not None else NoLoss()
        queue_cls = PriorityDropTailQueue if spec.priority_queue else DropTailQueue
        self.queue = queue_cls(spec.queue_bytes)
        self.stats = LinkStats()
        self.receiver: Optional[Callable[[Packet], None]] = None
        self.up = True
        #: Fault-injection overlays (see :mod:`repro.faults`): additive
        #: propagation delay (RTT spike) and multiplicative rate scaling
        #: (capacity collapse). Both compose with traces; the packet in
        #: service keeps the rate it began with.
        self.delay_offset = 0.0
        self.rate_factor = 1.0
        #: Aggregate rate (bits/s) consumed by fluid background tenants
        #: (fleet mode); subtracted from the packet-level serialization
        #: rate. Set through :meth:`set_background_load`.
        self._background_bps = 0.0
        self._serving: Optional[Packet] = None
        self._last_delivery_time = -1.0
        #: ``spec.trace``, resolved once: ``None`` means rate and delay are
        #: spec constants under the fault overlays.
        self._trace = spec.trace
        #: Rate (bits/s) and one-way delay before the fault overlays and
        #: background load: the spec constants on a fixed link; on a traced
        #: one the sample in force over trace time ``[_trace_lo,
        #: _trace_hi)``, re-read by :meth:`_seek_trace` only once the clock
        #: leaves that window. The hot paths read these inline.
        self._rate = spec.rate_bps
        self._delay = spec.delay
        if self._trace is not None:
            self._trace_period = self._trace.duration
            self._trace_lo = self._trace_hi = 0.0  # empty: the first read seeks
        #: Optional instrumentation hook called as ``fn(packet, link)``
        #: when a packet completes serialization (before loss is applied).
        self.on_depart: Optional[Callable[[Packet, "Link"], None]] = None
        #: Packet-lifecycle tracing adapter (:class:`repro.obs.LinkObs`);
        #: stays ``None`` unless tracing is enabled, so the off path is a
        #: single identity check per event.
        self.obs = None

    # ------------------------------------------------------------------
    # Time-varying characteristics
    # ------------------------------------------------------------------
    def capacity_bps(self) -> float:
        """Raw link capacity right now (bits/s), before background load.

        This is what the fluid background engine budgets against and what
        :class:`~repro.net.monitor.ChannelMonitor` records as the rate, so
        utilization = (packet bytes + background bytes) / capacity stays a
        true fraction of the physical link.
        """
        if self._trace is not None:
            self._follow_trace()
        return self._rate * self.rate_factor

    def current_rate(self) -> float:
        """Serialization rate available to packets right now (bits/s).

        0 during a trace outage; reduced by any fluid background load
        (fleet mode), which models background tenants occupying their
        share of the serializer.
        """
        rate = self.capacity_bps()
        if self._background_bps > 0.0:
            rate -= self._background_bps
            if rate < 0.0:
                return 0.0
        return rate

    @property
    def background_bps(self) -> float:
        """Aggregate fluid background load currently applied (bits/s)."""
        return self._background_bps

    def set_background_load(self, bps: float) -> None:
        """Install the fluid tenants' aggregate rate on this direction.

        Mirrors the ``rate_factor`` fault overlay: the packet already in
        service keeps its begin-time rate, every later one serializes at
        what the new load leaves.
        """
        if bps < 0.0:
            raise NetworkError(f"background load must be non-negative, got {bps}")
        self._background_bps = bps

    def current_delay(self) -> float:
        """One-way propagation delay right now (seconds)."""
        if self._trace is not None:
            self._follow_trace()
        return self._delay + self.delay_offset

    def _follow_trace(self) -> None:
        """Bring ``_rate``/``_delay`` to the trace sample in force now.

        The window test is ``bisect_right(times, now % duration) - 1``
        without the search; ``fmod`` equals ``%`` for the clock's
        non-negative values. A negative clock always seeks, so the trace
        raises for it as it always did: ``fmod`` of a negative multiple of
        the period is ``-0.0``, which the first window would take in.
        """
        now = self.sim.now
        t = fmod(now, self._trace_period)
        if t < self._trace_lo or t >= self._trace_hi or now < 0.0:
            self._seek_trace(now)

    def _seek_trace(self, now: float) -> None:
        self._trace_lo, self._trace_hi, self._rate, self._delay = self._trace.step_at(now)

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting or in service (the sender-visible backlog)."""
        serving = self._serving.size_bytes if self._serving is not None else 0
        return self.queue.backlog_bytes + serving

    @property
    def pending_packets(self) -> int:
        """Packets queued or in service (not yet transmitted).

        The invariant monitor balances this against its enqueue/transmit
        counters; packets already propagating are *not* included (they have
        transmitted and are tracked by delivery/loss events).
        """
        return len(self.queue) + (1 if self._serving is not None else 0)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Set the delivery callback at the far end."""
        self.receiver = receiver

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if tail-dropped."""
        obs = self.obs
        if not self.up:
            self.stats.overflow_drops += 1
            if obs is not None:
                obs.on_overflow(packet, self.sim.now, reason="down")
            return False
        self.stats.sent += 1
        if obs is not None:
            obs.on_offered()
        if not self.queue.try_enqueue(packet):
            self.stats.overflow_drops += 1
            if obs is not None:
                obs.on_overflow(packet, self.sim.now)
            return False
        if obs is not None:
            obs.on_enqueue(packet, self.sim.now)
        if self._serving is None:
            # Idle means the queue was empty: the head is this packet.
            packet = self.queue.dequeue()
            self._serving = packet
            self._begin_serialization(packet)
        return True

    def flush(self) -> int:
        """Discard every queued packet (handover blackout semantics).

        Models a base-station handover dropping the buffered downlink/uplink
        queue. The packet currently serializing and packets already
        propagating are "in the air" and unaffected. Returns the number of
        packets discarded.
        """
        flushed = 0
        while True:
            packet = self.queue.dequeue()
            if packet is None:
                break
            flushed += 1
            if self.obs is not None:
                self.obs.on_overflow(packet, self.sim.now, reason="flush")
        self.stats.flushed += flushed
        return flushed

    # ------------------------------------------------------------------
    # Internal pipeline
    # ------------------------------------------------------------------
    def _begin_serialization(self, packet: Packet) -> None:
        sim = self.sim
        if self._trace is not None:
            now = sim.now
            t = fmod(now, self._trace_period)
            if t < self._trace_lo or t >= self._trace_hi:
                self._seek_trace(now)
        # ``current_rate`` without the clamp at 0: both sides of it poll.
        rate = self._rate * self.rate_factor - self._background_bps
        if rate <= 0:
            # Trace outage: re-check shortly; the packet stays in service.
            sim.post_at(sim.now + OUTAGE_POLL_INTERVAL, self._begin_serialization, packet)
            return
        tx_time = packet.size_bytes * 8 / rate
        self.stats.busy_time += tx_time
        sim.post_at(sim.now + tx_time, self._finish_serialization, packet)

    def _finish_serialization(self, packet: Packet) -> None:
        """Departure instant: obs taps, loss draw, delivery scheduling; then
        the next queued packet, if any, begins service."""
        obs = self.obs
        now = self.sim.now
        if obs is not None:
            obs.on_transmit(packet, now)
        if self.on_depart is not None:
            self.on_depart(packet, self)
        if self.loss.should_drop(self.rng, now):
            self.stats.lost += 1
            if obs is not None:
                obs.on_loss(packet, now)
        else:
            if self._trace is not None:
                t = fmod(now, self._trace_period)
                if t < self._trace_lo or t >= self._trace_hi:
                    self._seek_trace(now)
            arrival = now + (self._delay + self.delay_offset)
            # FIFO delivery even if the propagation delay just dropped.
            if arrival <= self._last_delivery_time:
                arrival = self._last_delivery_time + 1e-9
            self._last_delivery_time = arrival
            self.sim.post_at(arrival, self._deliver, packet)
        packet = self.queue.dequeue()
        self._serving = packet
        if packet is not None:
            self._begin_serialization(packet)

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size_bytes
        packet.delivered_at = self.sim.now
        if self.obs is not None:
            self.obs.on_deliver(packet, self.sim.now)
        if self.receiver is None:
            raise NetworkError(f"link {self.name!r} delivered a packet but has no receiver")
        self.receiver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} rate={self.current_rate():.0f}bps backlog={self.backlog_bytes}B>"
