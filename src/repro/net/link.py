"""Unidirectional links: serializer + drop-tail buffer + propagation delay.

A link models the classic bottleneck pipeline: packets wait in a byte-bounded
FIFO, are serialized one at a time at the link's (possibly time-varying)
rate, may be lost by a stochastic process on departure, and arrive at the
receiver one propagation delay later. Delivery order is FIFO even when the
propagation delay shrinks mid-flight (as in trace-driven 5G links).

Serialization sweeps (:class:`LinkBatch`): on a fixed-rate FIFO link the
future is knowable — when a backlog builds, the finish time of every
queued packet is ``now + cumsum(tx_i)``. Instead of scheduling each
finish event from inside the previous one (one kernel push per packet,
forever), the link precomputes the whole window in one list loop and
files every finish event with a single bulk push. All *observable*
transitions keep their per-packet instants: busy-time accrues when a
packet begins service, the loss draw happens at departure (same RNG call
order), the delivery is scheduled at departure using the delay *then* in
force. A sweep is only a bet that the rate stays put and the queue stays
FIFO — anything that breaks the bet (fault rate scaling, a flush) bumps
the sweep epoch, so in-flight sweep events turn into no-ops and the
packet mid-serializer re-arms through the classic per-packet path at the
exact same finish instant. Trace-driven links (time-varying rate) and
priority queues (reorderable head) never sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, PriorityDropTailQueue
from repro.sim.kernel import Simulator

#: How long a link waits before re-checking a trace whose current rate is 0.
OUTAGE_POLL_INTERVAL = 1e-3

#: Queued packets (beyond the one entering service) needed before the
#: link bothers precomputing a sweep; short backlogs stay per-packet.
SWEEP_MIN_QUEUED = 3

#: Longest precomputed window. Bounds the bet the sweep places on the
#: rate staying constant, and the work discarded when it loses.
SWEEP_MAX = 64


class LinkBatch:
    """One precomputed serialization window on a fixed-rate FIFO link.

    Array-of-structs layout: parallel tuples of packets, per-packet
    transmission times, and absolute finish instants, plus the sweep
    epoch the precomputation was valid for and a cursor. Built by
    :meth:`Link._start_sweep`, consumed one entry per finish event by
    :meth:`Link._sweep_finish`.
    """

    __slots__ = ("packets", "tx_times", "finish_times", "epoch", "pos")

    def __init__(
        self,
        packets: List[Packet],
        tx_times: List[float],
        finish_times: List[float],
        epoch: int,
    ) -> None:
        self.packets = packets
        self.tx_times = tx_times
        self.finish_times = finish_times
        self.epoch = epoch
        self.pos = 0

    @staticmethod
    def compute(
        packets: List[Packet], rate: float, now: float
    ) -> Tuple[List[float], List[float]]:
        """Per-packet ``tx`` and cumulative finish times for a window.

        Arithmetic matches the per-packet path exactly: each tx is
        ``(size * 8) / rate`` and finish times accumulate sequentially,
        so the sums round identically to the event-by-event additions
        they replace.
        """
        tx_times: List[float] = []
        finish_times: List[float] = []
        acc = now
        for packet in packets:
            tx = packet.size_bytes * 8.0 / rate
            acc += tx
            tx_times.append(tx)
            finish_times.append(acc)
        return tx_times, finish_times


@dataclass
class LinkSpec:
    """Static description of one link direction.

    Either give a fixed ``rate_bps``/``delay``, or a ``trace`` providing
    ``rate_at(t)`` and ``delay_at(t)`` (see :mod:`repro.traces.model`); the
    trace takes precedence when present.
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
        #: (capacity collapse). Both compose with traces. ``rate_factor``
        #: is a property: changing it invalidates any precomputed sweep.
        self.delay_offset = 0.0
        self._rate_factor = 1.0
        #: Aggregate rate (bits/s) consumed by fluid background tenants
        #: (fleet mode); subtracted from the packet-level serialization
        #: rate. Set through :meth:`set_background_load`.
        self._background_bps = 0.0
        self._serving: Optional[Packet] = None
        self._last_delivery_time = -1.0
        #: Active serialization sweep (:class:`LinkBatch`) or ``None``.
        self._sweep: Optional[LinkBatch] = None
        #: Bumped whenever a precomputed sweep stops being trustworthy;
        #: pending sweep events carry the epoch they were computed under
        #: and no-op on mismatch.
        self._sweep_epoch = 0
        #: ``spec.trace``, resolved once: ``None`` means rate and delay are
        #: spec constants under the fault overlays, which the hot paths
        #: read inline instead of through ``current_rate``/``current_delay``.
        self._trace = spec.trace
        #: Sweeps require a knowable future: fixed rate and FIFO order.
        self._sweep_eligible = spec.trace is None and not spec.priority_queue
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
    @property
    def rate_factor(self) -> float:
        """Multiplicative fault scaling on the serialization rate."""
        return self._rate_factor

    @rate_factor.setter
    def rate_factor(self, value: float) -> None:
        if value != self._rate_factor:
            self._rate_factor = value
            # Precomputed finish times assumed the old rate; the packet
            # in service keeps its begin-time rate (per-packet semantics)
            # but everything not yet begun must be re-planned.
            self._invalidate_sweep()

    def capacity_bps(self) -> float:
        """Raw link capacity right now (bits/s), before background load.

        This is what the fluid background engine budgets against and what
        :class:`~repro.net.monitor.ChannelMonitor` records as the rate, so
        utilization = (packet bytes + background bytes) / capacity stays a
        true fraction of the physical link.
        """
        if self._trace is not None:
            return float(self._trace.rate_at(self.sim.now)) * self._rate_factor
        return self.spec.rate_bps * self._rate_factor

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

        Mirrors the ``rate_factor`` fault overlay: a change invalidates any
        precomputed serialization sweep (its finish times assumed the old
        available rate), while the packet already in service keeps its
        begin-time rate. Idempotent when the load is unchanged, so a coarse
        tick that re-applies a steady rate costs one comparison.
        """
        if bps < 0.0:
            raise NetworkError(f"background load must be non-negative, got {bps}")
        if bps != self._background_bps:
            self._background_bps = bps
            self._invalidate_sweep()

    def current_delay(self) -> float:
        """One-way propagation delay right now (seconds)."""
        if self._trace is not None:
            return float(self._trace.delay_at(self.sim.now)) + self.delay_offset
        return self.spec.delay + self.delay_offset

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
            self._start_next()
        return True

    def flush(self) -> int:
        """Discard every queued packet (handover blackout semantics).

        Models a base-station handover dropping the buffered downlink/uplink
        queue. The packet currently serializing and packets already
        propagating are "in the air" and unaffected. Returns the number of
        packets discarded.
        """
        # Queued sweep members are about to vanish; the packet in the
        # serializer is in the air and keeps its precomputed finish.
        self._invalidate_sweep()
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
    def _start_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._serving = None
            return
        self._serving = packet
        if self._sweep_eligible and len(self.queue) >= SWEEP_MIN_QUEUED:
            rate = self.current_rate()
            if rate > 0:
                self._start_sweep(packet, rate)
                return
        self._begin_serialization(packet)

    def _begin_serialization(self, packet: Packet) -> None:
        if self._trace is None:
            rate = self.spec.rate_bps * self._rate_factor - self._background_bps
        else:
            rate = self.current_rate()
        if rate <= 0:
            # Trace outage: re-check shortly; the packet stays in service.
            self.sim.schedule_transient(OUTAGE_POLL_INTERVAL, self._begin_serialization, packet)
            return
        tx_time = packet.size_bytes * 8 / rate
        self.stats.busy_time += tx_time
        # Serialization/delivery events are fire-and-forget: nobody holds
        # or cancels them, so they ride the event pool (transient).
        self.sim.schedule_transient(tx_time, self._finish_serialization, packet)

    def _start_sweep(self, head: Packet, rate: float) -> None:
        """Precompute the backlog's finish times; bulk-file the events.

        ``head`` has just been dequeued into the serializer; the rest of
        the window stays physically queued (capacity accounting, flush
        semantics and ``pending_packets`` are untouched) and is dequeued
        packet-by-packet as each finish event begins the next service.
        """
        window = [head]
        window.extend(self.queue.peek_window(SWEEP_MAX - 1))
        tx_times, finish_times = LinkBatch.compute(window, rate, self.sim.now)
        epoch = self._sweep_epoch
        self._sweep = LinkBatch(window, tx_times, finish_times, epoch)
        self.stats.busy_time += tx_times[0]
        finish = self._sweep_finish
        args = (epoch,)
        self.sim.schedule_transient_bulk(
            [(t, finish, args) for t in finish_times]
        )

    def _sweep_finish(self, epoch: int) -> None:
        sweep = self._sweep
        if sweep is None or epoch != sweep.epoch:
            return  # the sweep's bet was lost after this event was filed
        pos = sweep.pos
        packet = sweep.packets[pos]
        self._transmit(packet)
        pos += 1
        if pos < len(sweep.packets):
            nxt = sweep.packets[pos]
            dequeued = self.queue.dequeue()
            if dequeued is not nxt:  # pragma: no cover - sweep invariant
                raise NetworkError(
                    f"link {self.name!r} sweep desync: expected "
                    f"{nxt!r} at the queue head, got {dequeued!r}"
                )
            self._serving = nxt
            sweep.pos = pos
            self.stats.busy_time += sweep.tx_times[pos]
        else:
            self._sweep = None
            self._start_next()

    def _invalidate_sweep(self) -> None:
        """The precomputed future is wrong; fall back to per-packet.

        Pending sweep events are orphaned by the epoch bump. The packet
        currently in the serializer already began at the old rate, so —
        exactly like the per-packet path, which fixes ``tx_time`` at
        begin — it keeps its precomputed finish instant, re-armed as a
        classic finish event.
        """
        sweep = self._sweep
        if sweep is None:
            return
        self._sweep = None
        self._sweep_epoch += 1
        self.sim.schedule_at_transient(
            sweep.finish_times[sweep.pos], self._finish_serialization, self._serving
        )

    def _finish_serialization(self, packet: Packet) -> None:
        self._transmit(packet)
        self._start_next()

    def _transmit(self, packet: Packet) -> None:
        """Departure instant: obs taps, loss draw, delivery scheduling."""
        obs = self.obs
        if obs is not None:
            obs.on_transmit(packet, self.sim.now)
        if self.on_depart is not None:
            self.on_depart(packet, self)
        if self.loss.should_drop(self.rng, self.sim.now):
            self.stats.lost += 1
            if obs is not None:
                obs.on_loss(packet, self.sim.now)
        else:
            if self._trace is None:
                arrival = self.sim.now + (self.spec.delay + self.delay_offset)
            else:
                arrival = self.sim.now + self.current_delay()
            # FIFO delivery even if the propagation delay just dropped.
            if arrival <= self._last_delivery_time:
                arrival = self._last_delivery_time + 1e-9
            self._last_delivery_time = arrival
            self.sim.schedule_at_transient(arrival, self._deliver, packet)

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
