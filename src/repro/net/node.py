"""Hosts: the multi-channel device that flows and steering share.

Each endpoint owns a :class:`Device`. Flows (transport connections, datagram
sockets) register a per-flow delivery handler and call :meth:`Device.send`;
the device consults its steering policy for every packet — this shared
vantage point is what lets one policy arbitrate URLLC capacity across
competing flows (the Table 1 experiment).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, SteeringError
from repro.net.channel import Channel
from repro.net.link import Link
from repro.net.packet import Packet, PacketType
from repro.net.resequencer import Resequencer
from repro.sim.kernel import Simulator

#: Per-flow window of remembered packet ids for redundancy de-duplication.
DEDUP_WINDOW = 4096


class ChannelView:
    """A host-side, read-only view of one channel's state.

    Steering policies receive a list of these; everything they may legally
    observe (DChannel's deployment model: local queues plus advertised
    channel characteristics) is exposed here.

    Steering consults views on every packet, so the hot accessors are
    flattened: the outbound link is resolved once at construction, the
    immutable spec fields (``index``/``name``/``cost_per_byte``/
    ``reliable``) are plain attributes, ``up`` is a slot the channel writes
    before its transition hooks run, and rate/delay are the link's cached
    sample (a traced link first follows its trace) under the overlays.
    """

    __slots__ = (
        "_channel",
        "_out",
        "up",
        "index",
        "name",
        "cost_per_byte",
        "reliable",
    )

    def __init__(self, channel: Channel, end: int) -> None:
        self._channel = channel
        self._out = channel.out_link(end)
        channel._views.append(self)
        self.up = channel.up
        self.index = channel.index
        self.name = channel.spec.name
        self.cost_per_byte = channel.spec.cost_per_byte
        self.reliable = channel.spec.reliable

    @property
    def rate_bps(self) -> float:
        """Current outbound serialization rate (after background load)."""
        out = self._out
        if out._trace is not None:
            out._follow_trace()
        rate = out._rate * out.rate_factor - out._background_bps
        return rate if rate > 0.0 else 0.0

    @property
    def base_delay(self) -> float:
        """Current outbound propagation delay."""
        out = self._out
        if out._trace is not None:
            out._follow_trace()
        return out._delay + out.delay_offset

    @property
    def base_rtt(self) -> float:
        return self._channel.base_rtt()

    @property
    def capacity_bps(self) -> float:
        """Raw outbound link capacity (before background subtraction)."""
        return self._out.capacity_bps()

    @property
    def loss_rate(self) -> float:
        """Stationary outbound loss probability."""
        return self._out.loss.long_run_rate

    def queueing_delay(self, extra_bytes: int = 0) -> float:
        """Estimated wait before ``extra_bytes`` would finish serializing."""
        out = self._out
        if out._trace is not None:
            out._follow_trace()
        rate = out._rate * out.rate_factor - out._background_bps
        if rate <= 0:
            return float("inf")
        serving = out._serving
        backlog = out.queue.backlog_bytes + (
            serving.size_bytes if serving is not None else 0
        )
        return (backlog + extra_bytes) * 8 / rate

    def estimated_delivery_delay(self, packet_bytes: int) -> float:
        """One-way delay estimate for a packet offered right now.

        This is the quantity DChannel's reward heuristic compares across
        channels: local queueing + serialization + propagation. One fused
        read of the link (rate, delay, backlog) per estimate. A fixed link
        divides by the rate *before* background load, a traced one by the
        rate after it: a known quirk, kept so that no result moves.
        """
        out = self._out
        if out._trace is not None:
            out._follow_trace()
            rate = out._rate * out.rate_factor - out._background_bps
        else:
            rate = out._rate * out.rate_factor
        delay = out._delay + out.delay_offset
        if rate <= 0:
            return float("inf")
        serving = out._serving
        backlog = out.queue.backlog_bytes + (
            serving.size_bytes if serving is not None else 0
        )
        return (backlog + packet_bytes) * 8 / rate + delay

    def delay_rate(self) -> Tuple[float, float]:
        """``(base_delay, rate_bps)`` from one look at the link."""
        out = self._out
        if out._trace is not None:
            out._follow_trace()
        rate = out._rate * out.rate_factor - out._background_bps
        return out._delay + out.delay_offset, rate if rate > 0.0 else 0.0

    def delay_estimate(self, packet_bytes: int) -> Tuple[float, float]:
        """``(base_delay, estimated_delivery_delay(packet_bytes))``, one look."""
        out = self._out
        if out._trace is not None:
            out._follow_trace()
            rate = out._rate * out.rate_factor - out._background_bps
        else:
            rate = out._rate * out.rate_factor
        delay = out._delay + out.delay_offset
        if rate <= 0:
            return delay, float("inf")
        serving = out._serving
        bytes_ahead = out.queue.backlog_bytes + (serving.size_bytes if serving is not None else 0)
        return delay, (bytes_ahead + packet_bytes) * 8 / rate + delay

    def steering_read(self, packet_bytes: int) -> Tuple[float, float, float, float]:
        """``(base_delay, rate_bps, risk-adjusted delivery delay, queueing
        delay)`` for a packet offered right now, from one look at the link.

        What a per-packet verdict compares across channels. Each element is
        bit-identical to the accessor it fuses (``risk_adjusted_delay`` of
        :mod:`repro.steering.base` for the third) — including a fixed
        link's delivery estimate dividing by the rate *before* background
        load while ``rate_bps``/``queueing_delay`` subtract it.
        """
        out = self._out
        if out._trace is not None:
            out._follow_trace()
            gross = rate = out._rate * out.rate_factor - out._background_bps
        else:
            gross = out._rate * out.rate_factor
            rate = gross - out._background_bps
        delay = out._delay + out.delay_offset
        serving = out._serving
        bits = (
            out.queue.backlog_bytes
            + (serving.size_bytes if serving is not None else 0)
            + packet_bytes
        ) * 8
        loss = out.loss.long_run_rate
        if gross <= 0 or loss >= 1.0:
            risk = float("inf")
        else:
            risk = (bits / gross + delay) / (1.0 - loss)
        if rate <= 0:
            return delay, 0.0, risk, float("inf")
        return delay, rate, risk, bits / rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChannelView {self.index}:{self.name} up={self.up}>"


@dataclass
class DeviceStats:
    """Lifetime counters for one device."""

    packets_sent: int = 0
    packets_received: int = 0
    duplicates_discarded: int = 0
    send_drops: int = 0
    #: Sends attempted while *no* channel was up (total blackout). Dropped
    #: at the device instead of raising: reliable transports retransmit
    #: after recovery, unreliable ones degrade (a lost frame is a lost
    #: frame).
    blackout_drops: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class Device:
    """One host's attachment to a set of channels."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "host",
        resequence: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.channels: List[Channel] = []
        self.views: List[ChannelView] = []
        self.end: int = 0
        self.steerer: Optional[object] = None
        self.stats = DeviceStats()
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self._default_handler: Optional[Callable[[Packet], None]] = None
        #: Outbound link per channel and how many channels are up, resolved
        #: at :meth:`attach` / on transitions rather than per packet.
        self._out_links: List[Link] = []
        self._up_count = 0
        #: flow → (seen packet ids, the same ids in arrival order).
        self._dedup: Dict[int, Tuple[set, deque]] = {}
        #: Shim resequencing (see :mod:`repro.net.resequencer`): restores
        #: per-flow order for reliable DATA packets split across channels.
        self.resequencer: Optional[Resequencer] = (
            Resequencer(sim, self._dispatch) if resequence else None
        )
        #: flow → [next shim_seq, channels its data has used so far].
        self._shim_flows: Dict[int, list] = {}
        #: Instrumentation hooks: fn(packet, channel_index).
        self.on_send_hooks: List[Callable[[Packet, int], None]] = []
        self.on_receive_hooks: List[Callable[[Packet], None]] = []
        #: Channel up/down observers: fn(channel, up, now). Transports
        #: subscribe to react to recovery (fast RTO re-probe, buffered
        #: datagram flush) without polling.
        self.on_channel_transition_hooks: List[Callable] = []
        #: Tracing adapter (:class:`repro.obs.DeviceObs`); ``None`` unless
        #: tracing is enabled.
        self.obs = None
        #: The :class:`repro.obs.Observability` context this device is wired
        #: into (set by ``wire_network`` even with tracing off) — transports
        #: look here at construction time to attach their probes.
        self.obs_ctx = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, channels: Sequence[Channel], end: int) -> None:
        """Connect this device to ``channels`` as side ``end`` (0=A, 1=B)."""
        self.channels = list(channels)
        self.end = end
        self.views = [ChannelView(ch, end) for ch in self.channels]
        self._out_links = [ch.out_link(end) for ch in self.channels]
        self._up_count = sum(1 for ch in self.channels if ch.up)
        for channel in self.channels:
            channel.in_link(end).connect(self._on_link_deliver)
            channel.on_transition.append(self._on_channel_transition)

    def set_steerer(self, steerer: object) -> None:
        """Install the steering policy (anything with ``choose``)."""
        self.steerer = steerer

    def register_flow(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        """Route delivered packets of ``flow_id`` to ``handler``."""
        if flow_id in self._handlers:
            raise NetworkError(f"flow {flow_id} already registered on {self.name}")
        self._handlers[flow_id] = handler

    def unregister_flow(self, flow_id: int) -> None:
        """Remove a flow's handler; late packets go to the default handler."""
        self._handlers.pop(flow_id, None)

    def set_default_handler(self, handler: Callable[[Packet], None]) -> None:
        """Handler for packets whose flow is not registered."""
        self._default_handler = handler

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def any_channel_up(self) -> bool:
        """False during a total blackout (every channel down)."""
        return self._up_count > 0

    def send(self, packet: Packet) -> None:
        """Steer and transmit one packet (possibly onto several channels)."""
        channels = self.channels
        if not channels:
            raise NetworkError(f"device {self.name} has no channels attached")
        now = self.sim.now
        obs = self.obs
        if not self._up_count:
            # Total blackout: no policy can route. Degrade gracefully —
            # count the drop and let the sender's recovery machinery
            # (RTO, datagram loss tolerance) handle it, instead of letting
            # a steering policy raise mid-run.
            self.stats.blackout_drops += 1
            if obs is not None:
                obs.on_blackout_drop(packet, now)
            return
        hint = packet.channel_hint
        if hint is not None:
            # A channel-aware transport (multipath subflow) owns placement.
            choices: Sequence[int] = (hint,)
        elif self.steerer is None:
            choices = (0,)
        else:
            choices = self.steerer.choose(packet, self.views, now)
        if not choices:
            raise SteeringError(
                f"steering policy returned no channel for packet {packet.packet_id}"
            )
        if obs is not None:
            obs.on_steer(packet, choices, now)
        packet.sent_at = now
        # Channel-aware transports (channel_hint set) do their own
        # reassembly; the shim resequencer only protects legacy
        # single-sequence transports from cross-channel reordering.
        if (
            self.resequencer is not None
            and packet.ptype == PacketType.DATA
            and hint is None
        ):
            shim = self._shim_flows.get(packet.flow_id)
            if shim is None:
                shim = self._shim_flows[packet.flow_id] = [0, set()]
            seq, used = shim
            packet.shim_seq = seq
            shim[0] = seq + 1
            used.update(choices)
            packet.shim_channel_count = len(used)
        stats = self.stats
        for copy_index, channel_index in enumerate(choices):
            if not 0 <= channel_index < len(channels):
                raise SteeringError(
                    f"steering chose channel {channel_index}, device has {len(channels)}"
                )
            outgoing = packet if copy_index == 0 else packet.copy_for_redundancy(copy_index)
            outgoing.channel_index = channel_index
            channels[channel_index].cost_bytes += outgoing.size_bytes
            if self._out_links[channel_index].send(outgoing):
                stats.packets_sent += 1
                stats.bytes_sent += outgoing.size_bytes
                for hook in self.on_send_hooks:
                    hook(outgoing, channel_index)
            else:
                stats.send_drops += 1

    def _on_link_deliver(self, packet: Packet) -> None:
        stats = self.stats
        window = self._dedup.get(packet.flow_id)
        if window is None:
            window = self._dedup[packet.flow_id] = (set(), deque())
        seen, order = window
        packet_id = packet.packet_id
        if packet_id in seen:
            stats.duplicates_discarded += 1
            return
        seen.add(packet_id)
        order.append(packet_id)
        if len(order) > DEDUP_WINDOW:
            seen.discard(order.popleft())
        stats.packets_received += 1
        stats.bytes_received += packet.size_bytes
        if self.resequencer is not None and packet.ptype == PacketType.DATA:
            self.resequencer.push(packet)
        else:
            self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        if self.obs is not None:
            self.obs.on_dispatch(packet, self.sim.now)
        for hook in self.on_receive_hooks:
            hook(packet)
        handler = self._handlers.get(packet.flow_id, self._default_handler)
        if handler is not None:
            handler(packet)

    def _on_channel_transition(self, channel: Channel, up: bool, now: float) -> None:
        # Recounted, not incremented: transitions are rare and a recount
        # cannot drift; done before the hooks, which may send.
        self._up_count = sum(1 for ch in self.channels if ch.up)
        for hook in list(self.on_channel_transition_hooks):
            hook(channel, up, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.name} end={self.end} channels={len(self.channels)}>"
