"""Unreliable datagram transport with message reassembly.

Real-time video (§3.3) sends each SVC layer as a *message* of UDP packets;
there is no retransmission — a late frame is a lost frame. The socket
packetizes a message into MTU-sized datagrams tagged with the cross-layer
fields steering policies need (message id, priority, last-packet flag), and
the receiving socket reassembles and reports completed messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.sim.kernel import Simulator
from repro.units import DEFAULT_HEADER_BYTES, DEFAULT_MSS


@dataclass(slots=True)
class DatagramMessage:
    """Receiver-side reassembly state for one message."""

    message_id: int
    priority: Optional[int]
    first_packet_at: float
    bytes_received: int = 0
    total_bytes: Optional[int] = None
    completed_at: Optional[float] = None
    #: Send timestamp of the earliest packet seen (sender clock == sim clock).
    sent_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.total_bytes is not None and self.bytes_received >= self.total_bytes


#: Blackout degradation modes for :class:`DatagramSocket`.
BLACKOUT_MODES = ("drop", "buffer")


@dataclass
class DatagramStats:
    messages_sent: int = 0
    messages_completed: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    #: Messages discarded at send time because every channel was down
    #: (``blackout="drop"``: a stale frame is worthless once service resumes).
    messages_blackout_dropped: int = 0
    #: Messages held during a blackout and sent on recovery
    #: (``blackout="buffer"``).
    messages_blackout_buffered: int = 0


class DatagramSocket:
    """One endpoint of an unreliable, message-oriented flow.

    ``blackout`` selects the graceful-degradation mode when *every* channel
    is down at send time: ``"drop"`` discards the whole message immediately
    (right for real-time media — by the time service resumes the frame is
    stale), ``"buffer"`` holds messages and flushes them in order on the
    first channel-up transition (right for telemetry/background data where
    late beats never).
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        mtu_payload: int = DEFAULT_MSS,
        flow_priority: Optional[int] = None,
        on_message: Optional[Callable[[DatagramMessage], None]] = None,
        blackout: str = "drop",
    ) -> None:
        if mtu_payload <= 0:
            raise TransportError(f"mtu_payload must be positive, got {mtu_payload}")
        if blackout not in BLACKOUT_MODES:
            raise TransportError(
                f"blackout mode must be one of {BLACKOUT_MODES}, got {blackout!r}"
            )
        self.sim = sim
        self.device = device
        self.flow_id = flow_id
        self.mtu_payload = mtu_payload
        self.flow_priority = flow_priority
        self.on_message = on_message
        self.blackout = blackout
        self.stats = DatagramStats()
        self._assembly: Dict[int, DatagramMessage] = {}
        #: Messages awaiting a channel: (size_bytes, message_id, priority).
        self._blackout_queue: List[tuple] = []
        self._closed = False
        device.register_flow(flow_id, self._on_packet)
        device.on_channel_transition_hooks.append(self._on_channel_transition)

    def send_message(
        self,
        size_bytes: int,
        message_id: int,
        priority: Optional[int] = None,
    ) -> int:
        """Packetize and send one message; returns the packet count.

        Packets are offered to the device back to back; pacing, queueing and
        loss are the network's business. ``seq`` on each packet is the byte
        offset within the message, so the receiver can account for which
        bytes (not just how many) arrived.
        """
        if self._closed:
            raise TransportError(f"flow {self.flow_id}: send on closed socket")
        if size_bytes <= 0:
            raise TransportError(f"message size must be positive, got {size_bytes}")
        if not self.device.any_channel_up():
            if self.blackout == "drop":
                self.stats.messages_blackout_dropped += 1
            else:
                self.stats.messages_blackout_buffered += 1
                self._blackout_queue.append((size_bytes, message_id, priority))
            return 0
        offset = 0
        packets = 0
        while offset < size_bytes:
            left = size_bytes - offset
            payload = left if left < self.mtu_payload else self.mtu_payload
            # Positional, as in :meth:`repro.transport.endpoint.Endpoint._data_packet`.
            self.device.send(
                Packet(
                    self.flow_id, PacketType.DATAGRAM, payload, DEFAULT_HEADER_BYTES,
                    offset, offset + payload, 0, (), False, None,
                    message_id, priority, payload == left, 0,
                    self.flow_priority, None, None, 1, None, self.sim.now, None,
                )
            )
            self.stats.packets_sent += 1
            self.stats.bytes_sent += payload
            offset += payload
            packets += 1
        self.stats.messages_sent += 1
        return packets

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.device.unregister_flow(self.flow_id)
            try:
                self.device.on_channel_transition_hooks.remove(
                    self._on_channel_transition
                )
            except ValueError:
                pass

    # ------------------------------------------------------------------
    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        if not up or self._closed or not self._blackout_queue:
            return
        pending, self._blackout_queue = self._blackout_queue, []
        for size_bytes, message_id, priority in pending:
            self.send_message(size_bytes, message_id, priority)

    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if packet.ptype != PacketType.DATAGRAM or packet.message_id is None:
            return
        self.stats.packets_received += 1
        state = self._assembly.get(packet.message_id)
        if state is None:
            state = self._assembly[packet.message_id] = DatagramMessage(
                packet.message_id,
                packet.message_priority,
                self.sim.now,
                sent_at=packet.created_at,
            )
        if state.sent_at is None or packet.created_at < state.sent_at:
            state.sent_at = packet.created_at
        state.bytes_received += packet.payload_bytes
        if packet.message_last:
            state.total_bytes = packet.end_seq
        if state.complete and state.completed_at is None:
            state.completed_at = self.sim.now
            self.stats.messages_completed += 1
            if self.on_message is not None:
                self.on_message(state)

    def discard_before(self, message_id: int) -> None:
        """Drop reassembly state for messages older than ``message_id``.

        Real-time receivers call this as their playout point advances so
        state for frames that will never complete does not accumulate.
        """
        stale = [mid for mid in self._assembly if mid < message_id]
        for mid in stale:
            del self._assembly[mid]

    def pending_messages(self) -> Dict[int, DatagramMessage]:
        """Reassembly state keyed by message id (completed ones included)."""
        return self._assembly
