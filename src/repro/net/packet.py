"""Packets and the cross-layer tags they may carry.

A packet is the unit handed from the transport (or a datagram application)
to the device, steered onto a channel, and delivered to the peer device.

Cross-layer fields (``message_id``, ``message_priority``, ``message_last``,
``flow_priority``) are *optional tags*: network-layer steering policies must
work when they are ``None`` (the DChannel deployment model); cross-layer
policies read them. This mirrors the paper's argument that a general design
should exploit application hints when present but not require them.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.units import DEFAULT_HEADER_BYTES

_packet_ids = itertools.count()


class PacketType(enum.Enum):
    """Coarse classification used by steering heuristics.

    ``ACK`` means a *pure* acknowledgement (no payload); an ACK piggybacked
    on data is just ``DATA`` — the distinction matters because DChannel-style
    policies accelerate small control packets.
    """

    DATA = "data"
    ACK = "ack"
    SYN = "syn"
    FIN = "fin"
    PROBE = "probe"
    DATAGRAM = "datagram"

    def __init__(self, wire_name: str) -> None:
        #: True for packets that carry protocol control, not payload. Set
        #: once per member: every packet constructed reads it.
        self.is_control = wire_name in ("ack", "syn", "fin", "probe")


class Packet:
    """A simulated packet.

    ``size_bytes`` is the on-the-wire size (headers included) used for
    serialization and queueing; ``payload_bytes`` is the application/transport
    payload carried.

    ``payload_bytes``/``header_bytes`` are **fixed at construction**:
    ``size_bytes`` and ``is_control`` are read several times per hop
    (steering, queues, serialization, congestion accounting), so they are
    stored once rather than recomputed — a later mutation of the byte
    fields would silently desync queue byte accounting and steering's
    control test. Both are therefore exposed as read-only properties;
    construct a new packet instead of editing an existing one.
    """

    __slots__ = (
        "flow_id",
        "ptype",
        "_payload_bytes",
        "_header_bytes",
        "seq",
        "end_seq",
        "ack_seq",
        "sack",
        "is_retransmission",
        "segment",
        "message_id",
        "message_priority",
        "message_last",
        "message_start",
        "flow_priority",
        "channel_hint",
        "shim_seq",
        "shim_channel_count",
        "packet_id",
        "size_bytes",
        "is_control",
        "created_at",
        "sent_at",
        "delivered_at",
        "channel_index",
        "copy_index",
    )

    def __init__(
        self,
        flow_id: int,
        ptype: PacketType,
        payload_bytes: int = 0,
        header_bytes: int = DEFAULT_HEADER_BYTES,
        # Transport bookkeeping (meaning is transport-specific).
        seq: int = 0,
        end_seq: int = 0,
        ack_seq: int = 0,
        # Selective-ACK ranges carried by pure ACKs: ((start, end), ...).
        sack: tuple = (),
        is_retransmission: bool = False,
        # Opaque reference back to the transport's segment record, if any.
        segment: Optional[object] = None,
        # Cross-layer tags (optional; see module docstring).
        message_id: Optional[int] = None,
        message_priority: Optional[int] = None,
        # True when this is the final packet of its message.
        message_last: bool = False,
        # Stream offset where this packet's message begins.
        message_start: Optional[int] = None,
        # Flow-level priority; lower value = more important. None = untagged.
        flow_priority: Optional[int] = None,
        # Channel index requested by a channel-aware transport (multipath
        # subflows own their channel); bypasses the device's steering policy.
        channel_hint: Optional[int] = None,
        # Filled in by the device / links.
        # Shim-level per-flow sequence number used for cross-channel
        # resequencing at the receiving device (DChannel's reorder buffer).
        shim_seq: Optional[int] = None,
        # How many distinct channels this flow's data has used so far,
        # stamped by the sending shim. The receiver's FIFO loss proof needs
        # delivery evidence from that many channels before declaring a hole
        # lost.
        shim_channel_count: int = 1,
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
        sent_at: Optional[float] = None,
        delivered_at: Optional[float] = None,
        channel_index: Optional[int] = None,
        # Incremented each time a redundant copy is made (original is 0).
        copy_index: int = 0,
    ) -> None:
        self.flow_id = flow_id
        self.ptype = ptype
        self._payload_bytes = payload_bytes
        self._header_bytes = header_bytes
        self.seq = seq
        self.end_seq = end_seq
        self.ack_seq = ack_seq
        self.sack = sack
        self.is_retransmission = is_retransmission
        self.segment = segment
        self.message_id = message_id
        self.message_priority = message_priority
        self.message_last = message_last
        self.message_start = message_start
        self.flow_priority = flow_priority
        self.channel_hint = channel_hint
        self.shim_seq = shim_seq
        self.shim_channel_count = shim_channel_count
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.size_bytes = payload_bytes + header_bytes
        self.is_control = ptype.is_control and payload_bytes == 0
        self.created_at = created_at
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.channel_index = channel_index
        self.copy_index = copy_index

    @property
    def payload_bytes(self) -> int:
        """Application/transport payload carried. Fixed at construction."""
        return self._payload_bytes

    @property
    def header_bytes(self) -> int:
        """Header overhead on the wire. Fixed at construction."""
        return self._header_bytes

    def copy_for_redundancy(self, copy_index: int) -> "Packet":
        """Duplicate this packet for replication across channels.

        The copy shares ``packet_id`` (so the receiving device can
        de-duplicate) and everything the transport and the sending shim
        wrote — SACK ranges, ``shim_seq`` / ``shim_channel_count`` (stamped
        before the device clones; the receiver's resequencer must see the
        copy as the same shim packet), ``channel_hint`` — but gets its own
        delivery bookkeeping (``sent_at``, ``delivered_at``,
        ``channel_index``).
        """
        return Packet(
            self.flow_id, self.ptype, self.payload_bytes, self.header_bytes,
            seq=self.seq, end_seq=self.end_seq, ack_seq=self.ack_seq, sack=self.sack,
            is_retransmission=self.is_retransmission, segment=self.segment,
            message_id=self.message_id, message_priority=self.message_priority,
            message_last=self.message_last, message_start=self.message_start,
            flow_priority=self.flow_priority, channel_hint=self.channel_hint,
            shim_seq=self.shim_seq, shim_channel_count=self.shim_channel_count,
            packet_id=self.packet_id, created_at=self.created_at, copy_index=copy_index,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} flow={self.flow_id} {self.ptype.value}"
            f" seq={self.seq} {self.size_bytes}B ch={self.channel_index}>"
        )
