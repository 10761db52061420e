"""A reliable, full-duplex, message-aware transport connection.

The design is TCP-shaped (byte sequence space, cumulative + selective ACKs,
Jacobson RTO, SACK-based loss recovery per RFC 6675) with two QUIC-shaped
additions the paper needs:

* **Message boundaries & priorities.** Applications write *messages*;
  segments never straddle a boundary and every packet carries its message's
  id/priority/remaining-bytes tags, so cross-layer steering policies can act
  on them (§3.3). Policies that ignore the tags see plain packets (§3.1).
* **Channel attribution.** The sender records the channel each segment
  rode and each ACK arrived on, giving HVC-aware congestion control
  per-(data, ack)-channel RTT attribution (§3.2) — information a real
  multi-channel transport would have.

The connection is simulation-native: it owns no socket, it just exchanges
:class:`~repro.net.packet.Packet` objects through its host's
:class:`~repro.net.node.Device` (where steering happens).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample, CongestionControl
# The record types are re-exported: callers import them from this module.
from repro.transport.endpoint import (  # noqa: F401
    MAX_SACK_RANGES,
    ConnectionStats,
    Endpoint,
    MessageReceipt,
    OutgoingMessage,
    RttRecord,
)
from repro.transport.rtx import RttEstimator
from repro.transport.scoreboard import Segment  # noqa: F401
from repro.units import DEFAULT_MSS

DUP_ACK_THRESHOLD = 3


class Connection(Endpoint):
    """One endpoint of a reliable connection.

    Create one at each host with the same ``flow_id``; they find each other
    through the channel set. The side that calls :meth:`send_message` first
    drives data; both directions may send concurrently.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        cc: str = "cubic",
        mss: int = DEFAULT_MSS,
        min_rto: float = 0.2,
        flow_priority: Optional[int] = None,
        handshake: bool = False,
        on_message: Optional[Callable[[MessageReceipt], None]] = None,
        ack_bytes: int = 0,
        tenant_id: Optional[int] = None,
        sack: bool = True,
        pacing: bool = True,
        blackout_suppression: bool = True,
    ) -> None:
        # One loss key: a hole is lost relative to anything SACKed above
        # it, whichever channel carried either.
        super().__init__(
            sim, device, flow_id, mss, flow_priority, on_message,
            [make_cc(cc, mss=mss) if isinstance(cc, str) else cc], min_rto,
        )
        self._subflow = self.subflows[0]
        self.cc: CongestionControl = self._subflow.cc
        self.rtt: RttEstimator = self._subflow.rtt
        #: Fleet-mode tenant this connection belongs to (``None`` outside
        #: multi-tenant runs); lets experiments attribute foreground flows
        #: to tenants and requirement classes.
        self.tenant_id = tenant_id
        self.ack_bytes = ack_bytes
        self.sack_enabled = sack
        self.pacing_enabled = pacing
        self.blackout_suppression = blackout_suppression

        self._dup_acks = 0
        self._recovery_end: Optional[int] = None
        self._established = not handshake
        self._handshake_pending = handshake

    # ==================================================================
    # Application interface
    # ==================================================================
    @property
    def bytes_in_flight(self) -> int:
        """Estimated bytes in the network (SACKed and lost bytes excluded)."""
        return self._sb.flight[0]

    @property
    def established(self) -> bool:
        return self._established

    # ==================================================================
    # Handshake
    # ==================================================================
    def _start_handshake(self) -> None:
        self._handshake_pending = False
        self.device.send(self._make_packet(PacketType.SYN))
        # If the SYN is lost the connection would hang; retry on a timer.
        self._rto_event = self.sim.schedule(self.rtt.rto, self._handshake_timeout)

    def _handshake_timeout(self) -> None:
        self._rto_event = None
        if not self._established and not self._closed:
            self.device.send(self._make_packet(PacketType.SYN))
            self.rtt.on_timeout()
            self._rto_event = self.sim.schedule(self.rtt.rto, self._handshake_timeout)

    def _on_syn(self, packet: Packet) -> None:
        if not self._established:
            self._established = True
            if self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None
            # Respond so the initiator establishes too (SYN/SYN-ACK).
            if packet.ack_seq == 0:
                reply = self._make_packet(PacketType.SYN)
                reply.ack_seq = 1
                self.device.send(reply)
            self._try_send()
        elif packet.ack_seq == 0:
            # Duplicate SYN from a peer retry: re-acknowledge it.
            reply = self._make_packet(PacketType.SYN)
            reply.ack_seq = 1
            self.device.send(reply)

    # ==================================================================
    # Send path
    # ==================================================================
    def _try_send(self) -> None:
        if self._handshake_pending and self._messages:
            self._start_handshake()  # the first application write opens it
            return
        if not self._established or self._closed:
            return
        self._open_burst()
        sub = self._subflow
        cwnd = sub.cwnd
        retx_queue = self._sb.retx_queue
        flight = self._sb.flight
        while True:
            # Lost segments are resent before new data; new data asks the
            # window for a full MSS whatever the head message has left.
            if retx_queue:
                segment = retx_queue[0]
                size = segment.end_seq - segment.seq
            elif self._write_end > self._snd_nxt:
                segment = None
                size = self.mss
            else:
                return
            if flight[0] + size > cwnd or self._pacing_gate(sub):
                return
            if segment is None:
                message = self._head_message()
                left = message.end - self._snd_nxt
                segment = self._carve_segment(message, left if left < size else size, 0)
                self._transmit(segment, sub, False)
            else:
                retx_queue.pop(0)
                if not segment.sacked and segment.end_seq > self._snd_una:
                    self._retransmit(segment, sub)  # else: acked while queued

    # ==================================================================
    # Per-ACK loss response
    # ==================================================================
    def _loss_response(
        self,
        now: float,
        packet: Packet,
        newly_acked: int,
        newest: Optional[Segment],
        rtt_sample: Optional[float],
        delivery_rate: Optional[float],
    ) -> None:
        """SACK-based loss inference (on the scoreboard) + dup-ACK fallback,
        one congestion response per window of loss, then the controller's
        ACK sample."""
        if newly_acked:
            self._dup_acks = 0
            if self._recovery_end is not None and self._snd_una >= self._recovery_end:
                self._recovery_end = None
        elif packet.ack_seq == self._snd_una:
            # A genuine duplicate. Acks that race across channels arrive
            # *stale* (ack_seq < snd_una) and must not count — treating them
            # as dup-acks causes spurious loss recovery.
            self._dup_acks += 1
        sb = self._sb
        flight = sb.flight
        newly_lost = sb.detect_losses(now, self._snd_una)
        if not newly_lost and self._dup_acks >= DUP_ACK_THRESHOLD:
            first = sb.first_unsettled()
            if first is not None and now >= first.no_remark_until:
                sb.mark_lost(first)
                sb.retx_queue.append(first)
                newly_lost.append(first)
                self._dup_acks = 0
        if newly_lost:
            self.cc.on_lost(now, sum(s.size for s in newly_lost), flight[0])
            if self._recovery_end is None:
                # One congestion response per window of loss.
                self._recovery_end = self._snd_nxt
                self.stats.fast_retransmits += 1
                self.cc.on_loss(now, flight[0])
        self.cc.on_ack(
            AckSample(
                now, rtt_sample, newly_acked, flight[0], delivery_rate,
                self._write_end == self._snd_nxt,  # app-limited: nothing left unsent
                newest.channel if newest is not None else None, packet.channel_index,
                self._total_delivered,
            )
        )
        if self.obs is not None:
            self.obs.on_ack(self, self._subflow)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection flow={self.flow_id} una={self._snd_una} nxt={self._snd_nxt}"
            f" inflight={self._sb.flight[0]} cc={self.cc.name}>"
        )
