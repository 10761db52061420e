"""A reliable, full-duplex, message-aware transport connection.

The design is TCP-shaped (byte sequence space, cumulative + selective ACKs,
Jacobson RTO, SACK-based loss recovery per RFC 6675) with two QUIC-shaped
additions the paper needs:

* **Message boundaries & priorities.** Applications write *messages*;
  segments never straddle a boundary and every packet carries its message's
  id/priority/remaining-bytes tags, so cross-layer steering policies can act
  on them (§3.3). Policies that ignore the tags see plain packets (§3.1).
* **Channel echo.** Pure ACKs echo which channel the acked data travelled
  on, giving HVC-aware congestion control per-channel RTT attribution
  (§3.2) — information a real multi-channel transport would have.

The connection is simulation-native: it owns no socket, it just exchanges
:class:`~repro.net.packet.Packet` objects through its host's
:class:`~repro.net.node.Device` (where steering happens).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.obs.probes import probe_for
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample, CongestionControl
# The record types are re-exported: callers import them from this module.
from repro.transport.endpoint import (  # noqa: F401
    MAX_SACK_RANGES,
    Endpoint,
    MessageReceipt,
    OutgoingMessage,
    RttRecord,
)
from repro.transport.rtx import RttEstimator
from repro.transport.scoreboard import Segment  # noqa: F401
from repro.units import DEFAULT_MSS

DUP_ACK_THRESHOLD = 3


@dataclass
class ConnectionStats:
    """Lifetime accounting for one connection endpoint."""

    bytes_sent: int = 0
    bytes_acked: int = 0
    bytes_received: int = 0
    segments_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    #: RTOs that fired while *every* channel was down. Retransmitting into a
    #: blackout is pointless and would poison the congestion controller, so
    #: these back off the timer without touching cwnd.
    blackout_timeouts: int = 0
    #: Fast retransmissions issued right after a channel came back up.
    recovery_probes: int = 0
    fast_retransmits: int = 0
    rtt_records: List[RttRecord] = field(default_factory=list)
    #: (time, cumulative bytes delivered) checkpoints for throughput series.
    delivered_timeline: List[Tuple[float, int]] = field(default_factory=list)


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
        super().__init__(sim, device, flow_id, mss, flow_priority, on_message, loss_keys=1)
        self.cc: CongestionControl = make_cc(cc, mss=mss) if isinstance(cc, str) else cc
        self.rtt = RttEstimator(min_rto=min_rto)
        #: Fleet-mode tenant this connection belongs to (``None`` outside
        #: multi-tenant runs); lets experiments attribute foreground flows
        #: to tenants and requirement classes.
        self.tenant_id = tenant_id
        #: Payload bytes a pure ACK carries (0 = genuinely pure). Setting
        #: this >0 models "data tacked onto the ACK" (§3.2 discussion).
        self.ack_bytes = ack_bytes
        #: Component switches for the ablation harness. Off means: ACKs
        #: carry no SACK ranges / the pacer never gates a send / RTOs
        #: during total blackout take the normal timeout path.
        self.sack_enabled = sack
        self.pacing_enabled = pacing
        self.blackout_suppression = blackout_suppression
        self.stats = ConnectionStats()
        #: Transport probe (:class:`repro.obs.ConnectionProbe`), attached
        #: automatically when the device is wired into an observability
        #: context with probes enabled; ``None`` otherwise.
        self.obs = probe_for(device, flow_id)

        self._flight = self._sb.flight  # one key: all flight is ``[0]``
        self._dup_acks = 0
        self._recovery_end: Optional[int] = None
        self._next_send_time = 0.0

        # --- connection state ---
        self._established = not handshake
        self._handshake_pending = handshake
        #: True while RTOs are being suppressed because no channel is up;
        #: cleared by the first channel-up transition, which re-probes fast.
        self._blackout_suppressed = False

        device.on_channel_transition_hooks.append(self._on_channel_transition)

    # ==================================================================
    # Application interface
    # ==================================================================
    def close(self) -> None:
        """Stop timers and detach from the device and its transition hooks."""
        super().close()
        try:
            self.device.on_channel_transition_hooks.remove(self._on_channel_transition)
        except ValueError:
            pass

    @property
    def bytes_in_flight(self) -> int:
        """Estimated bytes in the network (SACKed and lost bytes excluded)."""
        return self._flight[0]

    @property
    def established(self) -> bool:
        return self._established

    def audit_state(self) -> dict:
        """The endpoint core's snapshot (with the single key's flight as
        plain numbers) plus the CC/RTO envelope."""
        state = super().audit_state()
        state.update(
            flight_bytes=state["flight_bytes"][0],
            segment_flight=state["segment_flight"][0],
            cwnd_bytes=self.cc.cwnd_bytes,
            pacing_rate_bps=self.cc.pacing_rate_bps if self.pacing_enabled else None,
            rto=self.rtt.rto,
            min_rto=self.rtt.min_rto,
            max_rto=self.rtt.max_rto,
            bytes_acked=self.stats.bytes_acked,
            bytes_sent=self.stats.bytes_sent,
        )
        return state

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
    def _pacing_rate(self) -> Optional[float]:
        """The rate the pacer spaces sends at (``None``: it never gates)."""
        return self.cc.pacing_rate_bps if self.pacing_enabled else None

    def _try_send(self) -> None:
        if self._handshake_pending and self._messages:
            self._start_handshake()  # the first application write opens it
            return
        if not self._established or self._closed:
            return
        # The controller's outputs, read once for the burst: ``on_sent``
        # moves neither (the contract tests/test_transport_cc.py holds
        # every registered controller to).
        cwnd = self.cc.cwnd_bytes
        pacing = self._pacing_rate()
        retx_queue = self._sb.retx_queue
        flight = self._flight
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
            if flight[0] + size > cwnd:
                return
            if pacing is not None and self.sim.now < self._next_send_time:
                if self._pacing_event is None:
                    self._pacing_event = self.sim.schedule(
                        self._next_send_time - self.sim.now, self._pacing_wakeup
                    )
                return
            if segment is None:
                message = self._head_message()
                left = message.end - self._snd_nxt
                segment = self._carve_segment(message, left if left < size else size, 0)
                self._transmit(segment, False, pacing)
            else:
                retx_queue.pop(0)
                if not segment.sacked and segment.end_seq > self._snd_una:
                    self._retransmit_segment(segment, pacing)  # else: acked while queued

    def _retransmit_segment(self, segment: Segment, pacing: Optional[float]) -> None:
        self._sb.retransmit(segment, self.sim.now, self.rtt.srtt or 0.1)
        self.stats.retransmissions += 1
        self._transmit(segment, True, pacing)

    def _transmit(self, segment: Segment, retransmission: bool, pacing: Optional[float]) -> None:
        now = self.sim.now
        size = segment.end_seq - segment.seq
        packet = self._data_packet(segment, retransmission)
        self.device.send(packet)
        segment.channel = packet.channel_index
        stats = self.stats
        stats.segments_sent += 1
        stats.bytes_sent += size
        if pacing is not None and pacing > 0:
            start = self._next_send_time
            self._next_send_time = (start if start > now else now) + (size + 40) * 8 / pacing
        self.cc.on_sent(now, size, self._flight[0])
        self._arm_rto(self.rtt.rto)

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        if self.blackout_suppression and not self.device.any_channel_up():
            # Total blackout: the timeout measured the outage, not
            # congestion. Don't collapse cwnd, don't waste a retransmission
            # the device would drop anyway — just back the timer off and
            # wait for the channel-up signal to re-probe.
            self.stats.blackout_timeouts += 1
            self.rtt.on_timeout()
            self._blackout_suppressed = True
            if self.obs is not None:
                # Probe the suppressed fire too: a run of timeout samples
                # with growing RTO but flat cwnd is the blackout signature.
                self.obs.on_timeout(self)
            self._rto_deadline = self.sim.now + self.rtt.rto
            self._rto_event = self.sim.schedule(self.rtt.rto, self._on_rto)
            return
        self.stats.timeouts += 1
        self.rtt.on_timeout()
        self.cc.on_timeout(self.sim.now)
        if self.obs is not None:
            self.obs.on_timeout(self)
        # RFC 5681 semantics: after an RTO the whole outstanding window is
        # presumed lost and the pipe empty. Without this, segments that died
        # in a channel outage (never SACKed, so never marked lost) keep
        # inflating flight_bytes above the collapsed cwnd and recovery
        # degenerates to one segment per backed-off RTO.
        sb = self._sb
        unsacked = [s for s in sb.segments if not s.sacked]
        for segment in unsacked:
            if not segment.lost:
                sb.mark_lost(segment)
        # Rebuild the retransmission queue in sequence order: the hole at
        # snd_una is what advances the cumulative ACK (and clears the
        # backoff), so it must go out first, whatever order losses were
        # declared in before the timeout.
        sb.retx_queue[:] = unsacked
        if unsacked:
            self._retransmit_segment(sb.retx_queue.pop(0), self._pacing_rate())
            self._try_send()
        else:
            self._arm_rto(self.rtt.rto)

    def _on_channel_transition(self, channel, up: bool, now: float) -> None:
        """Fault-aware recovery: a channel coming back up ends the wait.

        If RTOs were suppressed during a total blackout, the backed-off
        timer may be minutes out — but the recovery signal is local and
        certain, so forget the backoff and immediately re-probe with the
        first unacknowledged segment (no congestion penalty: nothing about
        the path's capacity was learned from the outage).
        """
        if not up or self._closed or not self._blackout_suppressed:
            return
        self._blackout_suppressed = False
        self.rtt.reset_backoff()
        if self._snd_una >= self._snd_nxt:
            self._arm_rto(self.rtt.rto)
            return
        sb = self._sb
        first = sb.first_unsacked()
        if first is not None:
            self.stats.recovery_probes += 1
            if not first.lost:
                sb.mark_lost(first)
            if first in sb.retx_queue:
                sb.retx_queue.remove(first)
            self._retransmit_segment(first, self._pacing_rate())
        self._try_send()

    # ==================================================================
    # Receive path
    # ==================================================================
    def _on_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        if packet.ptype == PacketType.SYN:
            self._on_syn(packet)
        elif packet.ptype == PacketType.DATA:
            self._on_data(packet)
        elif packet.ptype == PacketType.ACK:
            self._on_ack(packet)

    # ------------------------------------------------------------------
    # Data reception → cumulative + selective ACK
    # ------------------------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        if not self._established:
            self._established = True  # data implies the peer established
        self.stats.bytes_received += packet.payload_bytes
        self._receive(packet)
        self._send_ack(packet)

    def _send_ack(self, data_packet: Packet) -> None:
        ranges = self._ooo_ranges if self.sack_enabled else ()
        self.device.send(
            Packet(
                self.flow_id, PacketType.ACK, self.ack_bytes,
                ack_seq=self._rcv_nxt, sack=tuple(ranges[-MAX_SACK_RANGES:]) if ranges else (),
                # Echo which segment (and so which channel) the data took,
                # for HVC-aware CC attribution.
                seq=data_packet.seq, segment=data_packet.segment,
                message_id=data_packet.message_id,
                message_priority=data_packet.message_priority,
                flow_priority=self.flow_priority, created_at=self.sim.now,
            )
        )

    # ------------------------------------------------------------------
    # ACK processing → CC + RTT + SACK loss recovery
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        if ack_seq > self._snd_nxt:
            return  # corrupt/stale beyond what we sent
        now = self.sim.now
        stats = self.stats
        newly_acked = ack_seq - self._snd_una
        if newly_acked > 0:
            self._snd_una = ack_seq
            self._dup_acks = 0
            # Forward progress proves the path carries data again; a backoff
            # accumulated during an outage must not throttle recovery (the
            # acked data may all be retransmissions, so Karn's rule would
            # never produce the sample that normally clears it).
            self.rtt.reset_backoff()
            self._total_delivered += newly_acked
            stats.bytes_acked = ack_seq
            stats.delivered_timeline.append((now, self._total_delivered))
            if self._recovery_end is not None and ack_seq >= self._recovery_end:
                self._recovery_end = None
        elif newly_acked == 0:
            # A genuine duplicate. Acks that race across channels arrive
            # *stale* (ack_seq < snd_una) and must not count — treating them
            # as dup-acks causes spurious loss recovery.
            self._dup_acks += 1
        else:
            newly_acked = 0

        newest = self._sb.ack(ack_seq, packet.sack)

        rtt_sample: Optional[float] = None
        delivery_rate: Optional[float] = None
        data_channel: Optional[int] = None
        if newest is not None:
            rtt_sample = now - newest.sent_at
            self.rtt.on_sample(rtt_sample)
            if rtt_sample > 0:
                delivered = self._total_delivered - newest.delivered_at_send
                delivery_rate = delivered * 8.0 / rtt_sample
            data_channel = newest.channel
            stats.rtt_records.append(
                RttRecord(now, rtt_sample, data_channel, packet.channel_index)
            )

        self._detect_losses(now)

        self.cc.on_ack(
            AckSample(
                now, rtt_sample, newly_acked, self._flight[0], delivery_rate,
                self._write_end == self._snd_nxt,  # app-limited: nothing left unsent
                data_channel, packet.channel_index, self._total_delivered,
            )
        )
        if self.obs is not None:
            self.obs.on_ack(self)
        if newly_acked:
            self._fire_acked_messages()
        self._arm_rto(self.rtt.rto)
        self._try_send()

    def _detect_losses(self, now: float) -> None:
        """SACK-based loss inference (on the scoreboard) + dup-ACK fallback,
        then one congestion response per window of loss."""
        sb = self._sb
        newly_lost = sb.detect_losses(now, self._snd_una)
        if not newly_lost and self._dup_acks >= DUP_ACK_THRESHOLD:
            first = sb.first_unsettled()
            if first is not None and now >= first.no_remark_until:
                sb.mark_lost(first)
                sb.retx_queue.append(first)
                newly_lost.append(first)
                self._dup_acks = 0
        if newly_lost:
            self.cc.on_lost(now, sum(s.size for s in newly_lost), self._flight[0])
            if self._recovery_end is None:
                # One congestion response per window of loss.
                self._recovery_end = self._snd_nxt
                self.stats.fast_retransmits += 1
                self.cc.on_loss(now, self._flight[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection flow={self.flow_id} una={self._snd_una} nxt={self._snd_nxt}"
            f" inflight={self._flight[0]} cc={self.cc.name}>"
        )
