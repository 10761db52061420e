"""The endpoint core shared by :class:`Connection` and :class:`MultipathConnection`.

Everything about a reliable, message-aware endpoint that does not depend
on how many paths it sends over: the application message queue and segment
carving, the sender :class:`~repro.transport.scoreboard.Scoreboard`, one
:class:`Subflow` of sender state per loss key, the send primitives
(transmit, retransmit, pacing gate), the ACK builder and the ACK path up to
the congestion response, the lazy retransmission timer with its blackout
handling and channel-up recovery probe, and the receiver's reassembly and
message completion.

Subclasses supply placement (``_try_send``, ``_place_repair``), the channel
an ACK returns on (``_ack_channel``) and the per-ACK loss inference and
congestion response (``_loss_response``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.obs.probes import probe_for
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.transport.cc.base import CongestionControl
from repro.transport.rtx import RttEstimator
from repro.transport.scoreboard import Scoreboard, Segment
from repro.units import DEFAULT_HEADER_BYTES

#: Number of SACK ranges an ACK carries (TCP fits ~3 in options).
MAX_SACK_RANGES = 3


@dataclass(slots=True)
class OutgoingMessage:
    """One application message queued on the send side."""

    start: int
    end: int
    message_id: int
    priority: Optional[int]
    on_acked: Optional[Callable[["OutgoingMessage", float], None]] = None
    acked_at: Optional[float] = None

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass(slots=True)
class MessageReceipt:
    """Receiver-side notification for one completed message."""

    message_id: int
    priority: Optional[int]
    size: int
    completed_at: float


@dataclass(slots=True)
class RttRecord:
    """One RTT measurement, kept for analysis (Fig. 1b)."""

    time: float
    rtt: float
    data_channel: Optional[int]
    ack_channel: Optional[int]


@dataclass
class ConnectionStats:
    """Lifetime accounting for one endpoint."""

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


class Subflow:
    """Sender state for one loss key: congestion controller, RTT estimator,
    pacer, and ``in_flight``, the scoreboard's flight ledger for the key.

    :class:`Connection` has one. :class:`MultipathConnection` has one per
    channel, pinned to it: ``channel`` is the hint its packets carry
    (``None`` leaves each packet to the device's steering).
    """

    def __init__(
        self,
        key: int,
        channel: Optional[int],
        cc: CongestionControl,
        min_rto: float,
        flight: List[int],
    ) -> None:
        self.key = key
        self.channel = channel
        self.cc = cc
        self.rtt = RttEstimator(min_rto=min_rto)
        self._flight = flight
        self.next_send_time = 0.0
        #: ``cc.cwnd_bytes`` / the pacing rate as read for the current send
        #: burst (:meth:`Endpoint._open_burst`); stale between bursts —
        #: everything else reads ``cc``.
        self.cwnd = 0.0
        self.pacing: Optional[float] = None

    @property
    def in_flight(self) -> int:
        return self._flight[self.key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Subflow key={self.key} cwnd={self.cc.cwnd_bytes:.0f} "
            f"inflight={self.in_flight}>"
        )


class Endpoint:
    """Message queue, scoreboard, per-key sender state, receiver and timers
    of one endpoint."""

    #: Stand-in SRTT of a key without an RTT sample: the remark holdoff of a
    #: repair it carries (and, multipath, its place in min-RTT order).
    UNSAMPLED_SRTT = 0.1
    #: Loss key ``k`` is pinned to channel ``k``: its packets carry the
    #: channel as a hint and the probe keeps one series per key.
    KEYS_ARE_CHANNELS = False

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        mss: int,
        flow_priority: Optional[int],
        on_message: Optional[Callable[[MessageReceipt], None]],
        ccs: List[CongestionControl],
        min_rto: float,
    ) -> None:
        self.sim = sim
        self.device = device
        self.flow_id = flow_id
        self.mss = mss
        self.flow_priority = flow_priority
        self.on_message = on_message
        self.stats = ConnectionStats()
        #: Component switches (the ablation harness turns them off through
        #: :class:`Connection`'s constructor). Off means: ACKs carry no SACK
        #: ranges / the pacer never gates a send / RTOs during total
        #: blackout take the normal timeout path.
        self.sack_enabled = True
        self.pacing_enabled = True
        self.blackout_suppression = True
        #: Payload bytes a pure ACK carries (0 = genuinely pure). Setting
        #: this >0 models "data tacked onto the ACK" (§3.2 discussion).
        self.ack_bytes = 0

        # --- send state ---
        self._write_end = 0
        self._snd_una = 0
        self._snd_nxt = 0
        self._sb = Scoreboard(mss, len(ccs))
        pinned = self.KEYS_ARE_CHANNELS
        #: Indexed by loss key.
        self.subflows: List[Subflow] = [
            Subflow(key, key if pinned else None, cc, min_rto, self._sb.flight)
            for key, cc in enumerate(ccs)
        ]
        self._messages: List[OutgoingMessage] = []
        self._next_message_index = 0  # first message not fully acked
        self._send_cursor = 0  # the message covering ``_snd_nxt``
        self._rto_event: Optional[Event] = None
        #: Lazy RTO: the deadline that actually matters. Every transmit
        #: and ACK "re-arms" the timer by storing a new deadline here
        #: (one float assignment); the single scheduled event checks the
        #: deadline when it fires and sleeps the remainder. This removes
        #: the cancel+push pair per packet the eager idiom paid.
        self._rto_deadline: Optional[float] = None
        self._pacing_event: Optional[Event] = None
        self._total_delivered = 0
        self._auto_message_ids = iter(range(10**9, 2 * 10**9))
        #: True while RTOs are being suppressed because no channel is up;
        #: cleared by the first channel-up transition, which re-probes fast.
        self._blackout_suppressed = False

        # --- receive state ---
        self._established = True
        self._rcv_nxt = 0
        self._ooo_ranges: List[Tuple[int, int]] = []
        self._message_ends: Dict[int, Tuple[int, Optional[int], int]] = {}
        self._closed = False

        #: Transport probe (:class:`repro.obs.ConnectionProbe`), attached
        #: when the device is wired into an observability context with
        #: probes enabled; ``None`` otherwise.
        self.obs = probe_for(device, flow_id, per_key=pinned)
        device.register_flow(flow_id, self._on_packet)
        device.on_channel_transition_hooks.append(self._on_channel_transition)

    # ==================================================================
    # Application interface
    # ==================================================================
    def send_message(
        self,
        size_bytes: int,
        message_id: Optional[int] = None,
        priority: Optional[int] = None,
        on_acked: Optional[Callable[[OutgoingMessage, float], None]] = None,
    ) -> OutgoingMessage:
        """Queue one application message of ``size_bytes`` for delivery.

        ``on_acked(message, time)`` fires when every byte of the message has
        been cumulatively acknowledged. The receiving endpoint's
        ``on_message`` fires when the peer has the complete message.
        """
        if self._closed:
            raise TransportError(f"flow {self.flow_id}: send on closed connection")
        if size_bytes <= 0:
            raise TransportError(f"message size must be positive, got {size_bytes}")
        if message_id is None:
            message_id = next(self._auto_message_ids)
        start = self._write_end
        self._write_end = start + size_bytes
        message = OutgoingMessage(start, self._write_end, message_id, priority, on_acked)
        self._messages.append(message)
        self._try_send()
        return message

    def close(self) -> None:
        """Stop timers and detach from the device and its transition hooks."""
        if self._closed:
            return
        self._closed = True
        self._rto_deadline = None
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None
        if self._pacing_event is not None:
            self.sim.cancel(self._pacing_event)
            self._pacing_event = None
        self.device.unregister_flow(self.flow_id)
        try:
            self.device.on_channel_transition_hooks.remove(self._on_channel_transition)
        except ValueError:
            pass

    def audit_state(self) -> dict:
        """Internal state snapshot for the invariant monitor.

        Everything :mod:`repro.check` needs to assert the transport's
        conservation laws without reaching into private fields: sequence
        bounds, the per-loss-key flight ledger and its recomputation from
        the segment list, receive-side contiguity, and per key the
        controller's outputs and the RTO's envelope.
        """
        state = self._sb.audit()
        state.update(
            snd_una=self._snd_una,
            snd_nxt=self._snd_nxt,
            write_end=self._write_end,
            rcv_nxt=self._rcv_nxt,
            ooo_ranges=list(self._ooo_ranges),
            closed=self._closed,
            keys=[
                {
                    "cwnd_bytes": sub.cc.cwnd_bytes,
                    "pacing_rate_bps": sub.cc.pacing_rate_bps if self.pacing_enabled else None,
                    "rto": sub.rtt.rto,
                    "min_rto": sub.rtt.min_rto,
                    "max_rto": sub.rtt.max_rto,
                }
                for sub in self.subflows
            ],
            bytes_acked=self.stats.bytes_acked,
            bytes_sent=self.stats.bytes_sent,
        )
        return state

    # ==================================================================
    # Send side
    # ==================================================================
    def _head_message(self) -> OutgoingMessage:
        """The queued message covering ``_snd_nxt``.

        Messages tile the stream in the order they were queued and
        ``_snd_nxt`` only grows, so a cursor replaces the search.
        """
        messages = self._messages
        snd_nxt = self._snd_nxt
        for index in range(self._send_cursor, len(messages)):
            message = messages[index]
            if snd_nxt < message.end:
                self._send_cursor = index
                return message
        raise TransportError(f"flow {self.flow_id}: no message covers offset {snd_nxt}")

    def _carve_segment(self, message: OutgoingMessage, size: int, key: int) -> Segment:
        """Commit the next ``size`` unsent bytes as a segment under loss
        ``key``: ``_snd_nxt`` advances and the scoreboard files it.

        ``message`` is :meth:`_head_message` and ``size`` reaches at most
        its end (segments never straddle a message boundary). Called only
        for a send that will happen.
        """
        seq = self._snd_nxt
        end_seq = self._snd_nxt = seq + size
        # Positional: a keyword call costs three times as much.
        segment = Segment(
            seq, end_seq, self.sim.now, self._total_delivered, False, False, False, 0.0, None,
            message.message_id, message.priority, end_seq == message.end, message.start,
            message.end - message.start,
        )
        self._sb.append(segment, key)
        return segment

    def _make_packet(self, ptype: PacketType, payload: int = 0) -> Packet:
        return Packet(
            self.flow_id, ptype, payload, flow_priority=self.flow_priority, created_at=self.sim.now
        )

    def _data_packet(
        self, segment: Segment, retransmission: bool, channel_hint: Optional[int] = None
    ) -> Packet:
        """The DATA packet for ``segment``, carrying its message's tags.
        Positional (keyword matching doubles the cost) through ``sent_at``:
        CPython 3.11 never reuses a freed 20-tuple of arguments."""
        return Packet(
            self.flow_id, PacketType.DATA, segment.end_seq - segment.seq,
            DEFAULT_HEADER_BYTES, segment.seq, segment.end_seq, 0, (), retransmission,
            segment, segment.message_id, segment.message_priority, segment.message_last,
            segment.message_start, self.flow_priority, channel_hint,
            None, 1, None, self.sim.now, None,  # shim_seq .. sent_at
        )

    def _open_burst(self) -> None:
        """Start a send opportunity: read every controller's outputs once.
        ``on_sent`` moves neither (the contract tests/test_transport_cc.py
        holds every registered controller to), so one read serves every
        send of the burst."""
        pacing_enabled = self.pacing_enabled
        for sub in self.subflows:
            cc = sub.cc
            sub.cwnd = cc.cwnd_bytes
            sub.pacing = cc.pacing_rate_bps if pacing_enabled else None

    def _pacing_gate(self, sub: Subflow) -> bool:
        """True if ``sub`` must wait for its pacer; the one wake-up event
        sits at the earliest deadline any gated key has asked for."""
        now = self.sim.now
        wake = sub.next_send_time
        if sub.pacing is None or now >= wake:
            return False
        event = self._pacing_event
        if event is None:
            self._pacing_event = self.sim.schedule(wake - now, self._pacing_wakeup)
        elif wake < event.time:
            self._pacing_event = self.sim.reschedule(event, wake - now, self._pacing_wakeup)
        return True

    def _pacing_wakeup(self) -> None:
        self._pacing_event = None
        self._try_send()

    def _retransmit(self, segment: Segment, sub: Subflow) -> None:
        """Resend a lost segment on ``sub`` — under multipath, not
        necessarily the key it was lost on."""
        srtt = sub.rtt.srtt
        holdoff = srtt if srtt is not None else self.UNSAMPLED_SRTT
        self._sb.retransmit(segment, self.sim.now, holdoff, sub.key)
        self.stats.retransmissions += 1
        self._transmit(segment, sub, True)

    def _transmit(self, segment: Segment, sub: Subflow, retransmission: bool) -> None:
        now = self.sim.now
        size = segment.end_seq - segment.seq
        packet = self._data_packet(segment, retransmission, sub.channel)
        self.device.send(packet)
        segment.channel = packet.channel_index
        stats = self.stats
        stats.segments_sent += 1
        stats.bytes_sent += size
        pacing = sub.pacing
        if pacing is not None and pacing > 0:
            start = sub.next_send_time
            sub.next_send_time = (start if start > now else now) + (size + 40) * 8 / pacing
        sub.cc.on_sent(now, size, self._sb.flight[sub.key])
        self._arm_rto()

    def _place_repair(self, segment: Segment) -> Subflow:
        """The key a forced repair (RTO, recovery probe) goes out on: by
        default the one that carried it. Called after :meth:`_open_burst`."""
        return self.subflows[segment.key]

    def _fire_acked_messages(self) -> None:
        """Complete the messages ``_snd_una`` has passed (callers: an ACK
        that advanced it — nothing else can complete one)."""
        while self._next_message_index < len(self._messages):
            message = self._messages[self._next_message_index]
            if message.end > self._snd_una:
                break
            message.acked_at = self.sim.now
            if message.on_acked is not None:
                message.on_acked(message, self.sim.now)
            self._next_message_index += 1

    # ------------------------------------------------------------------
    # ACK processing → RTT + scoreboard, then the subclass's loss response
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
            # Forward progress proves the path carries data again; a backoff
            # accumulated during an outage must not throttle recovery (the
            # acked data may all be retransmissions, so Karn's rule would
            # never produce the sample that normally clears it).
            for sub in self.subflows:
                if sub.rtt.consecutive_timeouts:
                    sub.rtt.reset_backoff()
            self._total_delivered += newly_acked
            stats.bytes_acked = ack_seq
            stats.delivered_timeline.append((now, self._total_delivered))
        else:
            newly_acked = 0  # a duplicate, or stale: raced across channels

        newest = self._sb.ack(ack_seq, packet.sack)

        rtt_sample: Optional[float] = None
        delivery_rate: Optional[float] = None
        if newest is not None:
            # The sample belongs to the key that carried the segment.
            rtt_sample = now - newest.sent_at
            self.subflows[newest.key].rtt.on_sample(rtt_sample)
            if rtt_sample > 0:
                delivered = self._total_delivered - newest.delivered_at_send
                delivery_rate = delivered * 8.0 / rtt_sample
            stats.rtt_records.append(
                RttRecord(now, rtt_sample, newest.channel, packet.channel_index)
            )

        self._loss_response(now, packet, newly_acked, newest, rtt_sample, delivery_rate)
        if newly_acked:
            self._fire_acked_messages()
        self._arm_rto()
        self._try_send()

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        """Re-arm on outstanding data with the slowest key's RTO; disarm
        otherwise."""
        if self._snd_una < self._snd_nxt:
            rto = 0.0
            for sub in self.subflows:
                key_rto = sub.rtt.rto
                if key_rto > rto:
                    rto = key_rto
            deadline = self.sim.now + rto
            self._rto_deadline = deadline
            event = self._rto_event
            if event is None or event.cancelled:
                self._rto_event = self.sim.schedule(rto, self._on_rto)
            elif deadline < event.time:
                # The deadline moved *earlier* than the filed event (an
                # RTO shrink outrunning the clock — e.g. backoff reset
                # after a blackout). Only this rare case pays the
                # cancel+push; the common per-packet re-arm is the
                # deadline store above.
                self._rto_event = self.sim.reschedule(event, rto, self._on_rto)
        else:
            self._rto_deadline = None
            if self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self._closed or self._snd_una >= self._snd_nxt:
            return
        deadline = self._rto_deadline
        if deadline is not None and deadline > self.sim.now:
            # Re-armed lazily since this event was filed: the timeout
            # fires at exactly the deadline the eager idiom would have
            # used — sleep the remainder.
            self._rto_event = self.sim.schedule_at(deadline, self._on_rto)
            return
        self._on_timeout()

    def _on_timeout(self) -> None:
        """The timer waited out every key with data the peer has not
        reported; those keys time out."""
        sb = self._sb
        unsacked = [s for s in sb.segments if not s.sacked]
        keys = {segment.key for segment in unsacked}
        timed_out = [sub for sub in self.subflows if sub.key in keys]
        obs = self.obs
        if self.blackout_suppression and not self.device.any_channel_up():
            # Total blackout: the timeout measured the outage, not
            # congestion. Don't collapse cwnd, don't waste a retransmission
            # the device would drop anyway — just back the timer off and
            # wait for the channel-up signal to re-probe.
            self.stats.blackout_timeouts += 1
            self._blackout_suppressed = True
            for sub in timed_out:
                sub.rtt.on_timeout()
                if obs is not None:
                    # Probe the suppressed fire too: a run of timeout samples
                    # with growing RTO but flat cwnd is the blackout signature.
                    obs.on_timeout(self, sub)
            self._arm_rto()
            return
        self.stats.timeouts += 1
        now = self.sim.now
        for sub in timed_out:
            sub.rtt.on_timeout()
            sub.cc.on_timeout(now)
            if obs is not None:
                obs.on_timeout(self, sub)
        # RFC 5681 semantics: after an RTO the whole outstanding window is
        # presumed lost and the pipe empty. Without this, segments that died
        # in a channel outage (never SACKed, so never marked lost) keep
        # inflating flight above the collapsed cwnd and recovery
        # degenerates to one segment per backed-off RTO.
        for segment in unsacked:
            if not segment.lost:
                sb.mark_lost(segment)
        # Rebuild the retransmission queue in sequence order: the hole at
        # snd_una is what advances the cumulative ACK (and clears the
        # backoff), so it must go out first, whatever order losses were
        # declared in before the timeout.
        sb.retx_queue[:] = unsacked
        if unsacked:
            self._open_burst()
            first = sb.retx_queue.pop(0)
            self._retransmit(first, self._place_repair(first))
            self._try_send()
        else:
            self._arm_rto()

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
        for sub in self.subflows:
            sub.rtt.reset_backoff()
        if self._snd_una >= self._snd_nxt:
            self._arm_rto()
            return
        sb = self._sb
        first = sb.first_unsacked()
        if first is not None:
            self.stats.recovery_probes += 1
            if not first.lost:
                sb.mark_lost(first)
            if first in sb.retx_queue:
                sb.retx_queue.remove(first)
            self._open_burst()
            self._retransmit(first, self._place_repair(first))
        self._try_send()

    # ==================================================================
    # Receive side
    # ==================================================================
    def _on_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        ptype = packet.ptype
        if ptype == PacketType.DATA:
            self._on_data(packet)
        elif ptype == PacketType.ACK:
            self._on_ack(packet)
        elif ptype == PacketType.SYN:
            self._on_syn(packet)

    def _on_syn(self, packet: Packet) -> None:
        """No handshake by default: a SYN is ignored."""

    def _ack_channel(self, data_packet: Packet) -> Optional[int]:
        """The channel the ACK of ``data_packet`` returns on (``None``: the
        device's steering places it)."""
        return None

    def _on_data(self, packet: Packet) -> None:
        """Absorb one data packet, then ACK it: cumulative + selective."""
        self._established = True  # data implies the peer established
        self.stats.bytes_received += packet.payload_bytes
        self._receive(packet)
        ranges = self._ooo_ranges if self.sack_enabled else ()
        # Positional, as in :meth:`_data_packet`.
        self.device.send(
            Packet(
                self.flow_id, PacketType.ACK, self.ack_bytes, DEFAULT_HEADER_BYTES,
                packet.seq, 0, self._rcv_nxt,
                tuple(ranges[-MAX_SACK_RANGES:]) if ranges else (), False, None,
                packet.message_id, packet.message_priority, False, None,
                self.flow_priority, self._ack_channel(packet), None, 1, None, self.sim.now, None,
            )
        )

    def _receive(self, packet: Packet) -> None:
        """Reassemble one data packet and fire the messages it completes."""
        rcv_nxt = self._rcv_nxt
        if packet.end_seq <= rcv_nxt:
            # Pure duplicate. A message-end tag on it must not be recorded
            # again: segments never straddle a message, so that end was
            # recorded and fired when the prefix first reached it.
            return
        if packet.message_last and packet.message_id is not None:
            start = packet.message_start if packet.message_start is not None else 0
            self._message_ends[packet.end_seq] = (
                packet.message_id,
                packet.message_priority,
                start,
            )
        self._merge_range(packet.seq, packet.end_seq)
        # A message completes only when the contiguous prefix reaches its end.
        if self._message_ends and self._rcv_nxt > rcv_nxt:
            self._fire_completed_messages()

    def _merge_range(self, start: int, end: int) -> None:
        """Splice ``[start, end)`` (``end > _rcv_nxt``) into the receive state.

        ``_ooo_ranges`` stays sorted, disjoint and non-touching with every
        range strictly above ``_rcv_nxt``, so a packet's neighbours are
        found by bisection and the cost is what the packet changes: the
        ranges it reaches are replaced (or, in order, dropped) by one slice
        operation. 1-tuple keys order ``(x,)`` just below every ``(x, hi)``.
        """
        ranges = self._ooo_ranges
        if start <= self._rcv_nxt:
            # In order: the prefix advances to ``end`` and swallows every
            # held range starting at or below it. Non-touching ranges mean
            # only the last of them can reach past ``end``.
            if ranges and ranges[0][0] <= end:
                reached = bisect_left(ranges, (end + 1,))
                end = max(end, ranges[reached - 1][1])
                del ranges[:reached]
            self._rcv_nxt = end
            return
        # Out of order: [lo, hi) are the held ranges the packet overlaps or
        # touches; one merged range replaces them.
        lo = bisect_left(ranges, (start,))
        if lo and ranges[lo - 1][1] >= start:
            lo -= 1
            start = ranges[lo][0]
        hi = bisect_left(ranges, (end + 1,), lo)
        if hi > lo:
            end = max(end, ranges[hi - 1][1])
        ranges[lo:hi] = [(start, end)]

    def _fire_completed_messages(self) -> None:
        completed = [end for end in self._message_ends if end <= self._rcv_nxt]
        for end in sorted(completed):
            message_id, priority, start = self._message_ends.pop(end)
            if self.on_message is not None:
                self.on_message(MessageReceipt(message_id, priority, end - start, self.sim.now))
