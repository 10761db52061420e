"""The endpoint core shared by :class:`Connection` and :class:`MultipathConnection`.

Everything about a reliable, message-aware endpoint that does not depend
on how many paths it sends over: the application message queue and segment
carving, the sender :class:`~repro.transport.scoreboard.Scoreboard`, the
receiver's reassembly and message completion, the lazy retransmission
timer and the pacer wake-up. Subclasses supply ``_try_send`` (what to send
next, and where), ``_on_packet`` and ``_on_timeout``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.transport.scoreboard import Scoreboard, Segment

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


class Endpoint:
    """Message queue, scoreboard, receiver and timers of one endpoint."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        mss: int,
        flow_priority: Optional[int],
        on_message: Optional[Callable[[MessageReceipt], None]],
        loss_keys: int,
    ) -> None:
        self.sim = sim
        self.device = device
        self.flow_id = flow_id
        self.mss = mss
        self.flow_priority = flow_priority
        self.on_message = on_message

        # --- send state ---
        self._write_end = 0
        self._snd_una = 0
        self._snd_nxt = 0
        self._sb = Scoreboard(mss, loss_keys)
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

        # --- receive state ---
        self._rcv_nxt = 0
        self._ooo_ranges: List[Tuple[int, int]] = []
        self._message_ends: Dict[int, Tuple[int, Optional[int], int]] = {}
        self._closed = False

        device.register_flow(flow_id, self._on_packet)

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
        """Stop timers and detach from the device."""
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

    def audit_state(self) -> dict:
        """Internal state snapshot for the invariant monitor.

        Everything :mod:`repro.check` needs to assert the transport's
        conservation laws without reaching into private fields: sequence
        bounds, the per-loss-key flight ledger and its recomputation from
        the segment list, and receive-side contiguity.
        """
        state = self._sb.audit()
        state.update(
            snd_una=self._snd_una,
            snd_nxt=self._snd_nxt,
            write_end=self._write_end,
            rcv_nxt=self._rcv_nxt,
            ooo_ranges=list(self._ooo_ranges),
            closed=self._closed,
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
        segment = Segment(
            seq, end_seq, self.sim.now, self._total_delivered,
            message_id=message.message_id, message_priority=message.priority,
            message_last=end_seq == message.end, message_start=message.start,
            message_size=message.end - message.start,
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
        """The DATA packet for ``segment``, carrying its message's tags."""
        return Packet(
            self.flow_id, PacketType.DATA, segment.end_seq - segment.seq,
            seq=segment.seq, end_seq=segment.end_seq,
            is_retransmission=retransmission, segment=segment,
            message_id=segment.message_id, message_priority=segment.message_priority,
            message_last=segment.message_last, message_start=segment.message_start,
            flow_priority=self.flow_priority, channel_hint=channel_hint,
            created_at=self.sim.now,
        )

    def _pacing_wakeup(self) -> None:
        self._pacing_event = None
        self._try_send()

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
    # Retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self, rto: float) -> None:
        """Re-arm on outstanding data with timeout ``rto``; disarm otherwise."""
        if self._snd_una < self._snd_nxt:
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

    # ==================================================================
    # Receive side
    # ==================================================================
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
