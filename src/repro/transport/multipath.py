"""Multipath transport with per-channel subflows (the paper's §4 design).

This is the MPQUIC-shaped endpoint the paper sketches as the natural home
for HVC awareness: one connection, one data-level sequence space, but a
**subflow per channel**, each with its own congestion controller and RTT
estimator. Because every subflow's packets stay on one channel, RTT samples
are never bimodal — the Fig. 1 pathology cannot arise by construction.

Segment placement is a pluggable *scheduler*:

* ``"minrtt"`` — MPTCP's default: the lowest-smoothed-RTT subflow with
  congestion window space (bandwidth aggregation, heterogeneity-blind).
* ``"hvc"`` — the paper's: bulk data fills the high-bandwidth subflow;
  the low-latency subflow is reserved for message tails, small messages
  and loss repair, so it accelerates exactly the bytes an application is
  blocked on. ACKs always return on the low-latency channel.

Reliability is data-level (like MPTCP's DSN space): a segment lost on one
subflow may be *reinjected* on another.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.node import Device
from repro.net.packet import Packet, PacketType
from repro.obs.probes import probe_for
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample, CongestionControl
from repro.transport.endpoint import MAX_SACK_RANGES, Endpoint, MessageReceipt, RttRecord
from repro.transport.rtx import RttEstimator
from repro.transport.scoreboard import Segment
from repro.units import DEFAULT_HEADER_BYTES, DEFAULT_MSS

#: Messages at most this large count as latency-bound for the hvc scheduler.
SMALL_MESSAGE_BYTES = 3000

SCHEDULERS = ("minrtt", "hvc")

#: ``(live, ll, hb)``, see :meth:`MultipathConnection._roles`.
Roles = Tuple[List["Subflow"], "Subflow", "Subflow"]


def _urgent(segment: Segment) -> bool:
    """Is an already-carved segment one the application is blocked on:
    loss repair, a message tail, or part of a small message?"""
    return segment.retransmitted or segment.message_last or (
        segment.message_size is not None
        and segment.message_size <= SMALL_MESSAGE_BYTES
    )


class Subflow:
    """Per-channel sending state: CC, RTT estimator, and ``in_flight``, the
    scoreboard's flight ledger for this subflow's loss key (its channel)."""

    def __init__(
        self, channel_index: int, cc: CongestionControl, min_rto: float, flight: List[int]
    ) -> None:
        self.channel_index = channel_index
        self.cc = cc
        self.rtt = RttEstimator(min_rto=min_rto)
        self._flight = flight
        self.next_send_time = 0.0
        #: ``cc.cwnd_bytes`` / ``cc.pacing_rate_bps`` as read for the
        #: current send burst (:meth:`MultipathConnection._open_burst`);
        #: stale between bursts — everything else reads ``cc``.
        self.cwnd = 0.0
        self.pacing: Optional[float] = None

    @property
    def in_flight(self) -> int:
        return self._flight[self.channel_index]

    @property
    def srtt(self) -> float:
        return self.rtt.srtt if self.rtt.srtt is not None else 0.05

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Subflow ch={self.channel_index} cwnd={self.cc.cwnd_bytes:.0f} "
            f"inflight={self.in_flight}>"
        )


class MultipathConnection(Endpoint):
    """One endpoint of a multipath connection (one subflow per channel)."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        flow_id: int,
        cc: str = "cubic",
        scheduler: str = "hvc",
        mss: int = DEFAULT_MSS,
        min_rto: float = 0.2,
        flow_priority: Optional[int] = None,
        on_message: Optional[Callable[[MessageReceipt], None]] = None,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise TransportError(
                f"unknown scheduler {scheduler!r}; known: {', '.join(SCHEDULERS)}"
            )
        if not device.channels:
            raise TransportError("device has no channels; attach before opening")
        # One loss key per channel: loss is judged per subflow and flight
        # booked to the subflow carrying the segment.
        super().__init__(
            sim, device, flow_id, mss, flow_priority, on_message,
            loss_keys=len(device.channels),
        )
        self.scheduler = scheduler
        #: Indexed by channel, which is also the segment's loss key.
        self.subflows: List[Subflow] = [
            Subflow(i, make_cc(cc, mss=mss), min_rto, self._sb.flight)
            for i in range(len(device.channels))
        ]
        self.stats_rtt_records: List[RttRecord] = []
        self.delivered_timeline: List[Tuple[float, int]] = []
        self.retransmissions = 0
        self.timeouts = 0
        #: Transport probe (:class:`repro.obs.MultipathProbe`): one
        #: cwnd/srtt/inflight/RTO series per subflow when the device is
        #: wired into an observability context with probes enabled.
        self.obs = probe_for(device, flow_id, multipath=True)

    @property
    def bytes_acked(self) -> int:
        return self._snd_una

    # ------------------------------------------------------------------
    # Channel roles
    # ------------------------------------------------------------------
    def _roles(self) -> Roles:
        """``(live, ll, hb)``: the subflows whose channel is administratively
        up (all of them, if none is) and, of those, the one on the
        lowest-base-delay and the one on the highest-rate channel (the
        first, on a tie).

        Computed once per send opportunity and never kept across events, so
        a channel flap, a fault's delay offset or rate factor and a
        trace-driven rate change need no invalidation.
        """
        views = self.device.views
        live = [s for s in self.subflows if views[s.channel_index].up] or self.subflows
        ll = hb = None
        for subflow in live:
            view = views[subflow.channel_index]
            delay, rate = view.base_delay, view.rate_bps
            if ll is None or delay < ll_delay:
                ll, ll_delay = subflow, delay
            if hb is None or rate > hb_rate:
                hb, hb_rate = subflow, rate
        return live, ll, hb

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick(self, size: int, urgent: bool, roles: Roles) -> Optional[Subflow]:
        """The subflow to carry ``size`` more bytes now, or ``None`` to wait.

        Decided from what the head of the queue *would* be, so a segment is
        built only for a send that happens. ``urgent`` (see :func:`_urgent`)
        matters to the ``hvc`` scheduler only.
        """
        live, ll, hb = roles
        flight = self._sb.flight
        if self.scheduler == "minrtt":
            best = None
            best_srtt = 0.0
            for subflow in live:
                if flight[subflow.channel_index] + size <= subflow.cwnd:
                    srtt = subflow.srtt
                    if best is None or srtt < best_srtt:
                        best, best_srtt = subflow, srtt
            return best
        # The paper's scheduler: reserve the LL subflow for urgent bytes.
        if urgent and ll is not hb and flight[ll.channel_index] + size <= ll.cwnd:
            return ll
        if flight[hb.channel_index] + size <= hb.cwnd:
            return hb
        # HB full: bulk *waits*. Spilling bulk onto the low-latency subflow
        # would fill its queue and rob urgent segments of the acceleration —
        # the exact misuse of a narrow HVC the paper cautions against.
        return None

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _open_burst(self) -> Roles:
        """Start a send opportunity: read every controller's outputs once
        and return the channel roles. ``on_sent`` moves neither output
        (the contract tests/test_transport_cc.py holds every registered
        controller to), so one read serves every send of the burst."""
        for subflow in self.subflows:
            cc = subflow.cc
            subflow.cwnd = cc.cwnd_bytes
            subflow.pacing = cc.pacing_rate_bps
        return self._roles()

    def _try_send(self) -> None:
        retx_queue = self._sb.retx_queue
        if self._closed or not (retx_queue or self._write_end > self._snd_nxt):
            return
        roles = self._open_burst()
        mss = self.mss
        while True:
            if retx_queue:
                segment = retx_queue[0]
                if segment.sacked or segment.end_seq <= self._snd_una:
                    retx_queue.pop(0)
                    continue
                subflow = self._pick(segment.end_seq - segment.seq, _urgent(segment), roles)
                if subflow is None or self._pacing_gate(subflow):
                    return
                retx_queue.pop(0)
                self._retransmit(segment, subflow)
                continue
            if self._write_end <= self._snd_nxt:
                return
            message = self._head_message()
            left = message.end - self._snd_nxt
            size = left if left < mss else mss
            urgent = size == left or message.end - message.start <= SMALL_MESSAGE_BYTES
            subflow = self._pick(size, urgent, roles)
            if subflow is None or self._pacing_gate(subflow):
                return
            segment = self._carve_segment(message, size, subflow.channel_index)
            self._transmit(segment, subflow, retransmission=False)

    def _pacing_gate(self, subflow: Subflow) -> bool:
        """True if ``subflow`` must wait for its pacer; the one wake-up
        event sits at the earliest deadline any gated subflow has asked for."""
        now = self.sim.now
        wake = subflow.next_send_time
        if subflow.pacing is None or now >= wake:
            return False
        event = self._pacing_event
        if event is None:
            self._pacing_event = self.sim.schedule(wake - now, self._pacing_wakeup)
        elif wake < event.time:
            self._pacing_event = self.sim.reschedule(event, wake - now, self._pacing_wakeup)
        return True

    def _retransmit(self, segment: Segment, subflow: Subflow) -> None:
        """Resend on ``subflow`` — not necessarily the one it was lost on."""
        self._sb.retransmit(segment, self.sim.now, subflow.srtt, subflow.channel_index)
        self.retransmissions += 1
        self._transmit(segment, subflow, retransmission=True)

    def _transmit(self, segment: Segment, subflow: Subflow, retransmission: bool) -> None:
        now = self.sim.now
        channel = subflow.channel_index
        size = segment.end_seq - segment.seq
        self.device.send(self._data_packet(segment, retransmission, channel))
        segment.channel = channel
        pacing = subflow.pacing
        if pacing is not None and pacing > 0:
            start = subflow.next_send_time
            subflow.next_send_time = (start if start > now else now) + (size + 40) * 8 / pacing
        subflow.cc.on_sent(now, size, self._sb.flight[channel])
        self._arm_rto(self._rto())

    # ------------------------------------------------------------------
    # RTO (data-level: earliest outstanding segment, its subflow's RTO)
    # ------------------------------------------------------------------
    def _rto(self) -> float:
        """The one data-level timer waits out the slowest subflow's RTO."""
        rto = 0.0
        for subflow in self.subflows:
            if subflow.rtt.rto > rto:
                rto = subflow.rtt.rto
        return rto

    def _on_timeout(self) -> None:
        self.timeouts += 1
        sb = self._sb
        first = sb.first_unsacked()
        if first is None:
            self._arm_rto(self._rto())
            return
        carrier = self.subflows[first.key]
        carrier.rtt.on_timeout()
        carrier.cc.on_timeout(self.sim.now)
        if self.obs is not None:
            self.obs.on_subflow_timeout(self, carrier)
        if not first.lost:
            sb.mark_lost(first)
        if first in sb.retx_queue:
            sb.retx_queue.remove(first)
        # Reinject on whichever subflow the scheduler prefers now.
        subflow = self._pick(first.size, _urgent(first), self._open_burst()) or carrier
        self._retransmit(first, subflow)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        if packet.ptype == PacketType.DATA:
            self._on_data(packet)
        elif packet.ptype == PacketType.ACK:
            self._on_ack(packet)

    def _on_data(self, packet: Packet) -> None:
        self._receive(packet)
        # §3.2/§4: ACKs return on the LL channel — but only while it has
        # headroom. A 60 Mbps data flow generates ~3 Mbps of ACKs, which
        # would drown a 2 Mbps URLLC channel; past a small queueing bound
        # the ACK (one header on the wire) falls back to the data packet's
        # own channel.
        ll = self._roles()[1]
        view = self.device.views[ll.channel_index]
        if view.queueing_delay(DEFAULT_HEADER_BYTES) <= 2 * view.base_delay:
            hint = ll.channel_index
        else:
            hint = packet.channel_index
        ranges = self._ooo_ranges
        self.device.send(
            Packet(
                self.flow_id, PacketType.ACK, seq=packet.seq,
                ack_seq=self._rcv_nxt, sack=tuple(ranges[-MAX_SACK_RANGES:]) if ranges else (),
                flow_priority=self.flow_priority, channel_hint=hint, created_at=self.sim.now,
            )
        )

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        if ack_seq > self._snd_nxt:
            return
        now = self.sim.now
        sb = self._sb
        newly_acked = ack_seq - self._snd_una
        if newly_acked > 0:
            self._snd_una = ack_seq
            self._total_delivered += newly_acked
            self.delivered_timeline.append((now, self._total_delivered))
        else:
            newly_acked = 0
        newest = sb.ack(ack_seq, packet.sack)

        if newest is not None:
            subflow = self.subflows[newest.key]
            rtt_sample = now - newest.sent_at
            subflow.rtt.on_sample(rtt_sample)
            delivered = self._total_delivered - newest.delivered_at_send
            data_channel = newest.channel
            self.stats_rtt_records.append(
                RttRecord(now, rtt_sample, data_channel, packet.channel_index)
            )
            subflow.cc.on_ack(
                AckSample(
                    now, rtt_sample, newly_acked, sb.flight[newest.key],
                    delivered * 8.0 / rtt_sample if rtt_sample > 0 else None,
                    self._write_end == self._snd_nxt,  # app-limited: nothing left unsent
                    data_channel, packet.channel_index, self._total_delivered,
                )
            )
            if self.obs is not None:
                self.obs.on_subflow_ack(self, subflow)
        # A hole is lost only relative to later deliveries on its own
        # channel (the scoreboard's loss key); each subflow that lost
        # something takes one congestion response.
        newly_lost = sb.detect_losses(now, self._snd_una)
        if newly_lost:
            for channel in {segment.key for segment in newly_lost}:
                self.subflows[channel].cc.on_loss(now, sb.flight[channel])
        if newly_acked:
            self._fire_acked_messages()
        self._arm_rto(self._rto())
        self._try_send()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultipathConnection flow={self.flow_id} una={self._snd_una} "
            f"nxt={self._snd_nxt} scheduler={self.scheduler}>"
        )
