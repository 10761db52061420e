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
from repro.units import DEFAULT_MSS

#: Messages at most this large count as latency-bound for the hvc scheduler.
SMALL_MESSAGE_BYTES = 3000

SCHEDULERS = ("minrtt", "hvc")


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

    @property
    def in_flight(self) -> int:
        return self._flight[self.channel_index]

    def has_window(self, size: int) -> bool:
        return self.in_flight + size <= self.cc.cwnd_bytes

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
    def _live_subflows(self) -> List[Subflow]:
        """Subflows whose channel is administratively up (all, if none are)."""
        live = [
            s for s in self.subflows if self.device.views[s.channel_index].up
        ]
        return live if live else list(self.subflows)

    def _ll_subflow(self, live: List[Subflow]) -> Subflow:
        """The subflow of ``live`` on the lowest-base-delay channel."""
        return min(
            live,
            key=lambda s: self.device.views[s.channel_index].base_delay,
        )

    def _hb_subflow(self, live: List[Subflow]) -> Subflow:
        """The subflow of ``live`` on the highest-rate channel."""
        return max(
            live,
            key=lambda s: self.device.views[s.channel_index].rate_bps,
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick_subflow(self, segment: Segment) -> Optional[Subflow]:
        if self.scheduler == "minrtt":
            candidates = [
                s for s in self._live_subflows() if s.has_window(segment.size)
            ]
            if not candidates:
                return None
            return min(candidates, key=lambda s: s.srtt)
        return self._pick_hvc(segment)

    def _pick_hvc(self, segment: Segment) -> Optional[Subflow]:
        """The paper's scheduler: reserve the LL subflow for urgent bytes."""
        # One live list per pick; never kept across events, so a channel
        # flap or a trace-driven rate change needs no invalidation.
        live = self._live_subflows()
        ll = self._ll_subflow(live)
        hb = self._hb_subflow(live)
        urgent = segment.retransmitted or segment.message_last or (
            segment.message_size is not None
            and segment.message_size <= SMALL_MESSAGE_BYTES
        )
        if urgent and ll is not hb and ll.has_window(segment.size):
            return ll
        if hb.has_window(segment.size):
            return hb
        # HB full: bulk *waits*. Spilling bulk onto the low-latency subflow
        # would fill its queue and rob urgent segments of the acceleration —
        # the exact misuse of a narrow HVC the paper cautions against.
        return None

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if self._closed:
            return
        retx_queue = self._sb.retx_queue
        progress = True
        while progress:
            progress = False
            if retx_queue:
                segment = retx_queue[0]
                if segment.sacked or segment.end_seq <= self._snd_una:
                    retx_queue.pop(0)
                    progress = True
                    continue
                subflow = self._pick_subflow(segment)
                if subflow is not None and not self._pacing_gate(subflow):
                    retx_queue.pop(0)
                    self._retransmit(segment, subflow)
                    progress = True
                continue
            if self.bytes_unsent <= 0:
                return
            probe = self._carve_segment()
            subflow = self._pick_subflow(probe)
            if subflow is None or self._pacing_gate(subflow):
                return
            self._snd_nxt = probe.end_seq
            self._sb.append(probe, subflow.channel_index)
            self._transmit(probe, subflow, retransmission=False)
            progress = True

    def _pacing_gate(self, subflow: Subflow) -> bool:
        if subflow.cc.pacing_rate_bps is None or self.sim.now >= subflow.next_send_time:
            return False
        if self._pacing_event is None:
            self._pacing_event = self.sim.schedule(
                subflow.next_send_time - self.sim.now, self._pacing_wakeup
            )
        return True

    def _retransmit(self, segment: Segment, subflow: Subflow) -> None:
        """Resend on ``subflow`` — not necessarily the one it was lost on."""
        self._sb.retransmit(segment, self.sim.now, subflow.srtt, subflow.channel_index)
        self.retransmissions += 1
        self._transmit(segment, subflow, retransmission=True)

    def _transmit(self, segment: Segment, subflow: Subflow, retransmission: bool) -> None:
        packet = self._data_packet(segment, retransmission)
        packet.channel_hint = subflow.channel_index
        self.device.send(packet)
        segment.channel = subflow.channel_index
        pacing = subflow.cc.pacing_rate_bps
        if pacing is not None and pacing > 0:
            interval = (segment.size + 40) * 8 / pacing
            subflow.next_send_time = max(subflow.next_send_time, self.sim.now) + interval
        subflow.cc.on_sent(self.sim.now, segment.size, subflow.in_flight)
        self._arm_rto(self._rto())

    # ------------------------------------------------------------------
    # RTO (data-level: earliest outstanding segment, its subflow's RTO)
    # ------------------------------------------------------------------
    def _rto(self) -> float:
        """The one data-level timer waits out the slowest subflow's RTO."""
        return max(s.rtt.rto for s in self.subflows)

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
        subflow = self._pick_subflow(first) or carrier
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
        ack = self._make_packet(PacketType.ACK)
        ack.ack_seq = self._rcv_nxt
        ack.sack = tuple(self._ooo_ranges[-MAX_SACK_RANGES:])
        ack.seq = packet.seq
        # §3.2/§4: ACKs return on the LL channel — but only while it has
        # headroom. A 60 Mbps data flow generates ~3 Mbps of ACKs, which
        # would drown a 2 Mbps URLLC channel; past a small queueing bound
        # the ACK falls back to the data packet's own channel.
        ll = self._ll_subflow(self._live_subflows())
        view = self.device.views[ll.channel_index]
        if view.queueing_delay(ack.size_bytes) <= 2 * view.base_delay:
            ack.channel_hint = ll.channel_index
        elif packet.channel_index is not None:
            ack.channel_hint = packet.channel_index
        self.device.send(ack)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        if ack_seq > self._snd_nxt:
            return
        newly_acked = max(0, ack_seq - self._snd_una)
        if newly_acked:
            self._snd_una = ack_seq
            self._total_delivered += newly_acked
            self.delivered_timeline.append((self.sim.now, self._total_delivered))
        newest = self._sb.ack(ack_seq, packet.sack)

        if newest is not None:
            subflow = self.subflows[newest.key]
            rtt_sample = self.sim.now - newest.sent_at
            subflow.rtt.on_sample(rtt_sample)
            delivered = self._total_delivered - newest.delivered_at_send
            delivery_rate = delivered * 8.0 / rtt_sample if rtt_sample > 0 else None
            self.stats_rtt_records.append(
                RttRecord(
                    time=self.sim.now,
                    rtt=rtt_sample,
                    data_channel=newest.channel,
                    ack_channel=packet.channel_index,
                )
            )
            subflow.cc.on_ack(
                AckSample(
                    now=self.sim.now,
                    rtt=rtt_sample,
                    newly_acked=newly_acked,
                    in_flight=subflow.in_flight,
                    delivery_rate=delivery_rate,
                    app_limited=self.bytes_unsent == 0,
                    data_channel=newest.channel,
                    ack_channel=packet.channel_index,
                    total_delivered=self._total_delivered,
                )
            )
            if self.obs is not None:
                self.obs.on_subflow_ack(self, subflow)
        # A hole is lost only relative to later deliveries on its own
        # channel (the scoreboard's loss key); each subflow that lost
        # something takes one congestion response.
        newly_lost = self._sb.detect_losses(self.sim.now, self._snd_una)
        for channel in {segment.key for segment in newly_lost}:
            subflow = self.subflows[channel]
            subflow.cc.on_loss(self.sim.now, subflow.in_flight)
        self._fire_acked_messages()
        self._arm_rto(self._rto())
        self._try_send()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultipathConnection flow={self.flow_id} una={self._snd_una} "
            f"nxt={self._snd_nxt} scheduler={self.scheduler}>"
        )
