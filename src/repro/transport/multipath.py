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
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.transport.cc import make_cc
from repro.transport.cc.base import AckSample
from repro.transport.endpoint import Endpoint, MessageReceipt, Subflow
from repro.transport.scoreboard import Segment
from repro.units import DEFAULT_HEADER_BYTES, DEFAULT_MSS

#: Messages at most this large count as latency-bound for the hvc scheduler.
SMALL_MESSAGE_BYTES = 3000

SCHEDULERS = ("minrtt", "hvc")

#: ``(live, ll, hb)``, see :meth:`MultipathConnection._roles`.
Roles = Tuple[List[Subflow], Subflow, Subflow]


def _urgent(segment: Segment) -> bool:
    """Is an already-carved segment one the application is blocked on:
    loss repair, a message tail, or part of a small message?"""
    return segment.retransmitted or segment.message_last or (
        segment.message_size is not None
        and segment.message_size <= SMALL_MESSAGE_BYTES
    )


class MultipathConnection(Endpoint):
    """One endpoint of a multipath connection (one subflow per channel)."""

    UNSAMPLED_SRTT = 0.05
    # One loss key per channel: loss is judged per subflow and flight
    # booked to the subflow carrying the segment.
    KEYS_ARE_CHANNELS = True

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
        super().__init__(
            sim, device, flow_id, mss, flow_priority, on_message,
            [make_cc(cc, mss=mss) for _ in device.channels], min_rto,
        )
        self.scheduler = scheduler

    # ``benchmarks/ledger/workloads.py`` reads these three off the
    # connection; every other reader uses ``stats``.
    @property
    def retransmissions(self) -> int:
        return self.stats.retransmissions

    @property
    def timeouts(self) -> int:
        return self.stats.timeouts

    @property
    def delivered_timeline(self) -> List[Tuple[float, int]]:
        return self.stats.delivered_timeline

    # ------------------------------------------------------------------
    # Channel roles
    # ------------------------------------------------------------------
    def _roles(self) -> Roles:
        """``(live, ll, hb)``: the subflows whose channel is up (all of
        them, if none is) and, of those, the one on the lowest-base-delay
        and the one on the highest-rate channel (the first, on a tie).

        Computed once per send opportunity and never kept across events, so
        a channel flap, a fault's delay offset or rate factor and a
        trace-driven rate change need no invalidation.
        """
        views = self.device.views
        live = [s for s in self.subflows if views[s.key].up] or self.subflows
        ll = hb = None
        for subflow in live:
            view = views[subflow.key]
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
                if flight[subflow.key] + size <= subflow.cwnd:
                    srtt = subflow.rtt.srtt
                    if srtt is None:
                        srtt = self.UNSAMPLED_SRTT
                    if best is None or srtt < best_srtt:
                        best, best_srtt = subflow, srtt
            return best
        # The paper's scheduler: reserve the LL subflow for urgent bytes.
        if urgent and ll is not hb and flight[ll.key] + size <= ll.cwnd:
            return ll
        if flight[hb.key] + size <= hb.cwnd:
            return hb
        # HB full: bulk *waits*. Spilling bulk onto the low-latency subflow
        # would fill its queue and rob urgent segments of the acceleration —
        # the exact misuse of a narrow HVC the paper cautions against.
        return None

    def _place_repair(self, segment: Segment) -> Subflow:
        """Reinject on whichever subflow the scheduler prefers now; with no
        window anywhere, on the live low-latency one."""
        roles = self._roles()
        return self._pick(segment.end_seq - segment.seq, _urgent(segment), roles) or roles[1]

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        retx_queue = self._sb.retx_queue
        if self._closed or not (retx_queue or self._write_end > self._snd_nxt):
            return
        self._open_burst()
        roles = self._roles()
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
            segment = self._carve_segment(message, size, subflow.key)
            self._transmit(segment, subflow, False)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _ack_channel(self, data_packet: Packet) -> int:
        """§3.2/§4: ACKs return on the LL channel — but only while it has
        headroom. A 60 Mbps data flow generates ~3 Mbps of ACKs, which
        would drown a 2 Mbps URLLC channel; past a small queueing bound
        the ACK (one header on the wire) falls back to the data packet's
        own channel."""
        ll = self._roles()[1].key
        view = self.device.views[ll]
        if view.queueing_delay(DEFAULT_HEADER_BYTES) <= 2 * view.base_delay:
            return ll
        return data_packet.channel_index

    def _loss_response(
        self,
        now: float,
        packet: Packet,
        newly_acked: int,
        newest: Optional[Segment],
        rtt_sample: Optional[float],
        delivery_rate: Optional[float],
    ) -> None:
        """The carrying subflow's controller takes the ACK sample; a hole is
        lost only relative to later deliveries on its own channel (the
        scoreboard's loss key), and each subflow that lost something takes
        one congestion response."""
        sb = self._sb
        if newest is not None:
            subflow = self.subflows[newest.key]
            subflow.cc.on_ack(
                AckSample(
                    now, rtt_sample, newly_acked, sb.flight[newest.key], delivery_rate,
                    self._write_end == self._snd_nxt,  # app-limited: nothing left unsent
                    newest.channel, packet.channel_index, self._total_delivered,
                )
            )
            if self.obs is not None:
                self.obs.on_ack(self, subflow)
        newly_lost = sb.detect_losses(now, self._snd_una)
        if newly_lost:
            for channel in {segment.key for segment in newly_lost}:
                self.subflows[channel].cc.on_loss(now, sb.flight[channel])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultipathConnection flow={self.flow_id} una={self._snd_una} "
            f"nxt={self._snd_nxt} scheduler={self.scheduler}>"
        )
