"""DChannel's network-layer per-packet steering heuristic (§3.1).

DChannel (Sentosa et al., NSDI '23) steers each IP packet to whichever
channel is estimated to deliver it *sooner*, using only sender-local state:
per-channel queue backlog, serialization rate, and base delay. The *reward*
of the low-latency channel is the delivery-time saving; the *cost* is
implicit — once its shallow queue builds, its estimate loses and traffic
falls back to the high-bandwidth channel.

Control packets (pure ACKs, SYNs) are given a head start: DChannel found
much of its win comes from accelerating them, which is also what poisons
delay-based congestion control (Fig. 1).

The policy is deliberately application-blind: it never reads message or
flow tags. Its two cross-layer extensions live in
:mod:`repro.steering.priority` and :mod:`repro.steering.flow_priority`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.net.node import ChannelView
from repro.net.packet import Packet, PacketType
from repro.steering.base import ChannelHealth, Steerer


class DChannelSteerer(Steerer):
    """Reward/cost per-packet steering between an LL and an HB channel.

    A packet is steered to the low-latency channel only when

    1. **reward** — its delivery-delay estimate there beats the
       high-bandwidth channel's by ``savings_threshold``, and
    2. **cost** — the LL queue it would join is still "paying for itself":
       queueing there must not exceed ``queue_cap_factor ×`` the base-delay
       gap between the channels. Without this bound a greedy comparison
       chases the HB channel's bloated buffer and dumps *bulk* traffic onto
       the narrow channel, which is precisely what DChannel's cost term
       prevents — the LL channel accelerates packets, it does not add
       meaningful bandwidth.

    Control packets get a more generous cap (``control_cap_factor``):
    DChannel's gains come substantially from accelerating ACKs and other
    small control messages.

    Resilience: channel failures steer around immediately (a down channel
    is never chosen) while *failback* is damped — a channel that just
    recovered is distrusted for ``hysteresis`` seconds so a flapping link
    cannot whipsaw the flow (:class:`~repro.steering.base.ChannelHealth`).
    Delivery estimates are loss-inflated
    (:func:`~repro.steering.base.risk_adjusted_delay`), so a loss burst
    prices a channel out of the reward comparison rather than poisoning the
    flow's tail.
    """

    name = "dchannel"

    def __init__(
        self,
        savings_threshold: float = 0.0,
        accelerate_control: bool = True,
        queue_cap_factor: float = 1.0,
        control_cap_factor: float = 3.0,
        hysteresis: float = 0.5,
    ) -> None:
        if savings_threshold < 0:
            raise ValueError(f"savings_threshold must be >= 0, got {savings_threshold}")
        if queue_cap_factor <= 0 or control_cap_factor <= 0:
            raise ValueError("queue cap factors must be positive")
        self.savings_threshold = savings_threshold
        self.accelerate_control = accelerate_control
        self.queue_cap_factor = queue_cap_factor
        self.control_cap_factor = control_cap_factor
        self.health = ChannelHealth(hysteresis=hysteresis)
        #: flow → estimated arrival time of its newest HB-routed DATA packet.
        #: Reliable streams are delivered in order (the receiving shim
        #: resequences), so steering a DATA packet to the LL channel while
        #: same-flow predecessors sit in the HB queue buys nothing — it will
        #: be held on arrival. DChannel's reward therefore discounts the LL
        #: delivery time by the predecessors' arrival estimate.
        self._hb_arrival: Dict[int, float] = {}

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = self.health.usable(views, now)
        if len(alive) == 1:
            return (alive[0].index,)
        # One fused read per view: (base delay, rate, risk-adjusted
        # delivery delay, queueing delay) for this packet.
        size = packet.size_bytes
        reads = []
        # Latency role: the first view with the smallest base delay
        # (matching ``lowest_latency`` on ties).
        ll = ll_read = None
        for view in alive:
            read = view.steering_read(size)
            reads.append(read)
            if ll is None or read[0] < ll_read[0]:
                ll, ll_read = view, read
        # The bandwidth role goes to the highest-rate remaining channel.
        # Choosing it by instantaneous delay instead is a myopic trap with
        # 3+ channels: an idle narrow path (e.g. LEO) out-bids the fat one
        # until its queue builds, pinning bulk to the wrong channel while
        # the fat pipe idles. (With two channels the two rules coincide —
        # DChannel itself is a two-channel design, §4.)
        hb = hb_read = None
        hb_rate = -1.0
        at = 0
        for view in alive:
            read = reads[at]
            at += 1
            if view is not ll and read[1] > hb_rate:
                hb, hb_read, hb_rate = view, read, read[1]
        ll_delay, _, d_ll, ll_queueing = ll_read
        hb_delay, _, d_hb, _ = hb_read

        base_gap = hb_delay - ll_delay if hb_delay > ll_delay else 0.0
        is_control = packet.is_control and self.accelerate_control
        cap = base_gap * (
            self.control_cap_factor if is_control else self.queue_cap_factor
        )
        ll_affordable = ll_queueing <= cap

        if is_control:
            return (ll.index,) if d_ll <= d_hb and ll_affordable else (hb.index,)

        effective_ll = d_ll
        if packet.ptype == PacketType.DATA:
            # In-order stream: effective LL delivery waits for predecessors.
            hold_until = self._hb_arrival.get(packet.flow_id)
            if hold_until is not None and hold_until - now > d_ll:
                effective_ll = hold_until - now
        if effective_ll + self.savings_threshold < d_hb and ll_affordable:
            return (ll.index,)
        if packet.ptype == PacketType.DATA:
            previous = self._hb_arrival.get(packet.flow_id, 0.0)
            arrival = now + d_hb  # ``max()`` as a conditional: no call per packet
            self._hb_arrival[packet.flow_id] = arrival if arrival > previous else previous
        return (hb.index,)
