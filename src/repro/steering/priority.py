"""Cross-layer message-priority steering (§3.3, Fig. 2's winner).

The application tags each message with a priority (0 = most important) and
the policy maps priorities to channels: priority ≤ ``cutoff`` rides the
low-latency channel, everything else the high-bandwidth channel. For the
paper's SVC video, layer 0 (decodable alone, required by all higher layers)
is priority 0 → URLLC; layers 1–2 are priorities 1–2 → eMBB.

Because the whole of a priority-0 *message* takes the stable low-latency
channel, the receiver gets it inside a narrow time bound even when eMBB
degrades — unlike DChannel, which treats each packet independently and
strands parts of layer 0 on the collapsing eMBB queue.

Untagged packets fall back to an inner policy (DChannel by default), so
mixing cross-layer and legacy flows works.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SteeringError
from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer
from repro.steering.dchannel import DChannelSteerer


class MessagePrioritySteerer(Steerer):
    """Priority ≤ cutoff → low-latency channel; others → high-bandwidth."""

    name = "priority"

    def __init__(self, cutoff: int = 0, fallback: Optional[Steerer] = None) -> None:
        self.cutoff = cutoff
        self.fallback = fallback if fallback is not None else DChannelSteerer()

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        priority = packet.message_priority
        bulk = priority is not None and priority > self.cutoff
        # One pass, one read per view: the low-latency view (the first minimum
        # of ``base_delay``) and, for bulk, the fastest and the next fastest.
        live = 0
        ll = hb = runner = None
        ll_delay, hb_rate, runner_rate = 0.0, -1.0, -1.0
        for view in views:
            if not view.up:
                continue
            live += 1
            if priority is None:
                ll = view
                continue
            if bulk:
                delay, rate = view.delay_rate()
                if rate > hb_rate:
                    hb, hb_rate, runner, runner_rate = view, rate, hb, hb_rate
                elif rate > runner_rate:
                    runner, runner_rate = view, rate
            else:
                delay = view.base_delay
            if ll is None or delay < ll_delay:
                ll, ll_delay = view, delay
        if live == 1:
            return (ll.index,)
        if not live:
            raise SteeringError("no channel is up")
        if priority is None:
            return self.fallback.choose(packet, views, now)
        # Bulk takes the fastest other channel *by identity*, even degraded:
        # late high layers are dropped, the base layer stays timely.
        return ((runner if hb is ll else hb).index,) if bulk else (ll.index,)
