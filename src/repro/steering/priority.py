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

from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer, base_delay_of, highest_bandwidth, up_views
from repro.steering.dchannel import DChannelSteerer


class MessagePrioritySteerer(Steerer):
    """Priority ≤ cutoff → low-latency channel; others → high-bandwidth."""

    name = "priority"

    def __init__(self, cutoff: int = 0, fallback: Optional[Steerer] = None) -> None:
        self.cutoff = cutoff
        self.fallback = fallback if fallback is not None else DChannelSteerer()

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = up_views(views)
        if len(alive) == 1:
            return (alive[0].index,)
        if packet.message_priority is not None:
            ll = min(alive, key=base_delay_of)
            if packet.message_priority <= self.cutoff:
                return (ll.index,)
            # Low-priority messages must never displace priority traffic
            # from the scarce low-latency channel — they take the bulk
            # channel *by identity*, even while it is degraded (the whole
            # point: late high layers are dropped, the base layer stays
            # timely).
            others = [v for v in alive if v.index != ll.index]
            return (highest_bandwidth(others).index,)
        return self.fallback.choose(packet, views, now)
