"""Flow-priority filtering (§3.3, Table 1's "DChannel w. priority").

The scarce low-latency channel is reserved for flows the application marked
important: packets whose ``flow_priority`` exceeds ``cutoff`` (background
log uploads, prefetches) are confined to the other channels, and everything
else is handled by the wrapped policy.

The paper shows as few as two background flows cost up to 138 ms of web PLT
by squatting on URLLC's ~2 Mbps; this one-line hint recovers it.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer, base_delay_of, up_views


class FlowPriorityFilter(Steerer):
    """Wrapper barring low-priority flows from the low-latency channel."""

    name = "flow-priority"

    def __init__(self, inner: Steerer, cutoff: int = 0) -> None:
        self.inner = inner
        self.cutoff = cutoff
        self.name = f"{inner.name}+flowprio"

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = up_views(views)
        if len(alive) == 1:
            return (alive[0].index,)
        if packet.flow_priority is not None and packet.flow_priority > self.cutoff:
            ll_index = min(alive, key=base_delay_of).index
            allowed = [v for v in alive if v.index != ll_index]
            if allowed:
                best = min(
                    allowed,
                    key=lambda v: v.estimated_delivery_delay(packet.size_bytes),
                )
                return (best.index,)
        return self.inner.choose(packet, views, now)
