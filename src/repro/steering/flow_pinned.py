"""IANS / Socket-Intents-style flow-level network selection.

The paper's related work (Enghardt et al.'s Informed Access Network
Selection) chooses one access network *per content object or flow* and
sends everything on it. This policy reproduces that model as a baseline:
the first packet of each flow picks the channel with the best delivery
estimate at that instant, and the whole flow stays pinned there.

It "performs suboptimally as it only maps content to a single channel" —
a flow can never use URLLC for its ACKs while bulk rides eMBB, and an
unlucky pin at a bad instant persists for the flow's lifetime. The
baselines experiment quantifies exactly that gap against per-packet
steering.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer, up_views


class FlowPinnedSteerer(Steerer):
    """Pin each flow to the channel that looked best at its first packet."""

    name = "flow-pinned"

    def __init__(self) -> None:
        self._pins: Dict[int, int] = {}

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = up_views(views)
        pinned = self._pins.get(packet.flow_id)
        if pinned is not None and any(v.index == pinned and v.up for v in views):
            return (pinned,)
        best = min(
            alive, key=lambda v: v.estimated_delivery_delay(packet.size_bytes)
        )
        self._pins[packet.flow_id] = best.index
        return (best.index,)
