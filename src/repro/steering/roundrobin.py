"""Heterogeneity-blind multipath baseline.

This represents the "aggregate bandwidth, ignore channel properties" class
the paper criticizes: it sprays packets without asking what each channel is
good at, so a 2 Mbps URLLC link receives the same share of bulk traffic as
the 60 Mbps eMBB and congests.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer, up_views


class RoundRobinSteerer(Steerer):
    """Strict per-packet round robin over the up channels."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counter = 0

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = up_views(views)
        view = alive[self._counter % len(alive)]
        self._counter += 1
        return (view.index,)
