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

from repro.errors import SteeringError
from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer


class FlowPriorityFilter(Steerer):
    """Wrapper barring low-priority flows from the low-latency channel."""

    name = "flow-priority"

    def __init__(self, inner: Steerer, cutoff: int = 0) -> None:
        self.inner = inner
        self.cutoff = cutoff
        self.name = f"{inner.name}+flowprio"

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        priority = packet.flow_priority
        background = priority is not None and priority > self.cutoff
        size = packet.size_bytes
        # One pass: for a background flow, the low-latency view (the first
        # minimum of ``base_delay``) and the best and next best estimate,
        # each view read once (its delay and estimate together).
        live = 0
        ll = best = runner = None
        ll_delay = best_delay = runner_delay = 0.0
        for view in views:
            if not view.up:
                continue
            live += 1
            if not background:
                ll = view
                continue
            delay, estimate = view.delay_estimate(size)
            if ll is None or delay < ll_delay:
                ll, ll_delay = view, delay
            if best is None or estimate < best_delay:
                best, best_delay, runner, runner_delay = view, estimate, best, best_delay
            elif runner is None or estimate < runner_delay:
                runner, runner_delay = view, estimate
        if live == 1:
            return (ll.index,)
        if not live:
            raise SteeringError("no channel is up")
        if background:
            return ((runner if best is ll else best).index,)
        return self.inner.choose(packet, views, now)
