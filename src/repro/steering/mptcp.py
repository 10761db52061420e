"""MPTCP-style path schedulers, adapted to per-packet steering.

These are the strongest *application-agnostic* prior art the paper cites:

* **minRTT** (default MPTCP scheduler): send on the path with the lowest
  current delay estimate that has capacity.
* **ECF** (Lim et al., CoNEXT '17): like minRTT, but refuse to put a packet
  on a slow path if waiting for the fast path to free up would deliver it
  sooner — the classic fix for head-of-line blocking over heterogeneous
  paths.

Both are approximated at packet granularity using the local-queue delay
estimates the views expose (the sender-side information a scheduler has).
Each verdict is one pass over the views: a view that is down is skipped,
every live one is estimated once, and ties go to the first view, as
``min()`` would break them.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SteeringError
from repro.net.node import ChannelView
from repro.net.packet import Packet
from repro.steering.base import Steerer


class MinRttSteerer(Steerer):
    """Pick the channel with the lowest estimated delivery delay.

    With an empty network this always prefers the low-latency channel; its
    queue then grows until the estimate crosses the other channel's — i.e.
    the policy load-balances on delay, indifferent to what the traffic is.
    """

    name = "min-rtt"

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        size = packet.size_bytes
        best, best_delay = None, 0.0
        for view in views:
            if view.up:
                delay = view.estimated_delivery_delay(size)
                if best is None or delay < best_delay:
                    best, best_delay = view, delay
        if best is None:
            raise SteeringError("no channel is up")
        return (best.index,)


class EcfSteerer(Steerer):
    """Earliest-Completion-First-style scheduling, per-packet approximation.

    ECF's insight: when the *fast* path is momentarily busy, shunting data
    onto the slow path often finishes *later* than simply waiting for the
    fast path, so the slow path should only be used when it wins by a clear
    margin. At packet granularity we express that as a bias: the slow
    candidate must beat waiting-for-fast by factor ``beta`` (>1) before the
    packet leaves the fast channel.
    """

    name = "ecf"

    def __init__(self, beta: float = 1.5) -> None:
        if beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {beta}")
        self.beta = beta

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        size = packet.size_bytes
        fastest = best = None
        fastest_base = wait_for_fast = best_delay = 0.0
        for view in views:
            if not view.up:
                continue
            base, delay = view.delay_estimate(size)
            if fastest is None or base < fastest_base:
                fastest, fastest_base, wait_for_fast = view, base, delay
            if best is None or delay < best_delay:
                best, best_delay = view, delay
        if fastest is None:
            raise SteeringError("no channel is up")
        # ``best`` (first minimum of the estimate) is the best view other
        # than ``fastest``, or ``fastest`` itself, which cannot beat its own
        # estimate by ``beta >= 1``; then no other view can either.
        if best_delay * self.beta < wait_for_fast:
            return (best.index,)
        return (fastest.index,)
