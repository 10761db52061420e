"""Steering policy interface and shared helpers.

A policy receives the packet (with whatever cross-layer tags the sender
attached), the host's per-channel views, and the current time, and returns
the channel indices to transmit on — usually one; several for replication.

The view list is the policy's *entire* knowledge of the network, mirroring
what a deployable shim could observe: local queue backlogs plus advertised
channel characteristics. Policies must tolerate untagged packets.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence

from repro.errors import SteeringError
from repro.net.node import ChannelView
from repro.net.packet import Packet


class ChannelHealth:
    """Sender-local channel up/down tracking with re-up hysteresis.

    A deployable shim observes channel state only at packet times, so this
    tracker infers transitions from successive ``choose()`` calls. Its job
    is *failback hysteresis*: a channel that just recovered from an outage
    is not trusted again until it has stayed up for ``hysteresis`` seconds,
    which keeps a flapping channel from whipsawing traffic (and delay-based
    CC state) on every blip. Failover in the other direction is immediate —
    a down channel is never usable.
    """

    def __init__(self, hysteresis: float = 0.5) -> None:
        if hysteresis < 0:
            raise SteeringError(f"hysteresis must be >= 0, got {hysteresis}")
        self.hysteresis = hysteresis
        self._was_up: Dict[int, bool] = {}
        self._reup_at: Dict[int, float] = {}
        #: Observed up/down transitions (both directions), for inspection.
        self.transitions = 0

    def usable(self, views: Sequence[ChannelView], now: float) -> Sequence[ChannelView]:
        """Trusted channels, falling back to merely-up ones, else error.

        The fallback keeps the policy total: when *every* surviving channel
        is inside its hysteresis window, refusing to send would be worse
        than trusting early.

        Fused single pass over the views (transition tracking + liveness +
        trust) — this runs once per steered packet, so the one ``view.up``
        read per view matters.
        """
        was_up = self._was_up
        reup_at = self._reup_at
        if not reup_at:
            # Steady state: no failback is inside its window, so every view
            # that is up and was last seen up is trusted — ``views`` is the
            # answer.
            for view in views:
                if not (view.up and was_up.get(view.index)):
                    break
            else:
                if views:
                    return views
        hysteresis = self.hysteresis
        alive: List[ChannelView] = []
        trusted: List[ChannelView] = []
        for view in views:
            up = view.up
            index = view.index
            previous = was_up.get(index)
            if previous is None:
                was_up[index] = up
            elif up != previous:
                was_up[index] = up
                self.transitions += 1
                if up:
                    reup_at[index] = now
            if up:
                alive.append(view)
                at = reup_at.get(index)
                if at is None:
                    trusted.append(view)
                elif now - at >= hysteresis:
                    # Window served. ``now`` is monotone and a new failback
                    # rewrites the entry, so forgetting it changes no
                    # verdict and lets the steady-state path above resume.
                    del reup_at[index]
                    trusted.append(view)
        if not alive:
            raise SteeringError("no channel is up")
        return trusted if trusted else alive


class Steerer:
    """Base class for steering policies."""

    name = "base"

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        """Return the channel index/indices for ``packet``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


def up_views(views: Sequence[ChannelView]) -> List[ChannelView]:
    """Only the up channels; error when none remain."""
    alive = [view for view in views if view.up]
    if not alive:
        raise SteeringError("no channel is up")
    return alive


def lowest_latency(views: Sequence[ChannelView]) -> ChannelView:
    """The channel with the smallest base (propagation) delay."""
    return min(up_views(views), key=attrgetter("base_delay"))


def highest_bandwidth(views: Sequence[ChannelView]) -> ChannelView:
    """The channel with the highest current rate."""
    return max(up_views(views), key=lambda v: v.rate_bps)


def best_delivery(views: Sequence[ChannelView], size_bytes: int) -> ChannelView:
    """The channel minimizing the one-way delivery-delay estimate."""
    return min(
        up_views(views), key=lambda v: v.estimated_delivery_delay(size_bytes)
    )


def risk_adjusted_delay(view: ChannelView, size_bytes: int) -> float:
    """Delivery-delay estimate inflated by the channel's current loss rate.

    ``delay / (1 - loss)`` is the expected delay counting geometric
    retransmission attempts — the outage-aware cost term: a channel inside
    a loss burst (whose :class:`~repro.faults.FaultLossOverlay` raises its
    advertised ``loss_rate``) prices itself out of the comparison instead
    of silently eating the flow's tail latency.
    """
    delay = view.estimated_delivery_delay(size_bytes)
    loss = view.loss_rate
    if loss >= 1.0:
        return float("inf")
    return delay / (1.0 - loss)
