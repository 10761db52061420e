"""The steering verdicts as they were before each was fused into one pass.

- :class:`NaiveMinRtt` and :class:`NaiveEcf`: ``min()`` over the list of up
  views with a key lambda, re-reading estimates as needed — the references
  for the single-pass :class:`repro.steering.mptcp.MinRttSteerer` and
  :class:`repro.steering.mptcp.EcfSteerer`;
- :class:`NaiveDChannel` on :class:`NaiveHealth`: every quantity through
  its own view accessor, on a health tracker that builds its alive and
  trusted lists on every call — the reference for
  :class:`repro.steering.dchannel.DChannelSteerer`'s fused read;
- :class:`NaivePriority` and :class:`NaiveFlowPriority`: the list of up
  views, ``min()`` of ``base_delay`` over it, then ``highest_bandwidth``
  or ``min()`` of the delivery estimate over a second list without the
  low-latency view — the references for the single-pass
  :class:`repro.steering.priority.MessagePrioritySteerer` and
  :class:`repro.steering.flow_priority.FlowPriorityFilter`.
"""

from __future__ import annotations

from repro.errors import SteeringError
from repro.net.packet import PacketType
from repro.steering.base import (
    ChannelHealth,
    Steerer,
    highest_bandwidth,
    risk_adjusted_delay,
    up_views,
)
from repro.steering.dchannel import DChannelSteerer
from repro.steering.flow_priority import FlowPriorityFilter
from repro.steering.mptcp import EcfSteerer
from repro.steering.priority import MessagePrioritySteerer


class NaiveMinRtt(Steerer):
    """Reference: ``min()`` of the delivery estimate over the up views."""

    name = "min-rtt"

    def choose(self, packet, views, now):
        alive = up_views(views)
        best = min(alive, key=lambda v: v.estimated_delivery_delay(packet.size_bytes))
        return (best.index,)


class NaiveEcf(EcfSteerer):
    """Reference: the fastest up view by base delay, the best other by
    estimate, each estimate re-read where it is compared."""

    def choose(self, packet, views, now):
        alive = up_views(views)
        fastest = min(alive, key=lambda v: v.base_delay)
        others = [v for v in alive if v.index != fastest.index]
        if not others:
            return (fastest.index,)
        best_other = min(
            others, key=lambda v: v.estimated_delivery_delay(packet.size_bytes)
        )
        wait_for_fast = fastest.estimated_delivery_delay(packet.size_bytes)
        alternative = best_other.estimated_delivery_delay(packet.size_bytes)
        if alternative * self.beta < wait_for_fast:
            return (best_other.index,)
        return (fastest.index,)


class NaiveHealth(ChannelHealth):
    """Reference: build the alive and trusted lists on every call."""

    def usable(self, views, now):
        was_up = self._was_up
        reup_at = self._reup_at
        hysteresis = self.hysteresis
        alive = []
        trusted = []
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
                if at is None or now - at >= hysteresis:
                    trusted.append(view)
        if not alive:
            raise SteeringError("no channel is up")
        return trusted if trusted else alive


class NaiveDChannel(DChannelSteerer):
    """Reference: every quantity through its own accessor."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.health = NaiveHealth(hysteresis=self.health.hysteresis)

    def choose(self, packet, views, now):
        alive = self.health.usable(views, now)
        if len(alive) == 1:
            return (alive[0].index,)
        ll = alive[0]
        ll_delay = ll.base_delay
        for view in alive[1:]:
            delay = view.base_delay
            if delay < ll_delay:
                ll, ll_delay = view, delay
        hb = None
        hb_rate = -1.0
        for view in alive:
            if view is ll:
                continue
            rate = view.rate_bps
            if rate > hb_rate:
                hb, hb_rate = view, rate

        d_ll = risk_adjusted_delay(ll, packet.size_bytes)
        d_hb = risk_adjusted_delay(hb, packet.size_bytes)
        base_gap = max(0.0, hb.base_delay - ll_delay)
        is_control = packet.is_control and self.accelerate_control
        cap = base_gap * (
            self.control_cap_factor if is_control else self.queue_cap_factor
        )
        ll_affordable = ll.queueing_delay(packet.size_bytes) <= cap

        if is_control:
            return (ll.index,) if d_ll <= d_hb and ll_affordable else (hb.index,)

        effective_ll = d_ll
        if packet.ptype == PacketType.DATA:
            hold_until = self._hb_arrival.get(packet.flow_id)
            if hold_until is not None:
                effective_ll = max(d_ll, hold_until - now)
        if effective_ll + self.savings_threshold < d_hb and ll_affordable:
            return (ll.index,)
        if packet.ptype == PacketType.DATA:
            previous = self._hb_arrival.get(packet.flow_id, 0.0)
            self._hb_arrival[packet.flow_id] = max(previous, now + d_hb)
        return (hb.index,)


class NaivePriority(MessagePrioritySteerer):
    """Reference: up views, ``min()`` by base delay, ``highest_bandwidth``."""

    def choose(self, packet, views, now):
        alive = up_views(views)
        if len(alive) == 1:
            return (alive[0].index,)
        if packet.message_priority is not None:
            ll = min(alive, key=lambda v: v.base_delay)
            if packet.message_priority <= self.cutoff:
                return (ll.index,)
            others = [v for v in alive if v.index != ll.index]
            return (highest_bandwidth(others).index,)
        return self.fallback.choose(packet, views, now)


class NaiveFlowPriority(FlowPriorityFilter):
    """Reference: up views, ``min()`` by base delay, ``min()`` by estimate
    over the rest."""

    def choose(self, packet, views, now):
        alive = up_views(views)
        if len(alive) == 1:
            return (alive[0].index,)
        if packet.flow_priority is not None and packet.flow_priority > self.cutoff:
            ll_index = min(alive, key=lambda v: v.base_delay).index
            allowed = [v for v in alive if v.index != ll_index]
            if allowed:
                best = min(
                    allowed,
                    key=lambda v: v.estimated_delivery_delay(packet.size_bytes),
                )
                return (best.index,)
        return self.inner.choose(packet, views, now)
