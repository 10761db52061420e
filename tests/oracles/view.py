"""The host's channel view before liveness was a slot and fixed and traced
links shared one read path.

:class:`NaiveView` derives ``up`` from the channel's fault holds on every
read, takes a precomputed static path for rate and delay on a fixed link,
and goes through ``Link.current_rate()``/``current_delay()`` on a traced
one — the reference for :class:`repro.net.node.ChannelView`.
It registers nothing with the channel, so it can sit beside a real view on
the same link.
"""

from __future__ import annotations


class NaiveView:
    """Reference: every accessor as :class:`~repro.net.node.ChannelView`
    had it, two paths per read."""

    def __init__(self, channel, end):
        self._channel = channel
        out = channel.out_link(end)
        self._out = out
        self._static = out.spec.trace is None
        self._rate0 = out.spec.rate_bps
        self._delay0 = out.spec.delay
        self.index = channel.index
        self.name = channel.spec.name
        self.cost_per_byte = channel.spec.cost_per_byte
        self.reliable = channel.spec.reliable

    @property
    def up(self):
        return self._channel._down_refs == 0

    @property
    def rate_bps(self):
        out = self._out
        if self._static:
            rate = self._rate0 * out.rate_factor - out._background_bps
            return rate if rate > 0.0 else 0.0
        return out.current_rate()

    @property
    def base_delay(self):
        out = self._out
        if self._static:
            return self._delay0 + out.delay_offset
        return out.current_delay()

    @property
    def base_rtt(self):
        return self._channel.base_rtt()

    @property
    def capacity_bps(self):
        return self._out.capacity_bps()

    @property
    def loss_rate(self):
        return self._out.loss.long_run_rate

    def queueing_delay(self, extra_bytes=0):
        out = self._out
        if self._static:
            rate = self._rate0 * out.rate_factor - out._background_bps
        else:
            rate = out.current_rate()
        if rate <= 0:
            return float("inf")
        return (out.backlog_bytes + extra_bytes) * 8 / rate

    def estimated_delivery_delay(self, packet_bytes):
        out = self._out
        if self._static:
            rate = self._rate0 * out.rate_factor
            delay = self._delay0 + out.delay_offset
        else:
            rate = out.current_rate()
            delay = out.current_delay()
        if rate <= 0:
            return float("inf")
        return (out.backlog_bytes + packet_bytes) * 8 / rate + delay

    def delay_rate(self):
        return self.base_delay, self.rate_bps

    def delay_estimate(self, packet_bytes):
        return self.base_delay, self.estimated_delivery_delay(packet_bytes)

    def steering_read(self, packet_bytes):
        out = self._out
        if self._static:
            delay = self._delay0 + out.delay_offset
            gross = self._rate0 * out.rate_factor
            rate = gross - out._background_bps
        else:
            delay = out.current_delay()
            gross = rate = out.current_rate()
        bits = (out.backlog_bytes + packet_bytes) * 8
        loss = out.loss.long_run_rate
        if gross <= 0 or loss >= 1.0:
            risk = float("inf")
        else:
            risk = (bits / gross + delay) / (1.0 - loss)
        if rate <= 0:
            return delay, 0.0, risk, float("inf")
        return delay, rate, risk, bits / rate
