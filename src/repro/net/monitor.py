"""Periodic channel monitoring: utilization, backlog and delay time series.

Experiments attach a :class:`ChannelMonitor` to sample every channel at a
fixed period; the resulting series drive per-channel plots (e.g. "how much
of URLLC did the background flows eat") and the utilization numbers in
EXPERIMENTS.md.

The monitor is rebased on :mod:`repro.obs`: pass an
:class:`~repro.obs.Observability` context and every sample also updates the
per-channel gauges in its metrics registry and (when tracing is enabled)
appends a ``channel`` trace record, so ``repro obs summarize`` can rebuild
these exact series from an exported trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.channel import Channel
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer


@dataclass(slots=True)
class ChannelSample:
    """One instantaneous observation of one channel.

    ``up_rate_bps``/``down_rate_bps`` record the *raw capacity*
    (:meth:`~repro.net.link.Link.capacity_bps`) rather than the
    background-reduced packet rate, so utilization stays a fraction of
    the physical link. The ``*_background_*`` fields record what the
    fleet fluid engine consumed; they are 0 outside fleet mode.
    """

    time: float
    up_backlog_bytes: int
    down_backlog_bytes: int
    up_delivered_bytes: int
    down_delivered_bytes: int
    up_rate_bps: float
    down_rate_bps: float
    base_rtt: float
    #: Cumulative bytes the fluid background charged to each direction.
    up_background_bytes: int = 0
    down_background_bytes: int = 0
    #: Instantaneous aggregate background rate on each direction.
    up_background_bps: float = 0.0
    down_background_bps: float = 0.0


@dataclass
class ChannelSeries:
    """All samples for one channel plus derived summaries."""

    name: str
    samples: List[ChannelSample] = field(default_factory=list)
    #: Incremented whenever :meth:`utilization` had to clamp a >1.0 value
    #: (the capacity integral under-resolved a rate change mid-interval).
    clamp_warnings: int = 0

    def utilization(self, direction: str = "down") -> float:
        """Mean fraction of capacity carried between first and last sample.

        Capacity is integrated across each sampling interval (trapezoid of
        the rates observed at the interval's endpoints), so a trace-driven
        channel whose rate rises mid-interval is credited with the capacity
        it actually had rather than the stale rate at the interval's start.
        The result is clamped to 1.0; clamping bumps :attr:`clamp_warnings`
        because it means the sampling period under-resolved the rate trace.
        """
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        if len(self.samples) < 2:
            return 0.0
        used = 0.0
        possible = 0.0
        for prev, curr in zip(self.samples, self.samples[1:]):
            dt = curr.time - prev.time
            if dt <= 0:
                continue
            if direction == "down":
                used += (curr.down_delivered_bytes - prev.down_delivered_bytes) * 8
                used += (curr.down_background_bytes - prev.down_background_bytes) * 8
                possible += 0.5 * (prev.down_rate_bps + curr.down_rate_bps) * dt
            else:
                used += (curr.up_delivered_bytes - prev.up_delivered_bytes) * 8
                used += (curr.up_background_bytes - prev.up_background_bytes) * 8
                possible += 0.5 * (prev.up_rate_bps + curr.up_rate_bps) * dt
        if possible <= 0:
            return 0.0
        value = used / possible
        if value > 1.0:
            self.clamp_warnings += 1
            value = 1.0
        return value


class ChannelMonitor:
    """Samples a set of channels on a fixed period.

    With ``obs`` given, each sample also sets the registry gauges
    ``channel.backlog_bytes`` / ``channel.rate_bps`` (labelled by channel
    and direction) and, when tracing is on, emits one ``channel`` trace
    record carrying the full :class:`ChannelSample` payload.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: Sequence[Channel],
        period: float = 0.1,
        obs=None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.channels = list(channels)
        self.obs = obs
        self.series: Dict[str, ChannelSeries] = {
            channel.name: ChannelSeries(name=channel.name) for channel in self.channels
        }
        self._gauges: Dict[tuple, object] = {}
        if obs is not None:
            for channel in self.channels:
                for direction in ("up", "down"):
                    labels = {"channel": channel.name, "direction": direction}
                    self._gauges[(channel.name, direction, "backlog")] = (
                        obs.registry.gauge("channel.backlog_bytes", **labels)
                    )
                    self._gauges[(channel.name, direction, "rate")] = (
                        obs.registry.gauge("channel.rate_bps", **labels)
                    )
                    self._gauges[(channel.name, direction, "background")] = (
                        obs.registry.gauge("channel.background_bps", **labels)
                    )
        self._timer = PeriodicTimer(sim, period, self._sample, start_delay=0.0)

    def _sample(self) -> None:
        obs = self.obs
        for channel in self.channels:
            up = channel.uplink
            down = channel.downlink
            sample = ChannelSample(
                time=self.sim.now,
                up_backlog_bytes=up.backlog_bytes,
                down_backlog_bytes=down.backlog_bytes,
                up_delivered_bytes=up.stats.bytes_delivered,
                down_delivered_bytes=down.stats.bytes_delivered,
                up_rate_bps=up.capacity_bps(),
                down_rate_bps=down.capacity_bps(),
                base_rtt=channel.base_rtt(),
                up_background_bytes=up.stats.background_bytes,
                down_background_bytes=down.stats.background_bytes,
                up_background_bps=up.background_bps,
                down_background_bps=down.background_bps,
            )
            self.series[channel.name].samples.append(sample)
            if obs is not None:
                name = channel.name
                self._gauges[(name, "up", "backlog")].set(sample.up_backlog_bytes)
                self._gauges[(name, "down", "backlog")].set(sample.down_backlog_bytes)
                self._gauges[(name, "up", "rate")].set(sample.up_rate_bps)
                self._gauges[(name, "down", "rate")].set(sample.down_rate_bps)
                self._gauges[(name, "up", "background")].set(sample.up_background_bps)
                self._gauges[(name, "down", "background")].set(
                    sample.down_background_bps
                )
                if obs.trace is not None:
                    obs.trace.append(
                        {
                            "kind": "channel",
                            "time": sample.time,
                            "channel": name,
                            "up_backlog_bytes": sample.up_backlog_bytes,
                            "down_backlog_bytes": sample.down_backlog_bytes,
                            "up_delivered_bytes": sample.up_delivered_bytes,
                            "down_delivered_bytes": sample.down_delivered_bytes,
                            "up_rate_bps": sample.up_rate_bps,
                            "down_rate_bps": sample.down_rate_bps,
                            "base_rtt": sample.base_rtt,
                            "up_background_bytes": sample.up_background_bytes,
                            "down_background_bytes": sample.down_background_bytes,
                            "up_background_bps": sample.up_background_bps,
                            "down_background_bps": sample.down_background_bps,
                        }
                    )

    def stop(self) -> None:
        """Stop sampling (existing series remain readable)."""
        self._timer.stop()
