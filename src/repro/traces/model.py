"""Piecewise-constant network traces.

A :class:`NetworkTrace` maps simulation time to an instantaneous link rate
(bits/s) and one-way propagation delay (seconds). Links apply it at packet
granularity (the rate when serialization starts, the delay when it ends),
which is the same approximation Mahimahi's shells make at the millisecond
level; they fetch a whole sample step at a time (:meth:`step_at`) and reuse
it until the clock leaves the step.

Traces loop: queries past the last sample wrap around modulo the trace
duration, so a 120 s trace can drive an arbitrarily long experiment.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

from repro.core import metrics
from repro.errors import TraceError


class NetworkTrace:
    """Sampled (time, rate, delay) series with step interpolation."""

    def __init__(
        self,
        times: Sequence[float],
        rates_bps: Sequence[float],
        delays: Sequence[float],
        name: str = "trace",
    ) -> None:
        if not times:
            raise TraceError("trace must contain at least one sample")
        if not (len(times) == len(rates_bps) == len(delays)):
            raise TraceError(
                f"length mismatch: {len(times)} times, {len(rates_bps)} rates, "
                f"{len(delays)} delays"
            )
        if times[0] != 0.0:
            raise TraceError(f"trace must start at t=0, got {times[0]}")
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise TraceError(f"times must be strictly increasing at index {i}")
        for rate in rates_bps:
            if not math.isfinite(rate) or rate < 0:
                raise TraceError(f"rates must be finite and non-negative, got {rate}")
        for delay in delays:
            if not math.isfinite(delay) or delay < 0:
                raise TraceError(f"delays must be finite and non-negative, got {delay}")
        self.times: List[float] = list(times)
        self.rates_bps: List[float] = [float(r) for r in rates_bps]
        self.delays: List[float] = [float(d) for d in delays]
        self.name = name
        # The loop period: one step past the final sample, assuming uniform
        # spacing when possible, otherwise the last sample time plus the mean
        # step.
        if len(self.times) >= 2:
            step = self.times[-1] / (len(self.times) - 1)
        else:
            step = 1.0
        self.duration = self.times[-1] + step

    def _index_at(self, t: float) -> int:
        if t < 0:
            raise TraceError(f"trace queried at negative time {t}")
        t = t % self.duration
        return bisect.bisect_right(self.times, t) - 1

    def rate_at(self, t: float) -> float:
        """Instantaneous rate (bits/s) at simulation time ``t``."""
        return self.rates_bps[self._index_at(t)]

    def step_at(self, t: float) -> Tuple[float, float, float, float]:
        """The sample step in force at ``t``: ``(start, end, rate_bps, delay)``.

        ``start``/``end`` are trace time within one loop: the step holds at
        every ``t'`` with ``start <= t' % duration < end``; the last
        sample's step ends at :attr:`duration`.
        """
        i = self._index_at(t)
        times = self.times
        end = times[i + 1] if i + 1 < len(times) else self.duration
        return times[i], end, self.rates_bps[i], self.delays[i]

    # ------------------------------------------------------------------
    # Summary statistics (used for calibration tests and reporting)
    # ------------------------------------------------------------------
    def mean_rate(self) -> float:
        """Time-weighted mean rate over one loop of the trace."""
        total = 0.0
        for i, rate in enumerate(self.rates_bps):
            end = self.times[i + 1] if i + 1 < len(self.times) else self.duration
            total += rate * (end - self.times[i])
        return total / self.duration

    def percentile_delay(self, percentile: float) -> float:
        """Delay percentile across samples (unweighted; samples are uniform)."""
        if not 0 <= percentile <= 100:
            raise TraceError(f"percentile must be in [0, 100], got {percentile}")
        return metrics.percentile(self.delays, percentile)

    def min_rate(self) -> float:
        return min(self.rates_bps)

    def max_rate(self) -> float:
        return max(self.rates_bps)

    def scaled(self, rate_factor: float = 1.0, delay_factor: float = 1.0) -> "NetworkTrace":
        """A copy with rates/delays multiplied by the given factors."""
        return NetworkTrace(
            self.times,
            [r * rate_factor for r in self.rates_bps],
            [d * delay_factor for d in self.delays],
            name=f"{self.name}*",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkTrace {self.name} n={len(self.times)} dur={self.duration:.1f}s "
            f"mean={self.mean_rate() / 1e6:.1f}Mbps>"
        )
