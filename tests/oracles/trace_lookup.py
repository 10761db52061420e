"""The bisect trace lookup: every read searches the sample times.

What :meth:`repro.traces.model.NetworkTrace.rate_at`/``delay_at`` did on
every packet before trace-driven links cached their sample window: fold
the time into one loop of the trace, then ``bisect_right`` into the
sample times.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import TraceError


def sample_index(trace, t: float) -> int:
    if t < 0:
        raise TraceError(f"trace queried at negative time {t}")
    return bisect_right(trace.times, t % trace.duration) - 1


def rate_at(trace, t: float) -> float:
    return trace.rates_bps[sample_index(trace, t)]


def delay_at(trace, t: float) -> float:
    return trace.delays[sample_index(trace, t)]
