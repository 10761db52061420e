"""Mahimahi trace-format interchange.

A Mahimahi trace is a text file with one integer per line: the millisecond
timestamp of a single 1500-byte packet delivery opportunity. We convert to
and from our piecewise-rate representation by bucketing opportunities into
fixed windows, which is exactly how such traces are usually summarized.

This lets users who *do* have the DChannel/Mahimahi traces run every
experiment on the real data instead of the synthetic profiles.
"""

from __future__ import annotations

import math
import os
from typing import List, Optional

from repro.errors import TraceError
from repro.traces.model import NetworkTrace
from repro.units import ms

#: Mahimahi's fixed delivery-opportunity size.
MTU_BYTES = 1500
MTU_BITS = MTU_BYTES * 8


def read_mahimahi(
    path: str,
    bucket: float = 0.1,
    delay: float = ms(25),
    name: Optional[str] = None,
) -> NetworkTrace:
    """Load a Mahimahi trace as a piecewise-rate :class:`NetworkTrace`.

    Parameters
    ----------
    path:
        Trace file; one integer (ms) per line, non-decreasing.
    bucket:
        Averaging window in seconds for the rate estimate.
    delay:
        Mahimahi traces carry no latency information; this constant one-way
        delay is attached to every sample.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except UnicodeDecodeError as exc:
        raise TraceError(f"mahimahi trace {path!r} is not UTF-8 text") from exc
    if not lines:
        raise TraceError(f"mahimahi trace {path!r} is empty")
    try:
        stamps_ms = [int(line) for line in lines]
    except ValueError as exc:
        raise TraceError(f"mahimahi trace {path!r} has a non-integer line") from exc
    if any(b < a for a, b in zip(stamps_ms, stamps_ms[1:])):
        raise TraceError(f"mahimahi trace {path!r} timestamps are not sorted")
    if stamps_ms[0] < 0:
        raise TraceError(f"mahimahi trace {path!r} has a negative timestamp")

    duration = max(stamps_ms[-1] / 1000.0, bucket)
    n_buckets = max(1, int(math.ceil(duration / bucket)))
    counts = [0] * n_buckets
    for stamp in stamps_ms:
        index = min(int((stamp / 1000.0) / bucket), n_buckets - 1)
        counts[index] += 1

    times = [i * bucket for i in range(n_buckets)]
    rates = [count * MTU_BITS / bucket for count in counts]
    delays = [delay] * n_buckets
    trace_name = name if name is not None else os.path.basename(path)
    return NetworkTrace(times, rates, delays, name=trace_name)


def write_mahimahi(trace: NetworkTrace, path: str, duration: Optional[float] = None) -> int:
    """Render ``trace`` into Mahimahi format; returns opportunities written.

    Opportunities are spaced uniformly within each constant-rate span,
    carrying fractional credit across spans so the long-run rate is exact.
    """
    horizon = duration if duration is not None else trace.duration
    if horizon <= 0:
        raise TraceError(f"duration must be positive, got {horizon}")
    stamps: List[int] = []
    credit = 0.0
    step = 0.001  # evaluate per millisecond like Mahimahi itself
    t = 0.0
    while t < horizon:
        credit += trace.rate_at(t) * step / MTU_BITS
        while credit >= 1.0:
            stamps.append(int(round(t * 1000)))
            credit -= 1.0
        t += step
    with open(path, "w", encoding="utf-8") as handle:
        for stamp in stamps:
            handle.write(f"{stamp}\n")
    return len(stamps)
