"""Measurement utilities: percentiles, CDFs, throughput series."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    # a + f*(b-a) is exact when a == b (a*(1-f) + b*f can round below a).
    return ordered[low] + frac * (ordered[high] - ordered[low])


class Cdf:
    """Empirical CDF over a fixed sample set."""

    def __init__(self, samples: Iterable[float]) -> None:
        self.samples: List[float] = sorted(samples)
        if not self.samples:
            raise ValueError("CDF needs at least one sample")

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def max(self) -> float:
        return self.samples[-1]

    def percentile(self, p: float) -> float:
        return percentile(self.samples, p)

    @property
    def median(self) -> float:
        return self.percentile(50)

    def points(self, count: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting/printing."""
        if count < 2:
            raise ValueError(f"count must be >= 2, got {count}")
        step = (len(self.samples) - 1) / (count - 1)
        result = []
        for i in range(count):
            index = int(round(i * step))
            result.append((self.samples[index], (index + 1) / len(self.samples)))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cdf n={len(self.samples)} p50={self.median:.4g} p95={self.percentile(95):.4g} "
            f"max={self.max:.4g}>"
        )


def throughput_series(
    delivered_timeline: Sequence[Tuple[float, int]],
    interval: float = 1.0,
    end_time: float = None,
) -> List[Tuple[float, float]]:
    """Convert a cumulative (time, bytes) timeline to (time, bits/s) bins.

    Each output point ``(t, r)`` is the average rate over ``[t, t+interval)``.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    if not delivered_timeline:
        return []
    horizon = end_time if end_time is not None else delivered_timeline[-1][0]
    bins: List[Tuple[float, float]] = []
    t = 0.0
    index = 0
    prev_bytes = 0
    while t < horizon:
        t_end = t + interval
        cumulative = prev_bytes
        while index < len(delivered_timeline) and delivered_timeline[index][0] < t_end:
            cumulative = delivered_timeline[index][1]
            index += 1
        bins.append((t, (cumulative - prev_bytes) * 8.0 / interval))
        prev_bytes = cumulative
        t = t_end
    return bins


def mean_throughput_bps(
    delivered_timeline: Sequence[Tuple[float, int]],
    start: float = 0.0,
    end: float = None,
) -> float:
    """Average delivery rate between ``start`` and ``end`` (bits/s)."""
    if not delivered_timeline:
        return 0.0
    if end is None:
        end = delivered_timeline[-1][0]
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    bytes_at_start = 0
    bytes_at_end = 0
    for t, total in delivered_timeline:
        if t <= start:
            bytes_at_start = total
        if t <= end:
            bytes_at_end = total
    return (bytes_at_end - bytes_at_start) * 8.0 / (end - start)
