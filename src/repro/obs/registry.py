"""The metrics registry: counters, gauges and histograms keyed by labels.

Metric naming scheme (documented in docs/ARCHITECTURE.md):

* names are dotted ``<component>.<quantity>`` — e.g. ``link.delivered``,
  ``transport.timeouts``, ``sim.events_processed``;
* labels identify the instance — ``channel=embb``, ``direction=down``,
  ``host=client``, ``flow=7``;
* counters are monotone, gauges are last-write-wins, histograms keep
  count/sum/min/max plus coarse log2 buckets.

Two update disciplines coexist:

* **push** — hot components that are already being traced increment their
  handles directly (handles are cached at attach time, never looked up per
  event);
* **pull** — *collectors* registered with :meth:`MetricsRegistry.add_collector`
  sync counters from component stats structs (``LinkStats``, ``DeviceStats``)
  at snapshot time. This is the no-op fast path: with tracing off, the data
  path pays nothing and the registry is still complete after
  :meth:`MetricsRegistry.collect`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple


LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotone counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def add(self, amount) -> None:
        self.value += amount

    def set_total(self, total) -> None:
        """Collector entry point: adopt an externally-maintained total."""
        if total > self.value:
            self.value = total


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """count/sum/min/max plus coarse log2 buckets of observed values."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket exponent -> count; values land in bucket ceil(log2(v)).
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = math.frexp(value)[1] if value > 0 else 0
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1


class MetricsRegistry:
    """All metrics of one observability context.

    Handles are memoized by ``(name, labels)``: asking twice returns the
    same object, so components can cache them at attach time and increment
    without any lookup on the data path.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- handle creation ------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _labels_key(labels))
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter(name, key[1])
        return handle

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _labels_key(labels))
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge(name, key[1])
        return handle

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _labels_key(labels))
        handle = self._histograms.get(key)
        if handle is None:
            handle = self._histograms[key] = Histogram(name, key[1])
        return handle

    # -- pull-based collection ------------------------------------------
    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback that syncs component stats into metrics."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector (idempotent; call before reading)."""
        for collector in self._collectors:
            collector(self)

    # -- reading --------------------------------------------------------
    def value(self, name: str, **labels):
        """Current value of a counter or gauge (after collecting)."""
        self.collect()
        key = (name, _labels_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def snapshot(self) -> Dict[str, List[dict]]:
        """``{family: [{labels, value}, ...]}`` for every metric."""
        self.collect()
        out: Dict[str, List[dict]] = {}
        for (name, _), counter in sorted(self._counters.items()):
            out.setdefault(name, []).append(
                {"labels": dict(counter.labels), "value": counter.value}
            )
        for (name, _), gauge in sorted(self._gauges.items()):
            out.setdefault(name, []).append(
                {"labels": dict(gauge.labels), "value": gauge.value}
            )
        for (name, _), hist in sorted(self._histograms.items()):
            out.setdefault(name, []).append(
                {
                    "labels": dict(hist.labels),
                    "count": hist.count,
                    "sum": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                }
            )
        return out

    def render(self) -> str:
        """Human-readable dump, one metric per line."""
        lines = []
        for family, entries in self.snapshot().items():
            for entry in entries:
                labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                labels = "{" + labels + "}" if labels else ""
                if "value" in entry:
                    lines.append(f"{family}{labels} {entry['value']}")
                else:
                    lines.append(
                        f"{family}{labels} count={entry['count']} mean="
                        f"{entry['sum'] / entry['count'] if entry['count'] else 0:.6g}"
                    )
        return "\n".join(lines)
