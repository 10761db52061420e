"""repro.obs — unified tracing and metrics for the whole stack.

Three pieces, one context object:

* :class:`MetricsRegistry` — counters/gauges/histograms keyed by component
  and channel; cheap pull collectors keep it complete with tracing off;
* packet-lifecycle **tracing** — ``steer → enqueue → transmit →
  deliver/drop → dispatch`` spans that survive steering channel switches
  and resequencing, exported as JSON Lines;
* **transport probes** — per-connection cwnd/srtt/inflight/RTO series.

Usage::

    from repro import HvcNetwork
    from repro.obs import Observability

    net = HvcNetwork([...])
    obs = net.attach_obs(Observability(tracing=True))
    ... run ...
    obs.export_jsonl("run.jsonl")     # then: python -m repro obs summarize

The disabled path is a no-op by construction (components' ``obs``
attributes stay ``None``); ``benchmarks/test_bench_obs.py`` measures the
overhead of both modes and gates the disabled one.
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    read_jsonl,
    validate_file,
    validate_record,
    write_jsonl,
)
from repro.obs.probes import (
    ConnectionProbe,
    TransportSample,
    TransportSeries,
    probe_for,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.summarize import TraceSummary, summarize_file
from repro.obs.trace import (
    DeviceObs,
    LinkObs,
    Observability,
    TraceBuffer,
    wire_network,
)

__all__ = [
    "TRACE_SCHEMA",
    "read_jsonl",
    "validate_file",
    "validate_record",
    "write_jsonl",
    "ConnectionProbe",
    "TransportSample",
    "TransportSeries",
    "probe_for",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceSummary",
    "summarize_file",
    "DeviceObs",
    "LinkObs",
    "Observability",
    "TraceBuffer",
    "wire_network",
]
