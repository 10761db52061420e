"""Trace substrate: time-varying channel characteristics.

The paper's eMBB channels are driven by cellular traces recorded by DChannel
(NSDI '23) under stationary and driving conditions. We cannot ship those
traces, so :mod:`repro.traces.synthetic` generates traces calibrated to the
published statistics; :mod:`repro.traces.mahimahi` can load real
Mahimahi-format traces when available.
"""

from repro.traces.model import NetworkTrace
from repro.traces.synthetic import (
    TraceSpec,
    generate_trace,
    lowband_stationary,
    lowband_driving,
    mmwave_stationary,
    mmwave_driving,
)
from repro.traces.catalog import get_trace, list_traces
from repro.traces.mahimahi import read_mahimahi, write_mahimahi

__all__ = [
    "NetworkTrace",
    "TraceSpec",
    "generate_trace",
    "lowband_stationary",
    "lowband_driving",
    "mmwave_stationary",
    "mmwave_driving",
    "get_trace",
    "list_traces",
    "read_mahimahi",
    "write_mahimahi",
]
