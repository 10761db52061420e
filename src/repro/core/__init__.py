"""Core library: public API, metrics, results."""

from repro.core.api import HvcNetwork
from repro.core.metrics import Cdf, percentile, throughput_series
from repro.core.results import ExperimentResult, Table

__all__ = [
    "HvcNetwork",
    "Cdf",
    "percentile",
    "throughput_series",
    "ExperimentResult",
    "Table",
]
