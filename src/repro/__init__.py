"""hvc-repro: heterogeneous virtual channels, reproduced in simulation.

A from-scratch Python implementation of the systems behind *"Boosting
Application Performance using Heterogeneous Virtual Channels: Challenges
and Opportunities"* (HotNets 2023): a deterministic network simulator with
trace-driven 5G channels, a message-aware reliable transport with pluggable
congestion control (CUBIC/BBR/Vegas/Vivace + an HVC-aware variant), the
DChannel packet-steering heuristic and its cross-layer extensions, and the
paper's three workloads (bulk transfer, SVC real-time video, web browsing).

Entry points:

* :class:`repro.HvcNetwork` — build a client/server pair over channels.
* :mod:`repro.net.hvc` — ready-made channel profiles (eMBB, URLLC, MLO…).
* :mod:`repro.steering` — steering policies by name.
* :mod:`repro.experiments` — the paper's figures/tables as functions.
"""

from repro import core, units
from repro._version import __version__

#: Public name → ``"module:attr"`` (the :attr:`RunUnit.fn` convention), resolved on
#: first access (PEP 562), so ``import repro`` and a warm CLI run load no simulator.
_EXPORTS = {
    "HvcNetwork": "repro.core.api:HvcNetwork",
    "Cdf": "repro.core.metrics:Cdf",
    "percentile": "repro.core.metrics:percentile",
    "throughput_series": "repro.core.metrics:throughput_series",
    "ExperimentResult": "repro.core.results:ExperimentResult",
    "Table": "repro.core.results:Table",
    "Observability": "repro.obs:Observability",
}

__all__ = ["__version__", *_EXPORTS, "units"]


def __getattr__(name: str):
    path = _EXPORTS.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.runner.units import resolve_fn

    return resolve_fn(path)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
