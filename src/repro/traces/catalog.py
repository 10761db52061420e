"""Named registry of trace profiles used throughout the experiments."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import TraceError
from repro.traces.model import NetworkTrace
from repro.traces.synthetic import (
    lowband_driving,
    lowband_stationary,
    mmwave_driving,
    mmwave_stationary,
    starlink_leo,
    wifi_5g_handoff,
)
from repro.units import mbps, ms


def _urllc(seed: int = 0, duration: float = 120.0) -> NetworkTrace:
    """URLLC per the paper's emulation: 2 Mbps, 5 ms RTT (2.5 ms one-way)."""
    return NetworkTrace([0.0], [mbps(2)], [ms(2.5)], name="urllc")


_CATALOG: Dict[str, Callable[..., NetworkTrace]] = {
    "5g-lowband-stationary": lowband_stationary,
    "5g-lowband-driving": lowband_driving,
    "5g-mmwave-stationary": mmwave_stationary,
    "5g-mmwave-driving": mmwave_driving,
    "starlink-leo": starlink_leo,
    "wifi-5g-handoff": wifi_5g_handoff,
    "urllc": _urllc,
}


def list_traces() -> List[str]:
    """Names accepted by :func:`get_trace`."""
    return sorted(_CATALOG)


def get_trace(
    name: str, seed: Optional[int] = None, duration: float = 120.0
) -> NetworkTrace:
    """Instantiate a catalog trace by name.

    ``seed`` selects the realization for synthetic profiles (ignored for the
    constant URLLC profile); ``None`` is the profile's own default
    realization, and every int — 0 included — is passed on.
    """
    try:
        factory = _CATALOG[name]
    except KeyError:
        known = ", ".join(list_traces())
        raise TraceError(f"unknown trace {name!r}; known traces: {known}") from None
    if seed is None:
        return factory(duration=duration)
    return factory(seed=seed, duration=duration)
