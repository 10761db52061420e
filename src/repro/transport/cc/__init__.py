"""Congestion control algorithms (pluggable, pure control loops).

Registry usage::

    cc = make_cc("bbr", mss=1460)
    cc = make_cc("hvc-bbr", mss=1460)   # HVC-aware wrapper around BBR
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import TransportError
from repro.transport.cc.base import AckSample, CongestionControl
from repro.transport.cc.reno import Reno
from repro.transport.cc.cubic import Cubic
from repro.transport.cc.bbr import Bbr
from repro.transport.cc.bbr2 import Bbr2
from repro.transport.cc.vegas import Vegas
from repro.transport.cc.vivace import Vivace
from repro.transport.cc.hvc_aware import HvcAware


def _bbr2_plus(mss: int = 1460, **kwargs) -> Bbr2:
    return Bbr2(mss=mss, delay_aware=True, **kwargs)


_REGISTRY: Dict[str, Callable[..., CongestionControl]] = {
    "reno": Reno,
    "cubic": Cubic,
    "bbr": Bbr,
    "bbr2": Bbr2,
    "bbr2+": _bbr2_plus,
    "vegas": Vegas,
    "vivace": Vivace,
}


def list_ccs() -> List[str]:
    """Names accepted by :func:`make_cc` (plain and ``hvc-`` prefixed)."""
    names = sorted(_REGISTRY)
    return names + [f"hvc-{name}" for name in names]


def make_cc(name: str, mss: int = 1460, **kwargs) -> CongestionControl:
    """Instantiate a congestion controller by registry name.

    A ``hvc-`` prefix wraps the base algorithm in the channel-aware RTT
    interpreter of §3.2 (:class:`~repro.transport.cc.hvc_aware.HvcAware`).
    """
    base_name = name
    wrap = False
    if name.startswith("hvc-"):
        base_name = name[len("hvc-"):]
        wrap = True
    try:
        factory = _REGISTRY[base_name]
    except KeyError:
        known = ", ".join(list_ccs())
        raise TransportError(f"unknown congestion control {name!r}; known: {known}") from None
    cc = factory(mss=mss, **kwargs)
    if wrap:
        cc = HvcAware(cc)
    return cc


__all__ = [
    "AckSample",
    "CongestionControl",
    "Reno",
    "Cubic",
    "Bbr",
    "Bbr2",
    "Vegas",
    "Vivace",
    "HvcAware",
    "make_cc",
    "list_ccs",
]
