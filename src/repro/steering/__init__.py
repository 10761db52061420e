"""Steering policies: which channel should each packet take?

Policies are the paper's design space, one module per layer/idea:

* :mod:`repro.steering.single` — use one channel (the eMBB-only baseline).
* :mod:`repro.steering.roundrobin` — heterogeneity-blind multipath
  (per-packet round robin) — the "MPTCP ignores channel properties"
  strawman.
* :mod:`repro.steering.mptcp` — minRTT and ECF schedulers, the flow-level
  state of the art the paper contrasts with.
* :mod:`repro.steering.dchannel` — DChannel's network-layer per-packet
  reward/cost heuristic (§3.1).
* :mod:`repro.steering.priority` — cross-layer message-priority steering
  (§3.3, the Fig. 2 winner).
* :mod:`repro.steering.flow_priority` — flow-priority filter (§3.3,
  Table 1's "DChannel w. priority").
* :mod:`repro.steering.transport_aware` — transport-layer segment steering:
  ACK separation, end-of-message acceleration, control-packet reliability
  (§3.2).
* :mod:`repro.steering.redundant` — replication across channels for
  reliability (Wi-Fi 7 MLO, §2.2).
* :mod:`repro.steering.cost` — latency-vs-monetary-cost budgets (cISP, §3.1).
* :mod:`repro.steering.requirements` — Hercules-style per-tenant
  requirement classes used by the fleet-scale multi-tenant mode.

Use :func:`make_steerer` to build one by name; every device gets its own
instance (policies keep per-direction state like token buckets).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import SteeringError
from repro.steering.base import Steerer
from repro.steering.single import SingleChannelSteerer
from repro.steering.roundrobin import RoundRobinSteerer
from repro.steering.mptcp import MinRttSteerer, EcfSteerer
from repro.steering.dchannel import DChannelSteerer
from repro.steering.flow_pinned import FlowPinnedSteerer
from repro.steering.general import GeneralSteerer
from repro.steering.priority import MessagePrioritySteerer
from repro.steering.flow_priority import FlowPriorityFilter
from repro.steering.transport_aware import TransportAwareSteerer
from repro.steering.redundant import RedundantSteerer
from repro.steering.cost import CostAwareSteerer
from repro.steering.requirements import (
    REQUIREMENT_CLASSES,
    ChannelTraits,
    RequirementClass,
    RequirementPinnedSteerer,
    assignment_table,
    requirement_class,
)

_REGISTRY: Dict[str, Callable[..., Steerer]] = {
    "single": SingleChannelSteerer,
    "round-robin": RoundRobinSteerer,
    "min-rtt": MinRttSteerer,
    "ecf": EcfSteerer,
    "flow-pinned": FlowPinnedSteerer,
    "requirement-pinned": RequirementPinnedSteerer,
    "dchannel": DChannelSteerer,
    "general": GeneralSteerer,
    "priority": MessagePrioritySteerer,
    "transport-aware": TransportAwareSteerer,
    "redundant": RedundantSteerer,
    "cost-aware": CostAwareSteerer,
}


def list_steerers() -> List[str]:
    """Names accepted by :func:`make_steerer`."""
    return sorted(_REGISTRY) + ["dchannel+flowprio"]


def make_steerer(name: str, **kwargs) -> Steerer:
    """Instantiate a steering policy by name.

    ``"dchannel+flowprio"`` builds the Table 1 composite: DChannel with the
    flow-priority filter in front (background flows barred from the
    low-latency channel).
    """
    if name == "dchannel+flowprio":
        return FlowPriorityFilter(DChannelSteerer(**kwargs))
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(list_steerers())
        raise SteeringError(f"unknown steering policy {name!r}; known: {known}") from None
    return factory(**kwargs)


__all__ = [
    "Steerer",
    "SingleChannelSteerer",
    "RoundRobinSteerer",
    "MinRttSteerer",
    "EcfSteerer",
    "DChannelSteerer",
    "FlowPinnedSteerer",
    "GeneralSteerer",
    "MessagePrioritySteerer",
    "FlowPriorityFilter",
    "TransportAwareSteerer",
    "RedundantSteerer",
    "CostAwareSteerer",
    "make_steerer",
    "list_steerers",
    "REQUIREMENT_CLASSES",
    "ChannelTraits",
    "RequirementClass",
    "RequirementPinnedSteerer",
    "assignment_table",
    "requirement_class",
]
