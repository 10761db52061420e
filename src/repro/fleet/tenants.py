"""Tenant population generation for fleet-scale runs.

A *tenant* is one background connection: it arrives at some time, has a
finite transfer to move, belongs to a requirement class (what it needs
from the network) and runs a congestion-control flavour (how it behaves
under load). The same population drives both engines — handed to the
fluid stepper it becomes rate ODEs; handed to the packet-level world it
becomes real connections — which is what makes the hybrid-vs-packet
validation an apples-to-apples comparison.

Generation is pure ``random.Random`` (not numpy), so a population is a
function of its spec alone: identical across numpy versions and across
shard processes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ScenarioError

#: Default class mix, roughly "a phone's mixed workload": interactive
#: traffic, bulk sync, schedulable uploads, and scavenger-class noise.
DEFAULT_CLASS_MIX: Dict[str, float] = {
    "latency": 0.3,
    "throughput": 0.3,
    "background": 0.3,
    "deadline": 0.1,
}

#: Default CCA mix across tenants (per-CCA goodput shares are a headline
#: fleet-experiment output, so the mix is part of the population).
DEFAULT_CCA_MIX: Dict[str, float] = {
    "cubic": 0.5,
    "bbr": 0.25,
    "vegas": 0.25,
}


@dataclass(frozen=True)
class PopulationSpec:
    """Everything needed to (re)generate one tenant population."""

    tenants: int
    duration: float
    seed: int = 0
    #: Mean transfer size in bytes (lognormal; heavy-tailed like real
    #: application objects — many small messages, a few big syncs).
    mean_size: float = 6000.0
    sigma: float = 1.1
    max_size: int = 250_000
    min_size: int = 200
    #: Arrivals spread uniformly over ``duration * arrival_span`` so the
    #: tail of the run drains rather than admits.
    arrival_span: float = 0.8
    class_mix: Tuple[Tuple[str, float], ...] = tuple(DEFAULT_CLASS_MIX.items())
    cca_mix: Tuple[Tuple[str, float], ...] = tuple(DEFAULT_CCA_MIX.items())

    def validate(self) -> None:
        if self.tenants <= 0:
            raise ScenarioError(f"tenants must be positive, got {self.tenants}")
        if self.duration <= 0:
            raise ScenarioError(f"duration must be positive, got {self.duration}")
        if not 0 < self.arrival_span <= 1:
            raise ScenarioError(
                f"arrival_span must be in (0, 1], got {self.arrival_span}"
            )
        for name, mix in (("class_mix", self.class_mix), ("cca_mix", self.cca_mix)):
            if not mix or any(w < 0 for _, w in mix) or sum(w for _, w in mix) <= 0:
                raise ScenarioError(f"{name} must hold non-negative weights summing > 0")


def _cumulative(mix) -> Tuple[List[float], List[str]]:
    """Cumulative bounds and names of ``mix``, plus an ``inf`` bound that
    gives the last name to a ``random() * total`` rounded up to ``total``."""
    bounds, names = [], []
    acc = 0.0
    for name, weight in mix:
        acc += weight
        bounds.append(acc)
        names.append(name)
    return bounds + [math.inf], names + names[-1:]


@dataclass
class TenantPopulation:
    """Concrete tenants, sorted by arrival time."""

    spec: PopulationSpec
    arrivals: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)
    ccas: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)

    @classmethod
    def generate(cls, spec: PopulationSpec) -> "TenantPopulation":
        spec.validate()
        rng = random.Random(spec.seed)
        rand, normal = rng.random, rng.normalvariate
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2;
        # exp(normalvariate) is exactly what Random.lognormvariate returns.
        mu = math.log(spec.mean_size) - spec.sigma * spec.sigma / 2.0
        sigma, lo, hi = spec.sigma, spec.min_size, spec.max_size
        class_bounds, class_names = _cumulative(spec.class_mix)
        cca_bounds, cca_names = _cumulative(spec.cca_mix)
        class_total, cca_total = class_bounds[-2], cca_bounds[-2]  # last finite bounds
        window = spec.duration * spec.arrival_span
        arrivals, sizes, classes, ccas = [], [], [], []
        # Four draws per tenant, in this order: arrival, size, class, CCA.
        for _ in range(spec.tenants):
            arrivals.append(rand() * window)
            sizes.append(max(lo, min(hi, int(math.exp(normal(mu, sigma))))))
            classes.append(class_names[bisect_right(class_bounds, rand() * class_total)])
            ccas.append(cca_names[bisect_right(cca_bounds, rand() * cca_total)])
        order = sorted(range(spec.tenants), key=arrivals.__getitem__)
        return cls(
            spec=spec,
            arrivals=[arrivals[i] for i in order],
            sizes=[sizes[i] for i in order],
            classes=[classes[i] for i in order],
            ccas=[ccas[i] for i in order],
        )

    def class_names(self) -> List[str]:
        return sorted({name for name, _ in self.spec.class_mix})

    def cca_names(self) -> List[str]:
        return sorted({name for name, _ in self.spec.cca_mix})
