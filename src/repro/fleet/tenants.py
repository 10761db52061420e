"""Tenant population generation for fleet-scale runs.

A *tenant* is one background connection: it arrives at some time, has a
finite transfer to move, belongs to a requirement class (what it needs
from the network) and runs a congestion-control flavour (how it behaves
under load). The same population drives both engines — handed to the
fluid stepper it becomes rate ODEs; handed to the packet-level world it
becomes real connections — which is what makes the hybrid-vs-packet
validation an apples-to-apples comparison.

A population is a function of its spec alone: it holds exactly what a
loop over tenants would draw from ``random.Random(seed)`` — per tenant
an arrival, a lognormal size (``normalvariate``), a class and a CCA, in
that order, then a stable sort by arrival — drawn in bulk with numpy.
Three things keep it identical across Python and numpy versions and
across shard processes:

* the uniforms are that ``Random``'s own MT19937 outputs (one
  ``getrandbits`` call per block), joined into doubles by the 53-bit rule
  of ``random.random()``; no numpy generator is involved;
* ``normalvariate``'s Kinderman–Monahan acceptance test is evaluated with
  the same IEEE operations, a draw whose two sides are within 1e-12
  relative is re-decided with ``math.log``, and sizes go through
  ``math.exp``, so numpy's ``log``/``exp`` rounding never decides a value;
* ``tests/test_fleet.py`` holds the result to that per-tenant loop
  (``tests/oracles/population.py``) list for list, on both CI Pythons.
"""

from __future__ import annotations

import math
import random
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

#: Uniform draws read from the stream at a time: enough that numpy's
#: per-call cost vanishes, few enough that a block's temporaries stay far
#: below the fluid tick's high-water mark.
_BLOCK = 8192


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
        # numpy is imported here, not at module level: importing the
        # package must reach fluid.py, whose import error names the fix.
        import numpy as np

        spec.validate()
        n = spec.tenants
        rng = random.Random(spec.seed)
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2;
        # exp(normalvariate) is exactly what Random.lognormvariate returns.
        mu = math.log(spec.mean_size) - spec.sigma * spec.sigma / 2.0
        class_bounds, class_names = _cumulative(spec.class_mix)
        cca_bounds, cca_names = _cumulative(spec.cca_mix)
        class_bounds, cca_bounds = np.asarray(class_bounds), np.asarray(cca_bounds)
        class_total, cca_total = class_bounds[-2], cca_bounds[-2]  # last finite bounds
        arrivals = np.empty(n)
        sizes = np.empty(n)
        classes = np.empty(n, dtype=np.intp)
        ccas = np.empty(n, dtype=np.intp)
        # A tenant starting at stream position s draws its arrival at s,
        # then normalvariate attempts (u1, 1 - u2) at s+1, s+3, ... until
        # one at position a is accepted, then its class at a+2 and its CCA
        # at a+3; the next tenant starts at a+4.
        done, buf = 0, np.empty(0)
        while done < n:
            # The next _BLOCK values of rng.random(), which joins two
            # 32-bit MT19937 outputs into a double: one getrandbits call
            # returns the next 2 * _BLOCK outputs, the first in its low bits.
            bits = rng.getrandbits(64 * _BLOCK).to_bytes(8 * _BLOCK, "little")
            words = np.frombuffer(bits, dtype="<u4")
            fresh = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 2.0**53
            buf = np.concatenate((buf, fresh))
            size = buf.size
            # The attempt at every position p < size - 1, as normalvariate
            # computes it.
            u2 = 1.0 - buf[1:]
            z = random.NV_MAGICCONST * (buf[:-1] - 0.5) / u2
            zz = z * z / 4.0
            bound = -np.log(u2)
            accept = zz <= bound
            for p in np.flatnonzero(abs(zz - bound) <= 1e-12 * bound).tolist():
                accept[p] = zz[p] <= -math.log(u2[p])
            # nxt[p]: the first accepted attempt at or after p with p's
            # parity, or ``size`` if none.
            nxt = np.where(accept, np.arange(size - 1), size)
            for parity in (0, 1):
                tail = nxt[parity::2][::-1]
                np.minimum.accumulate(tail, out=tail)
            # hop[s]: where the tenant after one starting at s starts, or
            # ``size + 1`` (a fixed point) if the one at s is not whole in
            # ``buf``. ``walk`` holds the first 2**k starts from position 0
            # and ``hop`` then maps a start to the one 2**k tenants later,
            # so each round doubles the walk.
            hop = np.full(size + 2, size + 1, dtype=np.intp)
            np.minimum(nxt[1:] + 4, size + 1, out=hop[: max(size - 2, 0)])
            walk = np.zeros(1, dtype=np.intp)
            while walk.size <= n - done and walk[-1] <= size:
                walk = np.concatenate((walk, hop[walk]))
                hop = hop[hop]
            # The last start inside ``buf`` opens a tenant not whole in it.
            whole = min(int(np.count_nonzero(walk <= size)) - 1, n - done)
            # The tenant starting at walk[i] ends with the attempt accepted
            # at walk[i + 1] - 4.
            starts, at, s = walk[:whole], walk[1 : whole + 1] - 4, int(walk[whole])
            end = done + at.size
            arrivals[done:end] = buf[starts]
            normal = mu + z[at] * spec.sigma
            sizes[done:end] = np.fromiter(map(math.exp, normal.tolist()), float, at.size)
            classes[done:end] = np.searchsorted(
                class_bounds, buf[at + 2] * class_total, side="right"
            )
            ccas[done:end] = np.searchsorted(cca_bounds, buf[at + 3] * cca_total, side="right")
            done, buf = end, buf[s:]
        arrivals *= spec.duration * spec.arrival_span
        # max(lo, min(hi, int(size))) for integer bounds and a positive size.
        np.minimum(sizes, spec.max_size, out=sizes)
        np.floor(sizes, out=sizes)
        np.maximum(sizes, spec.min_size, out=sizes)
        # Stable, as ``sorted()`` is: tied tenants keep their draw order.
        order = np.argsort(arrivals, kind="stable")
        return cls(
            spec=spec,
            arrivals=arrivals[order].tolist(),
            sizes=sizes.astype(np.int64)[order].tolist(),
            classes=np.asarray(class_names, dtype=object)[classes[order]].tolist(),
            ccas=np.asarray(cca_names, dtype=object)[ccas[order]].tolist(),
        )
