"""The tenant population drawn one tenant at a time.

:func:`generate_population` is the loop ``fleet/tenants.py`` used to run:
four ``random.Random`` draws per tenant (arrival, lognormal size, class,
CCA) and one stable sort by arrival — the reference for the bulk draw in
:meth:`repro.fleet.tenants.TenantPopulation.generate`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right


def _cumulative(mix):
    """Cumulative bounds and names of ``mix``, plus an ``inf`` bound that
    gives the last name to a ``random() * total`` rounded up to ``total``."""
    bounds, names = [], []
    acc = 0.0
    for name, weight in mix:
        acc += weight
        bounds.append(acc)
        names.append(name)
    return bounds + [math.inf], names + names[-1:]


def generate_population(spec):
    """``(arrivals, sizes, classes, ccas)`` of ``spec``, sorted by arrival."""
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
    return (
        [arrivals[i] for i in order],
        [sizes[i] for i in order],
        [classes[i] for i in order],
        [ccas[i] for i in order],
    )
