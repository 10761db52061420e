"""Parallel experiment runner: units, process-pool fan-out, result cache.

Every paper artifact decomposes into independent ``(experiment, params,
seed)`` simulation units. This package executes such unit batches — inline,
or fanned out over worker processes — with a deterministic input-order
merge, and optionally memoizes each unit's payload in a content-addressed
on-disk cache so repeated CLI/benchmark runs skip already-computed work.

Quickstart::

    from repro.runner import ParallelRunner, ResultCache
    from repro.experiments.fig1 import run_fig1a

    runner = ParallelRunner(jobs=4, cache=ResultCache())
    result = run_fig1a(runner=runner)   # identical values to a serial run

Guarantees:

* **Determinism** — results are merged in unit order, never completion
  order; ``jobs=N`` and a warm cache reproduce ``jobs=1`` bit-for-bit.
* **Cache safety** — keys hash experiment name, unit function, params,
  seed, and package version; damaged cache files read as misses.
* **Checkpointing** — one scheduler serves ``run`` (experiments: the first
  failure raises, naming its unit) and ``run_outcomes`` (campaigns: every
  unit gets an outcome); both cache each unit the moment its worker
  returns it, so an interrupted batch resumes where it stopped, and a
  worker death is blamed on the unit that caused it.
* **Workers** — ``ParallelRunner()`` runs inline; ``python -m repro``
  defaults ``--jobs`` to :func:`usable_cpus`, the CPUs the process may run
  on.
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.parallel import ParallelRunner, UnitOutcome, usable_cpus
from repro.runner.units import RunUnit, execute_unit, probe_unit, resolve_fn

__all__ = [
    "CACHE_DIR_ENV",
    "ParallelRunner",
    "ResultCache",
    "RunUnit",
    "UnitOutcome",
    "default_cache_dir",
    "execute_unit",
    "probe_unit",
    "resolve_fn",
    "usable_cpus",
]
