"""The unit of schedulable work: one ``(experiment, params, seed)`` triple.

Experiments declare their independent simulation runs as :class:`RunUnit`
values — a picklable description of *what* to compute, not the computation
itself — and hand the list to a runner. Keeping units declarative is what
makes them safe to ship to worker processes and to hash into cache keys.

A unit's ``fn`` is a ``"module.path:callable"`` string rather than a bare
function object so that the description pickles cheaply and resolves
identically in every worker, whatever the multiprocessing start method.
Unit functions must be module-level callables accepting keyword arguments
plus ``seed``, and must return a picklable payload (plain dicts of floats
and lists by convention). They must also be deterministic in those
arguments: the cache key rests on it, and it is why the runner never
runs a failed unit again — a second run would only replay the failure.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro._version import __version__
from repro.errors import RunnerError


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable form for hashing."""
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    raise RunnerError(
        f"unit parameter {value!r} ({type(value).__name__}) is not "
        "cache-hashable; pass primitives and resolve objects inside the unit"
    )


@dataclass(frozen=True)
class RunUnit:
    """One independent simulation run, described declaratively.

    Attributes
    ----------
    experiment:
        Scenario family this unit belongs to (e.g. ``"fig1-cca"``). Part of
        the cache key, so two experiments that share a unit function *and*
        a scenario name share cached results.
    fn:
        ``"module.path:callable"`` locating the unit function.
    params:
        Sorted ``(name, value)`` pairs passed to the function as kwargs.
    seed:
        Scenario seed, forwarded as the ``seed`` keyword.
    """

    experiment: str
    fn: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0

    @classmethod
    def make(cls, experiment: str, fn: str, seed: int = 0, **params: Any) -> "RunUnit":
        """Build a unit; keyword order does not affect identity."""
        return cls(
            experiment=experiment,
            fn=fn,
            params=tuple(sorted(params.items())),
            seed=seed,
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def key(self) -> str:
        """Human-readable identity, used for ordering and error messages."""
        rendered = ",".join(f"{name}={value}" for name, value in self.params)
        return f"{self.experiment}({rendered})#seed{self.seed}"

    def cache_token(self, version: str = __version__) -> str:
        """Content hash over everything that determines this unit's output.

        The schema is ``sha256(json({experiment, fn, params, seed,
        version}))`` — bump the package version (or change any field) and
        previously cached results silently stop matching.
        """
        try:
            payload = json.dumps(
                {
                    "experiment": self.experiment,
                    "fn": self.fn,
                    "params": _canonical(dict(self.params)),
                    "seed": self.seed,
                    "version": version,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        except (TypeError, ValueError) as exc:
            raise RunnerError(f"cannot hash parameters of {self.key}") from exc
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolve_fn(path: str) -> Callable[..., Any]:
    """Import and return the callable behind a ``module:attr`` path."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise RunnerError(f"unit fn must look like 'pkg.module:callable', got {path!r}")
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise RunnerError(f"cannot resolve unit fn {path!r}: {exc}") from exc
    if not callable(fn):
        raise RunnerError(f"unit fn {path!r} resolved to non-callable {fn!r}")
    return fn


def execute_unit(unit: RunUnit) -> Any:
    """Run one unit in the current process and return its payload.

    This is the function worker processes execute; it must stay module-level
    and importable for every multiprocessing start method.
    """
    fn = resolve_fn(unit.fn)
    return fn(seed=unit.seed, **unit.kwargs)


def probe_unit(value: float = 0.0, seed: int = 0) -> Dict[str, float]:
    """Trivial deterministic unit used by tests and CI smoke runs."""
    return {"value": 2.0 * float(value) + seed, "events": 1}


# ----------------------------------------------------------------------
# Failure-mode probe units. These exist so the runner's resilience paths
# (per-unit timeouts, BrokenProcessPool recovery, checkpoint/resume) can
# be exercised by real worker processes in tests, not just by mocks. They
# must stay module-level and importable, like every unit function.
# ----------------------------------------------------------------------

def error_unit(message: str = "probe failure", seed: int = 0) -> None:
    """Always raises — the predictable 'unit with a bug'."""
    raise ValueError(f"{message} (seed={seed})")


def crash_unit(exit_code: int = 13, seed: int = 0) -> None:
    """Kills the worker process outright, as a segfault or OOM kill would.

    ``os._exit`` skips interpreter teardown, so the pool sees the process
    vanish (BrokenProcessPool), not an exception.
    """
    import os

    os._exit(exit_code)


def sleep_unit(duration: float = 3600.0, seed: int = 0) -> Dict[str, float]:
    """Sleeps ``duration`` seconds — the 'hung simulation' stand-in."""
    import time

    time.sleep(duration)
    return {"slept": duration, "seed": seed}
