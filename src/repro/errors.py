"""Exception hierarchy for the HVC reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event kernel.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped, or re-entrant ``run`` calls.
    """


class NetworkError(ReproError):
    """Raised for invalid network configuration or packet handling."""


class TransportError(ReproError):
    """Raised for transport-layer protocol violations or misuse."""


class SteeringError(ReproError):
    """Raised when a steering policy is misconfigured.

    Example: a policy that requires message-priority tags is attached to a
    device whose applications never tag packets.
    """


class TraceError(ReproError):
    """Raised for malformed traces (empty, negative rates, bad file format)."""


class ScenarioError(ReproError):
    """Raised when a scenario description is inconsistent or incomplete."""


class ExperimentError(ReproError):
    """Raised when an experiment definition cannot be run as configured."""


class RunnerError(ReproError):
    """Raised when the parallel experiment runner cannot execute a unit.

    Examples: a unit function path that does not resolve, parameters that
    cannot be hashed into a cache key, or a worker-process failure (the
    original exception is attached as ``__cause__``).
    """


class UnitTimeoutError(RunnerError):
    """Raised when a unit exceeds its per-unit wall-clock timeout.

    The runner kills the worker pool that was executing the unit (a hung
    simulation cannot be interrupted any other way), records the outcome,
    and respawns the pool for the remaining units.
    """


class InvariantError(ReproError):
    """Raised by :mod:`repro.check` when a runtime conservation law fails.

    Carries a structured ``report`` dict alongside the rendered message:
    simulation time, the violated law, the entity it guards, the counter
    deltas that disagree, and the last few events the monitor observed —
    enough to triage without re-running.
    """

    def __init__(self, message: str, report: dict = None) -> None:
        super().__init__(message)
        self.report = report if report is not None else {}
