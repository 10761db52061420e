"""repro.faults — deterministic fault injection and resilience metrics.

The reliability half of the paper's argument (§3.2): URLLC exists because
channels fail in ways applications care about. This package scripts those
failures and measures how the stack reacts::

    from repro.faults import FaultSchedule, FaultInjector, RecoveryTracker

    schedule = (
        FaultSchedule()
        .outage("embb", start=5.0, duration=2.0)
        .loss_burst("urllc", start=4.0, duration=4.0, loss=0.3)
    )
    tracker = RecoveryTracker(net)
    FaultInjector(net, schedule).arm()
    net.run(until=20.0)
    print(tracker.summary())   # outages, failovers, time-to-recover

Schedules are plain data (picklable, cache-hashable); injection is ordinary
simulator events, so runs stay deterministic and the runner cache applies.
``python -m repro faults`` sweeps outage durations across CCAs × steering
policies and reports time-to-recover per cell.
"""

from repro.faults.schedule import KINDS, Fault, FaultSchedule

#: The names whose modules import the simulator, resolved on first access
#: (PEP 562) like the package root's, so declaring a schedule loads none of it.
_EXPORTS = {
    "AppliedFault": "repro.faults.injector:AppliedFault",
    "FaultInjector": "repro.faults.injector:FaultInjector",
    "FaultLossOverlay": "repro.faults.injector:FaultLossOverlay",
    "RecoveryTracker": "repro.faults.recovery:RecoveryTracker",
}

__all__ = [
    "AppliedFault",
    "Fault",
    "FaultInjector",
    "FaultLossOverlay",
    "FaultSchedule",
    "KINDS",
    "RecoveryTracker",
]


def __getattr__(name: str):
    path = _EXPORTS.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.runner.units import resolve_fn

    return resolve_fn(path)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
