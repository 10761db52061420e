"""repro.resilience — trace-derived disruption and recovery SLOs.

The paper's §3 argues HVC earns its keep when channels *misbehave* —
handoffs, blackouts, delay spikes — not in steady state. This package
turns that claim into measurable artifacts:

* :mod:`repro.resilience.derive` scans any :class:`~repro.traces.model.
  NetworkTrace` for dead intervals, rate collapses, and delay spikes and
  emits a validated :class:`~repro.faults.FaultSchedule` aligned to the
  trace — every catalog trace doubles as a fault campaign
  (``FaultSchedule.from_trace`` is the public entry point).
* :mod:`repro.resilience.slo` defines the per-requirement-class
  recovery-time SLO catalogue the scorecard grades against.

``python -m repro resilience`` (see :mod:`repro.experiments.resilience`)
runs the recovery-SLO scorecard: disruption regime × steering policy ×
CCA, in both packet and fleet modes.
"""

from repro.resilience.derive import (
    DeadInterval,
    collapse_intervals,
    dead_intervals,
    delay_spike_intervals,
    schedule_from_trace,
)
from repro.resilience.slo import (
    RECOVERY_SLOS,
    RecoverySLO,
    violation_rate,
)

__all__ = [
    "DeadInterval",
    "RECOVERY_SLOS",
    "RecoverySLO",
    "collapse_intervals",
    "dead_intervals",
    "delay_spike_intervals",
    "schedule_from_trace",
    "violation_rate",
]
