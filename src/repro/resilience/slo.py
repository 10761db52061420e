"""Recovery-time SLOs per requirement class.

The scorecard grades each requirement class against a time-to-recover
target: after an outage ends, how long may a flow of that class stall
before its SLO is violated? Targets follow the class semantics from
:mod:`repro.steering.requirements` — latency-class traffic (gaming, calls)
must recover almost instantly, deadline traffic within its slack,
throughput traffic within a congestion-control ramp, and background
traffic merely eventually.

The catalogue is data, not policy: the scorecard reports the violation
rate per class and leaves judgement to the reader (EXPERIMENTS.md
documents how to read it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import ScenarioError


@dataclass(frozen=True)
class RecoverySLO:
    """Time-to-recover target for one requirement class."""

    requirement: str
    ttr_target_s: float
    description: str


#: The default SLO catalogue, keyed by requirement class.
RECOVERY_SLOS: Dict[str, RecoverySLO] = {
    slo.requirement: slo
    for slo in (
        RecoverySLO(
            "latency",
            0.25,
            "interactive traffic must fail over within a human-perceptible beat",
        ),
        RecoverySLO(
            "deadline",
            0.5,
            "deadline traffic may burn half its slack re-homing",
        ),
        RecoverySLO(
            "throughput",
            1.0,
            "bulk flows get one congestion-control ramp to resume",
        ),
        RecoverySLO(
            "background",
            5.0,
            "scavenger traffic only has to recover eventually",
        ),
    )
}


def violation_rate(samples: Sequence[float], target_s: float) -> float:
    """Fraction of recovery samples exceeding ``target_s`` (0.0 if none)."""
    if target_s <= 0:
        raise ScenarioError(f"target_s must be positive, got {target_s}")
    if not samples:
        return 0.0
    return sum(1 for s in samples if s > target_s) / len(samples)
