"""The hybrid-fidelity equivalence gate.

The fluid background is only trustworthy if, on cases small enough to
afford full packet-level simulation, it reproduces what the packet
engine says. This module runs the *same* tenant population both ways:

* **full** — every tenant is a real :class:`~repro.transport.connection.
  Connection` steered by the :class:`~repro.steering.requirements.
  RequirementPinnedSteerer` (so flows land on the channels their
  requirement class picks — the same rule the fluid engine applies);
* **hybrid** — every tenant runs in the
  :class:`~repro.fleet.fluid.FluidBackground`.

and compares flow-completion-time distribution and per-channel
utilization against :class:`ValidationTolerance`. The tolerances are
documented honestly: a fluid model shares capacity smoothly, so it
cannot reproduce per-packet loss epochs, slow-start overshoot or
retransmission tails — it tracks the *distributional* shape (medians,
upper quantiles within tens of percent, utilization within ~0.12
absolute), not per-flow times. See docs/ARCHITECTURE.md for the full
fidelity boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.api import HvcNetwork
from repro.faults.injector import FaultInjector
from repro.faults.recovery import recovery_percentile
from repro.faults.schedule import FaultSchedule
from repro.fleet.fluid import FluidBackground
from repro.fleet.hybrid import MONITOR_PERIOD, TICK, fleet_channel_specs
from repro.fleet.tenants import PopulationSpec, TenantPopulation
from repro.net.monitor import ChannelMonitor
from repro.steering.requirements import RequirementPinnedSteerer, requirement_class


@dataclass(frozen=True)
class ValidationTolerance:
    """Documented agreement bounds for the equivalence gate."""

    #: Relative error allowed on the pooled FCT median.
    fct_p50_rel: float = 0.35
    #: Relative error allowed on the pooled FCT 90th percentile.
    fct_p90_rel: float = 0.50
    #: Absolute grace on FCT percentile deltas: with tens of samples the
    #: FCT distribution is strongly bimodal (1-RTT vs 2-RTT slow-start
    #: clusters), so a percentile that lands on the cluster boundary can
    #: jump by a whole RTT when one flow changes side. A delta is only a
    #: violation if it exceeds the relative tolerance *and* this many
    #: seconds (one WAN-ish RTT).
    fct_abs_grace: float = 0.05
    #: Absolute error allowed on per-channel (uplink) utilization.
    util_abs: float = 0.12


#: Both engines must finish at least this fraction of tenants.
MIN_COMPLETION = 0.9


def _arm_faults(net: HvcNetwork, fault_rows) -> int:
    """Arm an identical fault schedule against either engine's network."""
    if not fault_rows:
        return 0
    schedule = FaultSchedule.from_params(fault_rows)
    FaultInjector(net, schedule).arm()
    return len(schedule)


def _run_full(
    population: TenantPopulation,
    preset: str,
    duration: float,
    seed: int,
    fault_rows=None,
) -> Dict:
    """Every tenant as a real packet-level connection."""
    specs = fleet_channel_specs(preset)
    steerer = RequirementPinnedSteerer()
    net = HvcNetwork(specs, steering=steerer, seed=seed)
    _arm_faults(net, fault_rows)
    monitor = ChannelMonitor(net.sim, net.channels, period=MONITOR_PERIOD)
    fcts: List[Optional[float]] = [None] * len(population)

    def open_and_send(i: int) -> None:
        rclass = requirement_class(population.classes[i])
        pair = net.open_connection(
            cc=population.ccas[i],
            flow_priority=rclass.flow_priority,
            tenant_id=i,
        )
        steerer.assign(pair.client.flow_id, population.classes[i])
        start = net.sim.now

        def on_acked(message, when, _i=i, _start=start):
            fcts[_i] = when - _start

        pair.client.send_message(population.sizes[i], on_acked=on_acked)

    for i, arrival in enumerate(population.arrivals):
        net.sim.schedule_at(arrival, open_and_send, i)
    net.run(until=duration)
    monitor.stop()
    done = [f for f in fcts if f is not None]
    return {
        "engine": "full",
        "fct": done,
        "completed": len(done),
        "tenants": len(population),
        "utilization": {
            name: series.utilization("up") for name, series in monitor.series.items()
        },
        "events": net.sim.events_processed,
        "outages": sum(ch.outage_count for ch in net.channels),
        "downtime_s": sum(ch.downtime_total for ch in net.channels),
    }


def _run_hybrid(
    population: TenantPopulation,
    preset: str,
    duration: float,
    seed: int,
    fault_rows=None,
) -> Dict:
    """Every tenant as a fluid flow (pure background, no foreground)."""
    specs = fleet_channel_specs(preset)
    net = HvcNetwork(specs, seed=seed)
    _arm_faults(net, fault_rows)
    monitor = ChannelMonitor(net.sim, net.channels, period=MONITOR_PERIOD)
    fluid = FluidBackground(
        net.sim,
        net.channels,
        population,
        tick=TICK,
        horizon=duration,
    )
    fluid.start()
    net.run(until=duration)
    fluid.stop()
    monitor.stop()
    return {
        "engine": "hybrid",
        "fct": fluid.fct_samples(),
        "completed": fluid.completed_count(),
        "tenants": len(population),
        "utilization": {
            name: series.utilization("up") for name, series in monitor.series.items()
        },
        "events": net.sim.events_processed,
        "outages": sum(ch.outage_count for ch in net.channels),
        "downtime_s": sum(ch.downtime_total for ch in net.channels),
        "stalls": fluid.results()["stalls"],
    }


def run_equivalence_case(
    flows: int = 80,
    duration: float = 12.0,
    seed: int = 0,
    preset: str = "small",
    mean_size: float = 6000.0,
    fault_rows=None,
) -> Dict:
    """Run one population through both engines and report the deltas.

    ``fault_rows`` (primitive :meth:`FaultSchedule.to_params` rows) arms
    the *same* disruption against both engines, extending the gate to
    outage cases: the packet engine re-pins stalled flows through the
    requirement steerer while the fluid engine re-steers stalled tenants,
    and the two must still agree distributionally.
    """
    if flows > 100:
        raise ValueError(
            f"equivalence cases are defined for <=100 flows, got {flows} "
            "(full packet-level at fleet scale is the thing we are avoiding)"
        )
    spec = PopulationSpec(
        tenants=flows, duration=duration, seed=seed, mean_size=mean_size
    )
    population = TenantPopulation.generate(spec)
    full = _run_full(population, preset, duration, seed, fault_rows)
    hybrid = _run_hybrid(population, preset, duration, seed, fault_rows)
    deltas = {
        "fct_p50_rel": _relative(
            recovery_percentile(hybrid["fct"], 50), recovery_percentile(full["fct"], 50)
        ),
        "fct_p90_rel": _relative(
            recovery_percentile(hybrid["fct"], 90), recovery_percentile(full["fct"], 90)
        ),
        "fct_p50_abs": abs(
            recovery_percentile(hybrid["fct"], 50) - recovery_percentile(full["fct"], 50)
        ),
        "fct_p90_abs": abs(
            recovery_percentile(hybrid["fct"], 90) - recovery_percentile(full["fct"], 90)
        ),
        "util_abs": {
            name: abs(hybrid["utilization"][name] - full["utilization"][name])
            for name in full["utilization"]
        },
        "completion_full": full["completed"] / max(full["tenants"], 1),
        "completion_hybrid": hybrid["completed"] / max(hybrid["tenants"], 1),
    }
    return {"full": full, "hybrid": hybrid, "deltas": deltas}


def _relative(value: float, reference: float) -> float:
    if reference <= 0:
        return 0.0 if value <= 0 else float("inf")
    return abs(value - reference) / reference


def check_equivalence(
    report: Dict, tolerance: ValidationTolerance = ValidationTolerance()
) -> List[str]:
    """Violations of the documented tolerance (empty list = gate passes)."""
    deltas = report["deltas"]
    violations: List[str] = []
    for q, rel_tol in (("p50", tolerance.fct_p50_rel), ("p90", tolerance.fct_p90_rel)):
        rel = deltas[f"fct_{q}_rel"]
        absd = deltas.get(f"fct_{q}_abs", float("inf"))
        if rel > rel_tol and absd > tolerance.fct_abs_grace:
            violations.append(
                f"FCT {q} off by {rel:.2%} / {absd * 1000:.1f} ms "
                f"(tolerance {rel_tol:.0%} rel and "
                f"{tolerance.fct_abs_grace * 1000:.0f} ms abs)"
            )
    for name, delta in deltas["util_abs"].items():
        if delta > tolerance.util_abs:
            violations.append(
                f"channel {name!r} utilization off by {delta:.3f} "
                f"(tolerance {tolerance.util_abs})"
            )
    for key in ("completion_full", "completion_hybrid"):
        if deltas[key] < MIN_COMPLETION:
            violations.append(f"{key} = {deltas[key]:.2%} < {MIN_COMPLETION:.0%}")
    return violations
