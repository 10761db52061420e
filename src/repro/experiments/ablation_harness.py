"""Automated component-importance harness: which part of the stack earns
its keep, measured — not argued.

§3 of the paper claims the HVC stack's value comes from a handful of
load-bearing components: the receiver-side resequencer, steering failback
hysteresis, blackout-suppressed RTOs, SACK recovery, pacing. This harness
turns the claim into a ranking. Each **component** is disabled one at a
time across a set of **scenarios** (each scenario is a workload engineered
to stress one mechanism), the goodput delta against the intact stack is
computed per scenario, and components are ranked by mean relative
degradation. A ``noop`` pseudo-component (disable nothing) anchors the
bottom of the ranking at exactly zero delta — any component ranked above
it measurably matters.

Reading the table: ``delta`` is ``(baseline - ablated) / baseline`` per
scenario — 0.45 means the scenario lost 45% of its goodput without the
component. ``importance`` is the mean delta across all scenarios; the
ranking sorts by it (ties broken by name, so rankings are deterministic
for a given seed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ExperimentResult, Table
from repro.errors import ExperimentError
from repro.experiments.cc_matrix import preset_specs
from repro.faults import FaultSchedule
from repro.runner import ParallelRunner, RunUnit
from repro.units import kib, mbps, to_mbps

#: Components the harness can disable. ``noop`` disables nothing — the
#: control every real component must beat to be called load-bearing.
COMPONENTS = (
    "noop",
    "resequencer",
    "hysteresis",
    "blackout-suppression",
    "sack",
    "pacing",
)

#: Scenario catalogue: name -> (preset, steering policy, CCA, fault plan).
#: Each scenario is reordering-/outage-/loss-/burst-sensitive by design so
#: that *some* component has a lever to show up on; the harness still runs
#: every component against every scenario — a component only ranks high if
#: it matters somewhere, and ranks low honestly if it never does.
SCENARIOS: Dict[str, Tuple[str, str, str, str]] = {
    # DChannel sprays a bulk flow across a 50ms and a 5ms path: without
    # the shim resequencer the receiver sees constant reordering.
    "reorder-bulk": ("paper", "dchannel", "cubic", "none"),
    # The eMBB channel cycles blackout -> sick recovery (90% loss burst
    # right after re-up, the radio-reattach pattern): failback hysteresis
    # is exactly what keeps traffic on URLLC through the sick window.
    "outage-flap": ("paper", "dchannel", "cubic", "flap"),
    # Total blackouts (both channels down): RTO suppression preserves
    # cwnd and retransmission budget across the outage.
    "blackout": ("paper", "dchannel", "cubic", "total-blackout"),
    # A single lossy LEO path: SACK is what keeps recovery per-hole
    # instead of dup-ack guesswork and RTO stalls.
    "lossy-bulk": ("lossy", "single", "cubic", "none"),
    # BBRv1 on a single very shallow queue: unpaced, its 2xBDP window
    # arrives in bursts the buffer cannot absorb — pacing is what
    # trickles the same window in at line rate.
    "paced-bulk": ("burst", "single", "bbr", "none"),
}

DEFAULT_DURATION = 8.0
#: Goodput measurement starts here (skip connection startup only — the
#: scenarios' faults start later than this).
MEASURE_START = 0.5


def _scenario_specs(preset: str):
    from repro.net.hvc import fixed_embb_spec, leo_spec

    if preset == "lossy":
        return [leo_spec(loss_rate=0.02)]
    if preset == "burst":
        # ~5 ms of buffer at 30 Mbps: a paced window fits, a burst does not.
        return [fixed_embb_spec(rate_bps=mbps(30), queue_bytes=kib(20))]
    return preset_specs(preset)


def _scenario_faults(plan: str, duration: float) -> Optional[FaultSchedule]:
    if plan == "none":
        return None
    if plan == "flap":
        # eMBB cycles: 0.3 s blackout, then a 0.45 s "sick recovery"
        # (95% loss — the link is up but the radio is still reattaching).
        # The 0.5 s failback hysteresis covers the sick window almost
        # exactly; without it DChannel floods the 95%-loss channel the
        # moment it reports up.
        schedule = FaultSchedule()
        t = 1.0
        while t + 0.75 < duration - 0.3:
            schedule.blackout("embb", t, 0.3)
            schedule.loss_burst("embb", t + 0.3, 0.45, loss=0.95)
            t += 1.2
        return schedule
    if plan == "total-blackout":
        schedule = FaultSchedule()
        for start in (2.0, 5.0):
            if start + 0.8 < duration:
                schedule.correlated(("embb", "urllc"), start, 0.8, kind="outage")
        return schedule
    raise ExperimentError(f"unknown fault plan {plan!r}")


def ablation_unit(
    scenario: str = "reorder-bulk",
    component: str = "noop",
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> dict:
    """One scenario with one component disabled; goodput is the metric."""
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.faults import FaultInjector

    try:
        preset, policy, cc, fault_plan = SCENARIOS[scenario]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ExperimentError(
            f"unknown ablation scenario {scenario!r}; known: {known}"
        ) from None
    if component not in COMPONENTS:
        known = ", ".join(COMPONENTS)
        raise ExperimentError(
            f"unknown ablation component {component!r}; known: {known}"
        ) from None

    steering_kwargs = None
    if component == "hysteresis" and policy == "dchannel":
        steering_kwargs = {"hysteresis": 0.0}
    net = HvcNetwork(
        _scenario_specs(preset),
        steering=policy,
        steering_kwargs=steering_kwargs,
        seed=seed,
        resequence=(component != "resequencer"),
    )
    schedule = _scenario_faults(fault_plan, duration)
    if schedule is not None:
        FaultInjector(net, schedule).arm()
    bulk = BulkTransfer(
        net,
        cc=cc,
        sack=(component != "sack"),
        pacing=(component != "pacing"),
        blackout_suppression=(component != "blackout-suppression"),
    )
    net.run(until=duration)
    return {
        "mbps": to_mbps(bulk.mean_throughput_bps(start=MEASURE_START)),
        "rtx": bulk.pair.client.stats.retransmissions,
        "events": net.sim.events_processed,
    }


def harness_units(
    scenarios: Sequence[str],
    components: Sequence[str],
    duration: float,
    seed: int,
) -> List[RunUnit]:
    return [
        RunUnit.make(
            "ablation-harness",
            "repro.experiments.ablation_harness:ablation_unit",
            seed=seed,
            scenario=scenario,
            component=component,
            duration=duration,
        )
        for component in components
        for scenario in scenarios
    ]


def run_ablation_harness(
    duration: float = DEFAULT_DURATION,
    scenarios: Sequence[str] = tuple(SCENARIOS),
    components: Sequence[str] = COMPONENTS,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Disable each component across every scenario; rank by mean delta.

    No ``--quick`` scale: the fault scenarios need their cycles to play out
    for the deltas to be meaningful, and the whole grid is 30 short units.
    """
    if "noop" not in components:
        components = ("noop",) + tuple(components)
    runner = runner if runner is not None else ParallelRunner()
    units = harness_units(scenarios, components, duration, seed)
    payloads = runner.run(units)
    grid: Dict[Tuple[str, str], dict] = {
        (unit.kwargs["component"], unit.kwargs["scenario"]): payload
        for unit, payload in zip(units, payloads)
    }

    result = ExperimentResult(
        name="ablate",
        description=(
            "Component-importance ranking: each stack component disabled "
            "one at a time across reordering/outage/loss/pacing-sensitive "
            "scenarios; components ranked by mean goodput degradation."
        ),
    )
    grid_table = Table(
        ["component"] + [f"{s} (Mbps)" for s in scenarios],
        title="Goodput with component disabled",
    )
    scores: Dict[str, float] = {}
    for component in components:
        deltas = []
        row: List[object] = [component]
        for scenario in scenarios:
            baseline = grid[("noop", scenario)]["mbps"]
            ablated = grid[(component, scenario)]["mbps"]
            row.append(ablated)
            delta = (baseline - ablated) / baseline if baseline > 0 else 0.0
            result.values[f"{component}/{scenario}/mbps"] = round(ablated, 3)
            result.values[f"{component}/{scenario}/delta"] = round(delta, 4)
            deltas.append(delta)
        grid_table.add_row(*row)
        scores[component] = sum(deltas) / len(deltas)
    result.tables.append(grid_table)
    for payload in payloads:
        result.events_processed += payload["events"]

    ranking = sorted(scores, key=lambda name: (-scores[name], name))
    rank_table = Table(
        ["rank", "component", "importance", "worst scenario"],
        title="Component importance (mean relative goodput loss)",
    )
    for position, component in enumerate(ranking, start=1):
        worst = max(
            scenarios,
            key=lambda s: result.values[f"{component}/{s}/delta"],
        )
        rank_table.add_row(
            position,
            component,
            scores[component],
            f"{worst} ({result.values[f'{component}/{worst}/delta']:+.0%})",
        )
        result.values[f"rank/{component}"] = position
        result.values[f"importance/{component}"] = round(scores[component], 4)
    result.tables.append(rank_table)
    result.notes.append(
        "ranking: " + " > ".join(ranking)
        + "  (noop anchors zero; anything above it is load-bearing)"
    )
    return result
