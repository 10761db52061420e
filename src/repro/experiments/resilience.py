"""The recovery-SLO scorecard (``python -m repro resilience``).

A runner-unit grid over disruption regime × steering policy × CCA, in two
modes:

* **packet cells** — one flow per requirement class (latency, deadline,
  throughput, background) on the Fig. 1 channel pair, with the regime's
  fault schedule armed and a :class:`~repro.faults.RecoveryTracker`
  watching. Each cell reports time-to-recover p50/p99, per-class SLO
  violation rates (targets from :mod:`repro.resilience.slo`),
  downtime-weighted goodput (rate through the outage windows vs clear
  air), and failover counts.
* **fleet cells** — one per regime: 10k fluid tenants plus a packet
  foreground on the hybrid engine, the same schedule armed, the full
  invariant catalogue checking every event. The handover regime blacks
  out *every* channel at once — the fleet must stall cleanly and drain
  after restore without violating a law.

Disruption regimes:

=============== ====================================================
regime           schedule source
=============== ====================================================
handover         scripted: one eMBB blackout (packet cells); a
                 correlated all-channel blackout (fleet cell)
starlink-leo     derived from the ``starlink-leo`` catalog trace via
                 :meth:`FaultSchedule.from_trace` (periodic handoff
                 micro-outages)
wifi-5g-handoff  derived from the ``wifi-5g-handoff`` trace (dead
                 gaps + post-handoff delay spikes)
=============== ====================================================

Derived schedules are computed at unit-declaration time and passed into
units as primitive rows, so cells stay content-addressed in the result
cache and warm re-runs are byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.results import ExperimentResult, Table
from repro.faults import FaultSchedule
from repro.runner import ParallelRunner, RunUnit
from repro.units import to_mbps

DEFAULT_REGIMES = ("handover", "starlink-leo", "wifi-5g-handoff")
DEFAULT_POLICIES = ("single", "dchannel", "redundant")
DEFAULT_CCAS = ("cubic", "bbr")
DEFAULT_DURATION = 20.0
QUICK_DURATION = 8.0
#: Fleet cells keep the acceptance-scale tenant mass even in --quick —
#: the fluid stepper's cost is per tick, not per tenant-packet.
FLEET_TENANTS = 10_000
FLEET_FOREGROUND = 4
#: Faults must fully revert before the run ends (final invariant check).
HORIZON_SLACK = 0.25
#: One flow per requirement class, ids pinned for cache stability.
CLASS_FLOWS = (
    ("latency", 501),
    ("deadline", 502),
    ("throughput", 503),
    ("background", 504),
)
#: The scripted handover regime (packet cells): one eMBB blackout. Start
#: and length scale down with short (quick-mode) durations so the
#: blackout always fits inside the clip horizon.
HANDOVER_START = 3.0
HANDOVER_LENGTH = 1.0


def _handover_window(duration: float):
    start = min(HANDOVER_START, duration * 0.4)
    length = min(HANDOVER_LENGTH, duration * 0.2)
    return start, length


def regime_rows(regime: str, duration: float, channel: str = "embb") -> List:
    """The regime's fault schedule as primitive rows, clipped to fit.

    ``handover`` is scripted; trace-named regimes are derived from the
    catalog trace generated at this duration, so the schedule is exactly
    the disruption a traced link would have seen over the run.
    """
    if regime == "handover":
        start, length = _handover_window(duration)
        schedule = FaultSchedule().blackout(channel, start, length)
    else:
        from repro.traces.catalog import get_trace

        trace = get_trace(regime, duration=duration)
        schedule = FaultSchedule.from_trace(trace, channel=channel)
    return schedule.clipped(max(duration - HORIZON_SLACK, 1e-3)).to_params()


def fleet_regime_rows(regime: str, duration: float, channels: Sequence[str]) -> List:
    """Fleet-cell schedules; the handover regime hits *every* channel."""
    if regime == "handover":
        start, length = _handover_window(duration)
        schedule = FaultSchedule().correlated(
            tuple(channels), start, length, kind="blackout"
        )
        return schedule.clipped(max(duration - HORIZON_SLACK, 1e-3)).to_params()
    return regime_rows(regime, duration, channel=channels[0])


def _outage_windows(schedule: FaultSchedule) -> List:
    """Merged union of the schedule's outage/blackout windows."""
    spans = sorted(
        (f.start, f.end) for f in schedule if f.kind in ("outage", "blackout")
    )
    merged: List = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def resilience_unit(
    regime: str = "handover",
    steering: str = "dchannel",
    cc: str = "cubic",
    fault_rows: Sequence = (),
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> dict:
    """One packet-mode scorecard cell as a picklable payload."""
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.faults import FaultInjector, RecoveryTracker
    from repro.net.hvc import fixed_embb_spec, urllc_spec
    from repro.resilience.slo import RECOVERY_SLOS, violation_rate
    from repro.steering.requirements import requirement_class

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steering, seed=seed)
    schedule = FaultSchedule.from_params(fault_rows)
    FaultInjector(net, schedule).arm()
    tracker = RecoveryTracker(net)
    flows: Dict[str, BulkTransfer] = {}
    flow_class: Dict[int, str] = {}
    for rclass, flow_id in CLASS_FLOWS:
        rc = requirement_class(rclass)
        flows[rclass] = BulkTransfer(
            net, cc=cc, flow_priority=rc.flow_priority, flow_id=flow_id
        )
        flow_class[flow_id] = rclass
    net.run(until=duration)

    summary = tracker.summary()
    by_flow = tracker.recovery_by_flow()
    slo_rates: Dict[str, float] = {}
    for rclass, flow_id in CLASS_FLOWS:
        samples = by_flow.get(flow_id, [])
        slo_rates[rclass] = violation_rate(
            samples, RECOVERY_SLOS[rclass].ttr_target_s
        )

    windows = _outage_windows(schedule)
    down_time = sum(end - start for start, end in windows)
    down_bps = 0.0
    total_bps = 0.0
    for bulk in flows.values():
        total_bps += bulk.mean_throughput_bps(0.0, duration)
        for start, end in windows:
            down_bps += bulk.mean_throughput_bps(start, end) * (end - start)
    down_bps = down_bps / down_time if down_time > 0 else 0.0

    return {
        "ttr_p50_s": summary["recovery_p50_s"],
        "ttr_p99_s": summary["recovery_p99_s"],
        "ttr_max_s": summary["recovery_max_s"],
        "recovery_samples": summary["recovery_samples"],
        "failovers": summary["failovers"],
        "outages": summary["outages"],
        "downtime_s": summary["downtime_s"],
        "slo_violation_rates": slo_rates,
        "goodput_mbps": to_mbps(total_bps),
        "goodput_during_outage_mbps": to_mbps(down_bps),
        "outage_window_s": round(down_time, 6),
        "events": net.sim.events_processed,
    }


def resilience_fleet_unit(
    regime: str = "handover",
    fault_rows: Sequence = (),
    tenants: int = FLEET_TENANTS,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> dict:
    """One fleet-mode cell: the hybrid engine under the regime's faults.

    The invariant catalogue is armed on every event and the injector is
    audited, so a fluid tenant pushing load into a dead channel — the
    fault-blindness this subsystem fixes — would fail the run, not skew
    it.
    """
    from repro.check.monitor import InvariantMonitor
    from repro.faults import FaultInjector
    from repro.fleet.hybrid import FleetConfig, FleetSimulation

    config = FleetConfig(
        tenants=tenants,
        foreground=FLEET_FOREGROUND,
        duration=duration,
        seed=seed,
        preset="paper",
    )
    sim = FleetSimulation(config)
    monitor = InvariantMonitor(sim.net).arm()
    schedule = FaultSchedule.from_params(fault_rows)
    if len(schedule):
        injector = FaultInjector(sim.net, schedule).arm()
        monitor.watch_injector(injector)
    out = sim.run()
    monitor.final_check()

    bg = out["background"]
    stalls = bg["stalls"]
    return {
        "tenants": tenants,
        "completed": bg["completed"],
        "active_at_end": bg["active_at_end"],
        "stall_events": stalls["events"],
        "stall_time_s": stalls["time_total_s"],
        "stall_events_by_class": stalls["events_by_class"],
        "stalled_at_end": stalls["stalled_at_end"],
        "outages": sum(ch.outage_count for ch in sim.net.channels),
        "downtime_s": round(
            sum(ch.downtime_total for ch in sim.net.channels), 9
        ),
        "invariant_checks": monitor.checks_run,
        "background_digest": out["background_digest"],
        "events": out["events_processed"],
    }


def run_resilience(
    duration: float = DEFAULT_DURATION,
    regimes: Sequence[str] = DEFAULT_REGIMES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    ccas: Sequence[str] = DEFAULT_CCAS,
    fleet_tenants: int = FLEET_TENANTS,
    fleet_duration: Optional[float] = None,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """The recovery-SLO scorecard: regime × policy × CCA, packet + fleet."""
    runner = runner if runner is not None else ParallelRunner()
    if fleet_duration is None:
        fleet_duration = min(duration, 8.0)
    result = ExperimentResult(
        name="resilience",
        description=(
            "Recovery-SLO scorecard: time-to-recover percentiles, per-class "
            "SLO violation rates, downtime-weighted goodput and failovers "
            "for every disruption regime x steering policy x CCA, plus a "
            "fleet cell per regime (10k fluid tenants, invariants armed)."
        ),
    )
    # Once per regime, not per cell: a trace-named regime generates its
    # catalog trace to derive the schedule.
    rows = {regime: regime_rows(regime, duration) for regime in regimes}
    cells = [
        (regime, policy, cc)
        for regime in regimes
        for policy in policies
        for cc in ccas
    ]
    payloads = runner.run(
        [
            RunUnit.make(
                "resilience",
                "repro.experiments.resilience:resilience_unit",
                seed=seed,
                regime=regime,
                steering=policy,
                cc=cc,
                fault_rows=rows[regime],
                duration=duration,
            )
            for regime, policy, cc in cells
        ]
        + [
            RunUnit.make(
                "resilience-fleet",
                "repro.experiments.resilience:resilience_fleet_unit",
                seed=seed,
                regime=regime,
                fault_rows=fleet_regime_rows(
                    regime, fleet_duration, ("embb", "urllc")
                ),
                tenants=fleet_tenants,
                duration=fleet_duration,
            )
            for regime in regimes
        ]
    )

    table = Table(
        [
            "regime", "policy", "CCA", "TTR p50 (s)", "TTR p99 (s)",
            "failovers", "SLO viol (worst class)", "Mbps", "Mbps in outage",
        ],
        title="Recovery-SLO scorecard (packet cells)",
    )
    for (regime, policy, cc), payload in zip(cells, payloads):
        key = f"{regime}/{policy}/{cc}"
        result.values[f"{key}/ttr_p50_s"] = payload["ttr_p50_s"]
        result.values[f"{key}/ttr_p99_s"] = payload["ttr_p99_s"]
        result.values[f"{key}/failovers"] = payload["failovers"]
        result.values[f"{key}/goodput_mbps"] = round(payload["goodput_mbps"], 3)
        result.values[f"{key}/goodput_during_outage_mbps"] = round(
            payload["goodput_during_outage_mbps"], 3
        )
        rates = payload["slo_violation_rates"]
        for rclass, rate in rates.items():
            result.values[f"{key}/slo_violation_{rclass}"] = round(rate, 4)
        worst = max(rates, key=lambda k: rates[k])
        result.events_processed += payload["events"]
        table.add_row(
            regime,
            policy,
            cc,
            round(payload["ttr_p50_s"], 3),
            round(payload["ttr_p99_s"], 3),
            payload["failovers"],
            f"{worst} {rates[worst]:.0%}",
            round(payload["goodput_mbps"], 2),
            round(payload["goodput_during_outage_mbps"], 2),
        )
    result.tables.append(table)

    fleet_table = Table(
        [
            "regime", "tenants", "completed", "stall events",
            "stall time (s)", "stalled at end", "downtime (s)", "checks",
        ],
        title=f"Fleet cells ({fleet_tenants} fluid tenants, invariants armed)",
    )
    for regime, payload in zip(regimes, payloads[len(cells):]):
        key = f"fleet/{regime}"
        result.values[f"{key}/completed"] = payload["completed"]
        result.values[f"{key}/stall_events"] = payload["stall_events"]
        result.values[f"{key}/stalled_at_end"] = payload["stalled_at_end"]
        result.values[f"{key}/downtime_s"] = payload["downtime_s"]
        result.events_processed += payload["events"]
        fleet_table.add_row(
            regime,
            payload["tenants"],
            payload["completed"],
            payload["stall_events"],
            round(payload["stall_time_s"], 3),
            payload["stalled_at_end"],
            round(payload["downtime_s"], 3),
            payload["invariant_checks"],
        )
    result.tables.append(fleet_table)

    if "single" in policies and "dchannel" in policies:
        for regime in regimes:
            single = max(
                result.values[f"{regime}/single/{cc}/ttr_p99_s"] for cc in ccas
            )
            dchannel = max(
                result.values[f"{regime}/dchannel/{cc}/ttr_p99_s"] for cc in ccas
            )
            result.notes.append(
                f"{regime}: TTR p99 {single * 1e3:.0f} ms single-channel vs "
                f"{dchannel * 1e3:.0f} ms with dchannel steering "
                "(0 ms = failover rode through every disruption)"
            )
    return result


#: ``--quick`` keeps the full regime x policy x CCA grid (the scorecard's
#: acceptance bar includes every cell) and the 10k-tenant fleet cells — only
#: the simulated durations shrink.
run_resilience.quick = {"duration": QUICK_DURATION, "fleet_duration": 6.0}
