"""Resilience under faults: the outage sweep (``python -m repro faults``).

The paper's HVCs are radio links — they *will* fail (handovers, blocked
mmWave beams, coverage holes). This family measures what each steering
policy buys when the fat channel goes away: a backlogged flow runs on the
Fig. 1 setup (eMBB 50 ms/60 Mbps + URLLC 5 ms/2 Mbps) while a scripted
eMBB outage of swept length hits mid-transfer, and :mod:`repro.faults`
reports goodput through the fault plus time-to-recover.

The shape this reproduces: ``single`` (one channel, the status quo) stalls
for the outage *plus* an RTO-driven recovery tail; ``dchannel`` and
``redundant`` fail over to URLLC within one RTT (failovers > 0, no
recovery samples) and degrade to the thin channel's rate instead of zero.
That asymmetry — multi-channel steering as a resilience mechanism, not
just a latency optimization — is the §3.2 argument the sweep quantifies.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.results import ExperimentResult, SeriesSet, Table
from repro.faults import FaultSchedule
from repro.runner import ParallelRunner, RunUnit
from repro.units import to_mbps

DEFAULT_CCAS = ("cubic", "bbr", "hvc-bbr")
DEFAULT_POLICIES = ("single", "dchannel", "redundant")
#: Swept outage lengths (seconds of eMBB downtime).
DEFAULT_OUTAGES = (0.5, 1.0, 2.0)
DEFAULT_DURATION = 15.0
#: The outage starts here — late enough that every CCA has exited slow
#: start, early enough that the post-outage window is observable.
OUTAGE_START = 5.0
OUTAGE_CHANNEL = "embb"


def outage_schedule(
    outage: float, start: float = OUTAGE_START, channel: str = OUTAGE_CHANNEL
) -> FaultSchedule:
    """The sweep's scripted weather: one outage on the fat channel."""
    return FaultSchedule().outage(channel, start, outage)


def faults_unit(
    cc: str = "cubic",
    steering: str = "dchannel",
    fault_rows: Sequence = (),
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> dict:
    """One (CCA, policy, schedule) resilience run as a picklable payload.

    ``fault_rows`` is :meth:`FaultSchedule.to_params` output — primitive
    tuples, so the unit stays content-addressable in the result cache.
    """
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.faults import FaultInjector, RecoveryTracker
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steering, seed=seed)
    schedule = FaultSchedule.from_params(fault_rows)
    injector = FaultInjector(net, schedule)
    injector.arm()
    tracker = RecoveryTracker(net)
    bulk = BulkTransfer(net, cc=cc)
    net.run(until=duration)

    fault_start = min((fault.start for fault in schedule), default=duration)
    fault_end = schedule.horizon if len(schedule) else duration
    stats = bulk.pair.client.stats
    payload = {
        "mbps": to_mbps(bulk.mean_throughput_bps(0.0, duration)),
        "mbps_before": to_mbps(bulk.mean_throughput_bps(0.0, fault_start)),
        "mbps_during": to_mbps(bulk.mean_throughput_bps(fault_start, fault_end)),
        "mbps_after": to_mbps(bulk.mean_throughput_bps(fault_end, duration)),
        "series": [(t, to_mbps(r)) for t, r in bulk.throughput_series(interval=0.5)],
        "timeouts": stats.timeouts,
        "blackout_timeouts": stats.blackout_timeouts,
        "recovery_probes": stats.recovery_probes,
        "events": net.sim.events_processed,
    }
    payload.update(tracker.summary())
    return payload


def run_faults(
    duration: float = DEFAULT_DURATION,
    outages: Sequence[float] = DEFAULT_OUTAGES,
    ccas: Sequence[str] = DEFAULT_CCAS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """The resilience sweep: eMBB outage length × CCA × steering policy."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="faults",
        description=(
            "Goodput and time-to-recover through a scripted eMBB outage "
            f"(start t={OUTAGE_START:g}s) for every CCA x steering policy. "
            "Multi-channel steering turns a dead stop into a degraded rate."
        ),
    )
    table = Table(
        [
            "outage (s)", "CCA", "policy", "Mbps", "during (Mbps)",
            "failovers", "recovery (s)",
        ],
        title="Outage resilience sweep",
    )
    series = SeriesSet(
        title=f"Goodput through a {max(outages):g}s eMBB outage",
        x_label="s",
        y_label="Mbps",
    )
    cells = [
        (outage, cc, policy)
        for outage in outages
        for cc in ccas
        for policy in policies
    ]
    payloads = runner.run(
        [
            RunUnit.make(
                "faults-outage",
                "repro.experiments.faults:faults_unit",
                seed=seed,
                cc=cc,
                steering=policy,
                fault_rows=outage_schedule(outage).to_params(),
                duration=duration,
            )
            for outage, cc, policy in cells
        ]
    )
    for (outage, cc, policy), payload in zip(cells, payloads):
        key = f"{cc}/{policy}/outage{outage:g}"
        result.values[f"{key}/mbps"] = payload["mbps"]
        result.values[f"{key}/recovery_max_s"] = payload["recovery_max_s"]
        result.values[f"{key}/failovers"] = payload["failovers"]
        result.events_processed += payload["events"]
        table.add_row(
            outage,
            cc,
            policy,
            round(payload["mbps"], 2),
            round(payload["mbps_during"], 2),
            payload["failovers"],
            round(payload["recovery_max_s"], 3),
        )
        if outage == max(outages) and cc == ccas[0]:
            series.add(policy, payload["series"])
    result.tables.append(table)
    result.series.append(series)

    longest = max(outages)
    for cc in ccas:
        single = result.values[f"{cc}/single/outage{longest:g}/recovery_max_s"]
        steered = max(
            result.values[f"{cc}/{policy}/outage{longest:g}/recovery_max_s"]
            for policy in policies
            if policy != "single"
        )
        result.notes.append(
            f"{cc}, {longest:g}s outage: single-channel recovery tail "
            f"{single * 1e3:.0f} ms vs {steered * 1e3:.0f} ms with steering "
            "(failover rides through; no stall to recover from)"
        )
    return result


#: ``--quick``: one outage length, smoke-test scale.
run_faults.quick = {"duration": 10.0, "outages": (1.0,)}
