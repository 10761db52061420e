"""Figure 1: delay-based congestion control vs DChannel steering.

Setup (§3.1): two emulated HVCs with a latency–bandwidth trade-off —
eMBB at 50 ms RTT / 60 Mbps (5G Lowband under movement) and URLLC at
5 ms RTT / 2 Mbps — with DChannel steering packets between them.

* **Fig. 1a** — average throughput of CUBIC, BBR, Vegas and PCC Vivace
  over a long bulk transfer. Paper: 60 / 26.5 / 2.73 / 1.49 Mbps — the
  loss-based CCA fills the pipe, every delay-dependent CCA collapses.
* **Fig. 1b** — the RTT samples BBR observes over time: bimodal, with the
  min-RTT probe visible near the 10 s mark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.results import ExperimentResult, PaperComparison, SeriesSet, Table
from repro.runner import ParallelRunner, RunUnit
from repro.units import to_mbps, to_ms

# Simulator imports live in the functions that build a network or run a unit:
# declaring units and rendering cached payloads (a warm run) never load it.
if TYPE_CHECKING:
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork

#: Paper-reported mean throughputs (Mbps) on this setup.
PAPER_THROUGHPUT_MBPS = {
    "cubic": 60.0,
    "bbr": 26.5,
    "vegas": 2.73,
    "vivace": 1.49,
}

DEFAULT_CCAS = ("cubic", "bbr", "vegas", "vivace")
DEFAULT_DURATION = 60.0


def _fig1_network(steering: str = "dchannel", seed: int = 0, **kwargs) -> HvcNetwork:
    from repro.core.api import HvcNetwork
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    return HvcNetwork(
        [fixed_embb_spec(), urllc_spec()], steering=steering, seed=seed, **kwargs
    )


def _steering_for(policy):
    """The paper's ``embb-only`` baseline (Fig. 2, Table 1, the policy zoo)
    pins everything to the channel named ``embb``; any other policy is a
    registry name, resolved once per device."""
    if policy == "embb-only":
        from repro.steering.single import SingleChannelSteerer

        return SingleChannelSteerer(channel_name="embb")
    return policy


def run_single_cca(
    cc: str,
    duration: float = DEFAULT_DURATION,
    steering: str = "dchannel",
    seed: int = 0,
    obs=None,
) -> BulkTransfer:
    """One Fig. 1 bulk flow; returns the finished transfer for inspection.

    Pass an :class:`repro.obs.Observability` to instrument the run (it is
    attached before the connection opens, so transport probes engage).
    """
    from repro.apps.bulk import BulkTransfer

    net = _fig1_network(steering=steering, seed=seed)
    if obs is not None:
        net.attach_obs(obs)
    bulk = BulkTransfer(net, cc=cc)
    net.run(until=duration)
    return bulk


def fig1a_unit(
    cc: str = "cubic",
    duration: float = DEFAULT_DURATION,
    steering: str = "dchannel",
    seed: int = 0,
    trace_dir: Optional[str] = None,
) -> dict:
    """One Fig. 1 bulk flow reduced to a picklable payload (runner unit)."""
    obs = _unit_obs(trace_dir)
    bulk = run_single_cca(cc, duration=duration, steering=steering, seed=seed, obs=obs)
    payload = {
        "mbps": to_mbps(bulk.mean_throughput_bps(start=0.0, end=duration)),
        "series": [
            (t, to_mbps(r)) for t, r in bulk.throughput_series(interval=1.0)
        ],
        "events": bulk.net.sim.events_processed,
    }
    if obs is not None:
        payload["trace"] = _export_trace(obs, trace_dir, f"fig1a-{cc}")
    return payload


def _unit_obs(trace_dir: Optional[str]):
    """A tracing-enabled Observability when a trace directory is given.

    The file :func:`_export_trace` writes is part of a traced unit's output
    and the result cache holds payloads only, so every ``run_*`` that takes
    a ``trace_dir`` runs its traced units with ``cached=False``.
    """
    if trace_dir is None:
        return None
    from repro.obs import Observability

    return Observability(tracing=True)


def _export_trace(obs, trace_dir: str, name: str) -> str:
    import os

    path = os.path.join(trace_dir, f"{name}.jsonl")
    obs.export_jsonl(path)
    return path


def fig1a_units(
    ccas: Sequence[str],
    duration: float,
    seed: int,
    steering: str = "dchannel",
    trace_dir: Optional[str] = None,
) -> List[RunUnit]:
    """Declare Fig. 1a's per-CCA runs (shared with the ab-cc ablation)."""
    extra = {} if trace_dir is None else {"trace_dir": trace_dir}
    return [
        RunUnit.make(
            "fig1-cca",
            "repro.experiments.fig1:fig1a_unit",
            seed=seed,
            cc=cc,
            duration=duration,
            steering=steering,
            **extra,
        )
        for cc in ccas
    ]


def run_fig1a(
    duration: float = DEFAULT_DURATION,
    ccas: Sequence[str] = DEFAULT_CCAS,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    """Regenerate Fig. 1a: throughput per CCA under DChannel steering."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="fig1a",
        description=(
            "Throughput achieved by CCAs with DChannel on two paths with a "
            "latency-bandwidth trade-off (eMBB 50ms/60Mbps + URLLC 5ms/2Mbps)."
        ),
    )
    table = Table(["CCA", "throughput (Mbps)", "paper (Mbps)"], title="Fig. 1a")
    series = SeriesSet(
        title="Fig. 1a throughput over time", x_label="s", y_label="Mbps"
    )
    payloads = runner.run(
        fig1a_units(ccas, duration, seed, trace_dir=trace_dir),
        cached=trace_dir is None,
    )
    for cc, payload in zip(ccas, payloads):
        mbps = payload["mbps"]
        result.values[cc] = mbps
        result.events_processed += payload["events"]
        if "trace" in payload:
            result.artifacts[f"trace:{cc}"] = payload["trace"]
        paper = PAPER_THROUGHPUT_MBPS.get(cc)
        table.add_row(cc, mbps, paper if paper is not None else "-")
        if paper is not None:
            result.comparisons.append(
                PaperComparison(f"{cc} throughput", paper, round(mbps, 2), " Mbps")
            )
        series.add(cc, [(t, r) for t, r in payload["series"]])
    result.tables.append(table)
    result.series.append(series)
    if set(DEFAULT_CCAS) <= set(ccas):
        tp = result.values
        result.shapes.update({
            "cubic > bbr > vegas > vivace": tp["cubic"] > tp["bbr"] > tp["vegas"] > tp["vivace"],
            "cubic > 3x bbr": tp["cubic"] > 3 * tp["bbr"],
            "cubic >= 5x vivace": tp["cubic"] >= 5 * tp["vivace"],
            "cubic > 45 Mbps": tp["cubic"] > 45,
            "bbr < 31 Mbps": tp["bbr"] < 31,
            "vegas < 10 Mbps": tp["vegas"] < 10,
            "vivace < 4 Mbps": tp["vivace"] < 4,
        })
    return result


run_fig1a.quick = {"duration": 10.0}


def fig1b_unit(
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    trace_dir: Optional[str] = None,
) -> dict:
    """BBR's RTT samples as picklable tuples (runner unit)."""
    obs = _unit_obs(trace_dir)
    bulk = run_single_cca("bbr", duration=duration, seed=seed, obs=obs)
    payload = {
        "records": [
            (r.time, r.rtt, r.data_channel, r.ack_channel)
            for r in bulk.rtt_records()
        ],
        "events": bulk.net.sim.events_processed,
    }
    if obs is not None:
        payload["trace"] = _export_trace(obs, trace_dir, "fig1b-bbr")
    return payload


class _RecordView:
    """Tuple-backed stand-in for RttRecord after a runner round-trip."""

    __slots__ = ("time", "rtt", "data_channel", "ack_channel")

    def __init__(self, row: Tuple[float, float, int, int]) -> None:
        self.time, self.rtt, self.data_channel, self.ack_channel = row


def run_fig1b(
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    """Regenerate Fig. 1b: packet RTTs observed by BBR under steering."""
    runner = runner if runner is not None else ParallelRunner()
    extra = {} if trace_dir is None else {"trace_dir": trace_dir}
    payload = runner.run_one(
        RunUnit.make(
            "fig1b",
            "repro.experiments.fig1:fig1b_unit",
            seed=seed,
            duration=duration,
            **extra,
        ),
        cached=trace_dir is None,
    )
    records = [_RecordView(row) for row in payload["records"]]
    result = ExperimentResult(
        name="fig1b",
        description="Packet RTTs observed by BBR when using DChannel.",
        events_processed=payload["events"],
    )
    if "trace" in payload:
        result.artifacts["trace:bbr"] = payload["trace"]
    series = SeriesSet(title="Fig. 1b BBR RTT samples", x_label="s", y_label="ms")
    series.add("rtt", [(r.time, to_ms(r.rtt)) for r in records])
    result.series.append(series)

    rtts_ms = [to_ms(r.rtt) for r in records]
    result.values["samples"] = len(rtts_ms)
    result.values["min_rtt_ms"] = min(rtts_ms)
    result.values["max_rtt_ms"] = max(rtts_ms)

    # The confusion mechanism, made explicit: RTT samples split into modes
    # by which channel the *data* took (the ACK usually rides URLLC either
    # way). Neither mode reflects the eMBB path's true 50 ms propagation
    # RTT, so BBR's min-RTT filter latches far below it and the BDP —
    # hence throughput — is underestimated (Fig. 1a).
    by_data_channel = {}
    for record in records:
        by_data_channel.setdefault(record.data_channel, []).append(to_ms(record.rtt))
    for channel, samples in sorted(by_data_channel.items()):
        ordered = sorted(samples)
        median = ordered[len(ordered) // 2]
        result.values[f"data_ch{channel}_samples"] = len(samples)
        result.values[f"data_ch{channel}_median_ms"] = median
        result.values[f"data_ch{channel}_min_ms"] = ordered[0]
        result.notes.append(
            f"data on channel {channel}: {len(samples)} samples, "
            f"median {median:.1f} ms (range {min(samples):.1f}–{max(samples):.1f})"
        )
    cross = [r for r in records if r.data_channel != r.ack_channel]
    result.values["cross_channel_samples"] = len(cross)
    result.notes.append(
        f"min RTT sample {min(rtts_ms):.1f} ms vs eMBB propagation RTT 50 ms — "
        "the min-RTT poisoning behind Fig. 1a's BBR collapse"
    )
    values = result.values
    result.shapes.update({
        "more than 200 RTT samples": values["samples"] > 200,
        "data on each channel yields >= 100 samples": all(
            values.get(f"data_ch{channel}_samples", 0) >= 100 for channel in (0, 1)
        ),
        "some samples cross channels (data and ACK apart)": values["cross_channel_samples"] > 0,
        "URLLC-data mode reaches below 15 ms": values.get("data_ch1_min_ms", 15) < 15,
        "eMBB-data mode median >= 20 ms": values.get("data_ch0_median_ms", 0) >= 20,
    })
    # The paper's Fig. 1b samples reach well past 50 ms; here ACKs almost
    # never return on eMBB, so no sample sees its 50 ms propagation RTT.
    result.pins["max RTT sample < 45 ms (paper: samples past 50 ms)"] = values["max_rtt_ms"] < 45
    return result


run_fig1b.quick = {"duration": 10.0}
