"""The CCA coexistence matrix: who shares, who starves, and where.

§3 argues that heterogeneous virtual channels only *help* applications if
the transport stack — steering, resequencing, per-channel RTT hygiene —
keeps each CCA's control loop honest. This experiment measures the claim
head-on: every unordered CCA pair competes on every channel preset under
every steering policy, and we report

* **Jain fairness index** of the two goodputs — ``(Σx)² / (n·Σx²)``,
  1.0 when the flows split the capacity evenly, 0.5 when one starves;
* **goodput shares** — each flow's fraction of the combined goodput;
* **RTT-unfairness** — ``max(mean RTT) / min(mean RTT)`` across the two
  flows, the latecomer-penalty metric of the RTT-unfairness literature.

The headline cell (pinned by the golden-shape tests): on a shallow
buffer, BBRv2/BBRv2+ vs CUBIC is markedly fairer than BBRv1 vs CUBIC —
v2's 2% loss cap on PROBE_UP (and v2+'s delay-aware probe abort) stops
the probe from bulldozing the loss-based flow, the coexistence fix the
BBRv2 drafts were written for.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ExperimentResult, Table
from repro.errors import ExperimentError
from repro.runner import ParallelRunner, RunUnit
from repro.units import kib, to_mbps, to_ms

#: The CCAs the full matrix sweeps (21 unordered pairs). BBRv1 stays in so
#: the v1-vs-v2 coexistence delta is measured, not assumed.
MATRIX_CCAS = ("cubic", "reno", "bbr", "bbr2", "bbr2+", "vegas")
#: The reduced set ``--quick`` (CI smoke) sweeps: the headline CCAs only.
QUICK_CCAS = ("cubic", "bbr", "bbr2+")
#: Channel presets: the paper's Fig. 1 emulation, a WAN pair, and a
#: shallow-buffer variant of the paper preset where loss — not delay — is
#: the binding signal (the cell that separates BBRv1 from BBRv2).
PRESETS = ("paper", "shallow", "wan")
#: Steering policies the matrix crosses.
POLICIES = ("dchannel", "min-rtt")

DEFAULT_DURATION = 10.0

#: eMBB buffer for the "shallow" preset: ~16 ms at 60 Mbps, the regime
#: where BBRv1's loss-blind PROBE_BW punishes loss-based competitors.
SHALLOW_EMBB_QUEUE = kib(120)


def preset_specs(preset: str):
    """Channel specs for a named matrix preset."""
    from repro.net.hvc import fiber_wan_spec, fixed_embb_spec, leo_spec, urllc_spec

    if preset == "paper":
        return [fixed_embb_spec(), urllc_spec()]
    if preset == "shallow":
        return [fixed_embb_spec(queue_bytes=SHALLOW_EMBB_QUEUE), urllc_spec()]
    if preset == "wan":
        return [fiber_wan_spec(), leo_spec()]
    raise ExperimentError(
        f"unknown cc-matrix preset {preset!r}; known: {', '.join(PRESETS)}"
    )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1/n (one hog) .. 1.0 (perfect sharing)."""
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0:
        return 1.0  # no flow moved any bytes: vacuously fair
    return (total * total) / (len(values) * squares)


def _mean_rtt(records, start: float) -> Optional[float]:
    samples = [r.rtt for r in records if r.time >= start]
    if not samples:
        return None
    return sum(samples) / len(samples)


def pair_unit(
    cc_a: str = "cubic",
    cc_b: str = "cubic",
    preset: str = "paper",
    steering: str = "dchannel",
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> dict:
    """Two backlogged flows compete; steady-window goodput + RTT each."""
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork

    net = HvcNetwork(preset_specs(preset), steering=steering, seed=seed)
    flow_a = BulkTransfer(net, cc=cc_a)
    flow_b = BulkTransfer(net, cc=cc_b)
    net.run(until=duration)
    # Skip the first quarter: startup transients (slow start, STARTUP
    # overshoot) are not the steady-state sharing being measured.
    start = duration * 0.25
    rtt_a = _mean_rtt(flow_a.rtt_records(), start)
    rtt_b = _mean_rtt(flow_b.rtt_records(), start)
    return {
        "mbps_a": to_mbps(flow_a.mean_throughput_bps(start=start)),
        "mbps_b": to_mbps(flow_b.mean_throughput_bps(start=start)),
        "rtt_a_ms": to_ms(rtt_a) if rtt_a is not None else None,
        "rtt_b_ms": to_ms(rtt_b) if rtt_b is not None else None,
        "events": net.sim.events_processed,
    }


def matrix_cells(
    ccas: Sequence[str] = MATRIX_CCAS,
    presets: Sequence[str] = PRESETS,
    policies: Sequence[str] = POLICIES,
) -> List[Tuple[str, str, str, str]]:
    """Every (preset, policy, cc_a, cc_b) cell, unordered CCA pairs."""
    pairs = list(combinations_with_replacement(ccas, 2))
    return [
        (preset, policy, cc_a, cc_b)
        for preset in presets
        for policy in policies
        for cc_a, cc_b in pairs
    ]


def rtt_unfairness(rtt_a_ms: Optional[float], rtt_b_ms: Optional[float]) -> Optional[float]:
    """max/min of the two flows' mean RTTs; None when a flow saw no RTT."""
    if not rtt_a_ms or not rtt_b_ms:
        return None
    lo, hi = sorted((rtt_a_ms, rtt_b_ms))
    if lo <= 0:
        return None
    return hi / lo


def run_cc_matrix(
    duration: float = DEFAULT_DURATION,
    ccas: Sequence[str] = MATRIX_CCAS,
    presets: Sequence[str] = PRESETS,
    policies: Sequence[str] = POLICIES,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Run the full coexistence matrix and aggregate fairness metrics."""
    runner = runner if runner is not None else ParallelRunner()
    cells = matrix_cells(ccas=ccas, presets=presets, policies=policies)
    payloads = runner.run(
        [
            RunUnit.make(
                "cc-matrix",
                "repro.experiments.cc_matrix:pair_unit",
                seed=seed,
                cc_a=cc_a,
                cc_b=cc_b,
                preset=preset,
                steering=policy,
                duration=duration,
            )
            for preset, policy, cc_a, cc_b in cells
        ]
    )

    result = ExperimentResult(
        name="cc-matrix",
        description=(
            "CCA coexistence matrix: Jain fairness, goodput shares and "
            "RTT-unfairness for every CCA pair x channel preset x steering "
            "policy (two competing bulk flows per cell)."
        ),
    )
    table = Table(
        [
            "preset",
            "policy",
            "pair",
            "jain",
            "share A",
            "share B",
            "rtt-unfair",
            "A (Mbps)",
            "B (Mbps)",
        ],
        title="CCA coexistence matrix",
    )
    per_policy_jain: Dict[Tuple[str, str], List[float]] = {}
    for (preset, policy, cc_a, cc_b), payload in zip(cells, payloads):
        mbps_a, mbps_b = payload["mbps_a"], payload["mbps_b"]
        jain = jain_index((mbps_a, mbps_b))
        total = mbps_a + mbps_b
        share_a = mbps_a / total if total > 0 else 0.5
        unfair = rtt_unfairness(payload["rtt_a_ms"], payload["rtt_b_ms"])
        key = f"{preset}/{policy}/{cc_a}|{cc_b}"
        result.values[f"{key}/jain"] = round(jain, 4)
        result.values[f"{key}/share_a"] = round(share_a, 4)
        result.values[f"{key}/mbps_a"] = round(mbps_a, 3)
        result.values[f"{key}/mbps_b"] = round(mbps_b, 3)
        if unfair is not None:
            result.values[f"{key}/rtt_unfairness"] = round(unfair, 3)
        result.events_processed += payload["events"]
        per_policy_jain.setdefault((preset, policy), []).append(jain)
        table.add_row(
            preset,
            policy,
            f"{cc_a} vs {cc_b}",
            jain,
            share_a,
            1.0 - share_a,
            unfair if unfair is not None else "-",
            mbps_a,
            mbps_b,
        )
    result.tables.append(table)

    summary = Table(
        ["preset", "policy", "mean jain", "worst jain"],
        title="Fairness summary (per preset x policy)",
    )
    for (preset, policy), jains in sorted(per_policy_jain.items()):
        mean_jain = sum(jains) / len(jains)
        result.values[f"{preset}/{policy}/mean_jain"] = round(mean_jain, 4)
        summary.add_row(preset, policy, mean_jain, min(jains))
    result.tables.append(summary)

    _headline_notes(result, ccas, presets, policies)
    return result


#: ``--quick``: 6 pairs instead of 21 per preset/policy, short cells.
run_cc_matrix.quick = {"duration": 2.5, "ccas": QUICK_CCAS}


def _headline_notes(
    result: ExperimentResult,
    ccas: Sequence[str],
    presets: Sequence[str],
    policies: Sequence[str],
) -> None:
    """The v1-vs-v2 coexistence delta, spelled out when measurable."""
    if "bbr" not in ccas or "cubic" not in ccas:
        return
    v2 = "bbr2+" if "bbr2+" in ccas else ("bbr2" if "bbr2" in ccas else None)
    if v2 is None:
        return
    def pair_value(preset: str, policy: str, a: str, b: str) -> Optional[float]:
        return result.values.get(
            f"{preset}/{policy}/{a}|{b}/jain",
            result.values.get(f"{preset}/{policy}/{b}|{a}/jain"),
        )

    for preset in presets:
        for policy in policies:
            v1_jain = pair_value(preset, policy, "bbr", "cubic")
            v2_jain = pair_value(preset, policy, v2, "cubic")
            if v1_jain is None or v2_jain is None:
                continue
            verdict = "improves on" if v2_jain > v1_jain else "trails"
            result.notes.append(
                f"{preset}/{policy}: {v2} vs cubic jain {v2_jain:.3f} "
                f"{verdict} bbr vs cubic ({v1_jain:.3f})"
            )
