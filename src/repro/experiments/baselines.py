"""The policy zoo: every steering baseline on the web workload.

The paper's related-work argument in one table: heterogeneity-blind
multipath (round-robin), MPTCP-style schedulers (minRTT,
ECF), IANS-style flow-level selection (flow-pinned), DChannel's per-packet
steering, and transport-aware segment steering — all loading the same pages
over driving-trace eMBB + URLLC.

Expected ordering (the paper's narrative):

* eMBB-only — baseline;
* flow-pinned — little or no win (whole flows on one channel; web flows
  are too big for URLLC, so most pins land on eMBB);
* round-robin — actively harmful (half the bytes take a 2 Mbps channel);
* minRTT/ECF — moderate (delay-aware but class-blind);
* dchannel / transport-aware — best (accelerate the right packets).

Two more policy comparisons live here:

* ``general`` — the paper's concluding composite policy (§4) against each
  workload's specialist, on Fig. 2's and Table 1's own units: priority
  steering on mmWave-driving video, DChannel + flow priorities on driving
  web loads;
* ``h1-vs-h2`` — this module's page-load unit under both delivery modes:
  one HTTP/2 multiplexed connection vs HTTP/1.1's six parallel ones, over
  eMBB only and under DChannel.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.metrics import Cdf
from repro.core.results import ExperimentResult, Table
from repro.experiments.table1 import corpus_plts, web_network
from repro.runner import ParallelRunner, RunUnit, resolve_fn
from repro.units import to_ms

BASELINE_POLICIES = (
    "embb-only",
    "flow-pinned",
    "round-robin",
    "min-rtt",
    "ecf",
    "dchannel",
    "transport-aware",
)


#: Page loaders by picklable name: HTTP/2-style multiplexing, HTTP/1.1's
#: parallel connections.
LOADERS = {
    "h2": "repro.apps.web.browser:load_page",
    "h1": "repro.apps.web.h1:load_page_h1",
}


def baseline_policy_unit(
    policy: str = "dchannel", page_count: int = 10, seed: int = 0, loader: str = "h2"
) -> dict:
    """Mean PLT for one steering policy over the corpus (runner unit)."""
    from repro.apps.web.corpus import generate_corpus

    plts, events = corpus_plts(
        generate_corpus(count=page_count, seed=seed),
        lambda index: web_network("5g-lowband-driving", policy, seed=seed + index),
        background=False,
        loader_fn=resolve_fn(LOADERS[loader]),
    )
    return {"plt_ms": to_ms(sum(plts) / len(plts)), "events": events}


def run_baselines(
    policies: Sequence[str] = BASELINE_POLICIES,
    page_count: int = 10,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Mean web PLT per steering policy (driving trace, no background)."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="baselines",
        description=(
            "Mean web PLT for the whole steering-policy zoo over "
            "5G Lowband driving + URLLC."
        ),
    )
    table = Table(["policy", "mean PLT (ms)", "vs eMBB-only"], title="Policy zoo")
    means: Dict[str, float] = {}
    payloads = runner.run(
        [
            RunUnit.make(
                "baseline-policy",
                "repro.experiments.baselines:baseline_policy_unit",
                seed=seed,
                policy=policy,
                page_count=page_count,
            )
            for policy in policies
        ]
    )
    for policy, payload in zip(policies, payloads):
        means[policy] = payload["plt_ms"]
        result.values[policy] = means[policy]
        result.events_processed += payload["events"]
    baseline = means.get("embb-only")
    for policy in policies:
        delta = (
            f"{100 * (1 - means[policy] / baseline):+.1f}%"
            if baseline
            else "-"
        )
        table.add_row(policy, means[policy], delta)
    result.tables.append(table)
    ordering = sorted(means, key=means.get)
    result.notes.append("fastest to slowest: " + " < ".join(ordering))
    if set(BASELINE_POLICIES) <= set(means):
        dchannel, aware = means["dchannel"], means["transport-aware"]
        result.shapes.update({
            "dchannel < embb-only": dchannel < baseline,
            "transport-aware < embb-only": aware < baseline,
            "round-robin > embb-only": means["round-robin"] > baseline,
            "flow-pinned > embb-only": means["flow-pinned"] > baseline,
            "transport-aware <= 1.05x dchannel": aware <= 1.05 * dchannel,
        })
    return result


run_baselines.quick = {"page_count": 3}


def run_general(
    duration: float = 30.0,
    page_count: int = 8,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """The composite ``general`` policy vs each workload's specialist.

    The paper's conclusion claims one design — per-packet steering plus
    optional app hints plus HVC awareness — serves every workload. The cells
    are Fig. 2's and Table 1's own units, so they share those experiments'
    cache entries at equal scale.
    """
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="general",
        description=(
            "§4's composite policy against each workload's specialist: video "
            "p95 latency (mmWave driving) and web mean PLT (Lowband driving, "
            "background flows)."
        ),
    )
    video_schemes = ("priority", "general")
    web_policies = ("dchannel+flowprio", "general")
    payloads = runner.run(
        [
            RunUnit.make(
                "fig2-cell",
                "repro.experiments.fig2:fig2_cell_unit",
                seed=seed,
                trace="5g-mmwave-driving",
                scheme=scheme,
                duration=duration,
            )
            for scheme in video_schemes
        ]
        + [
            RunUnit.make(
                "table1-cell",
                "repro.experiments.table1:table1_cell_unit",
                seed=seed,
                condition="driving",
                policy=policy,
                page_count=page_count,
                loads_per_page=1,
            )
            for policy in web_policies
        ]
    )
    table = Table(
        ["workload", "specialist", "specialist's", "general's", "general / specialist"],
        title="Composite policy vs specialists",
    )
    rows = (
        ("video", "p95 latency (ms)", video_schemes[0],
         [to_ms(Cdf(cell["latencies"]).percentile(95)) for cell in payloads[:2]]),
        ("web", "mean PLT (ms)", web_policies[0],
         [to_ms(sum(cell["plts"]) / len(cell["plts"])) for cell in payloads[2:]]),
    )
    for workload, metric, specialist, (special, composite) in rows:
        result.values[f"{workload}:{specialist}"] = special
        result.values[f"{workload}:general"] = composite
        table.add_row(
            f"{workload} {metric}", specialist, special, composite,
            f"{composite / special:.3f}",
        )
        result.shapes[f"{workload}: general <= 1.10x {specialist}"] = composite <= 1.10 * special
    result.events_processed = sum(cell["events"] for cell in payloads)
    result.tables.append(table)
    return result


run_general.quick = {"duration": 10.0, "page_count": 4}


def run_h1_vs_h2(
    page_count: int = 8,
    seed: int = 0,
    runner: Optional[ParallelRunner] = None,
) -> ExperimentResult:
    """Delivery mode × steering: HTTP/2 multiplexing vs HTTP/1.1 parallel
    connections, each over eMBB only and under DChannel (driving trace, no
    background)."""
    runner = runner if runner is not None else ParallelRunner()
    result = ExperimentResult(
        name="h1-vs-h2",
        description=(
            "Mean web PLT per delivery mode and steering policy over "
            "5G Lowband driving + URLLC."
        ),
    )
    policies = ("embb-only", "dchannel")
    cells = [(policy, loader) for policy in policies for loader in LOADERS]
    payloads = runner.run(
        [
            RunUnit.make(
                "baseline-policy",
                "repro.experiments.baselines:baseline_policy_unit",
                seed=seed,
                policy=policy,
                page_count=page_count,
                loader=loader,
            )
            for policy, loader in cells
        ]
    )
    plt = {}
    for (policy, loader), payload in zip(cells, payloads):
        plt[policy, loader] = result.values[f"{policy}:{loader}"] = payload["plt_ms"]
        result.events_processed += payload["events"]
    table = Table(["policy", "H2 mean PLT (ms)", "H1 mean PLT (ms)"], title="H1 vs H2")
    for policy in policies:
        table.add_row(policy, plt[policy, "h2"], plt[policy, "h1"])
    result.tables.append(table)
    for loader in LOADERS:
        result.shapes[f"{loader}: dchannel < 0.8x embb-only"] = (
            plt["dchannel", loader] < 0.8 * plt["embb-only", loader]
        )
    result.shapes["dchannel: h2 <= h1"] = plt["dchannel", "h2"] <= plt["dchannel", "h1"]
    return result


run_h1_vs_h2.quick = {"page_count": 4}
