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
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.results import ExperimentResult, Table
from repro.experiments.table1 import corpus_plts, web_network
from repro.runner import ParallelRunner, RunUnit
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


def baseline_policy_unit(
    policy: str = "dchannel", page_count: int = 10, seed: int = 0
) -> dict:
    """Mean PLT for one steering policy over the corpus (runner unit)."""
    from repro.apps.web.corpus import generate_corpus

    plts, events = corpus_plts(
        generate_corpus(count=page_count, seed=seed),
        lambda index: web_network("5g-lowband-driving", policy, seed=seed + index),
        background=False,
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
    return result


run_baselines.quick = {"page_count": 3}
