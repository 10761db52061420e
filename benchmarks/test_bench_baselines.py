"""Benchmark: the steering-policy zoo on web page loads.

Quantifies the paper's related-work narrative: flow-level network selection
(IANS-like) and heterogeneity-blind spraying lose badly; delay-aware and
class-aware per-packet steering win.
"""

import pytest

from repro.experiments.baselines import run_baselines

PAGES = 10


def test_bench_baselines(benchmark):
    result = benchmark.pedantic(
        lambda: run_baselines(page_count=PAGES), rounds=1, iterations=1
    )
    print()
    print(result.render())
    plt = result.values
    # Per-packet steering beats the single-channel baseline...
    assert plt["dchannel"] < plt["embb-only"]
    assert plt["transport-aware"] < plt["embb-only"]
    # ...while heterogeneity-blind spraying actively hurts (half the bytes
    # take the 2 Mbps channel)...
    assert plt["round-robin"] > plt["embb-only"]
    # ...and IANS-style whole-flow pinning is the worst failure mode: any
    # flow pinned to URLLC at an idle instant drags its whole page to 2 Mbps.
    assert plt["flow-pinned"] > plt["embb-only"]
    # Transport-aware segment steering is at least as good as DChannel.
    assert plt["transport-aware"] <= plt["dchannel"] * 1.05
