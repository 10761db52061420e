"""Benchmark: the composite 'general' policy vs each workload's specialist.

The paper's conclusion claims one design — per-packet steering + optional
app hints + HVC awareness — serves every workload. We check the composite
never gives up more than 10 % against the policy purpose-built for each
workload.
"""

import pytest

from repro.core.metrics import Cdf
from repro.experiments.fig2 import fig2_cell_unit
from repro.experiments.table1 import table1_cell_unit
from repro.units import to_ms

PAGES = 8
VIDEO_DURATION = 30.0


def test_bench_general_policy(benchmark):
    def run_all():
        video = {}
        for scheme in ("priority", "general"):
            cell = fig2_cell_unit(
                trace="5g-mmwave-driving", scheme=scheme, duration=VIDEO_DURATION
            )
            video[scheme] = to_ms(Cdf(cell["latencies"]).percentile(95))
        web = {}
        for policy in ("dchannel+flowprio", "general"):
            cell = table1_cell_unit(
                condition="driving", policy=policy, page_count=PAGES
            )
            plts = cell["plts"]
            web[policy] = to_ms(sum(plts) / len(plts))
        return video, web

    video, web = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(f"  video p95 latency: priority {video['priority']:.1f} ms, "
          f"general {video['general']:.1f} ms")
    print(f"  web mean PLT: dchannel+flowprio {web['dchannel+flowprio']:.1f} ms, "
          f"general {web['general']:.1f} ms")
    assert video["general"] <= 1.10 * video["priority"]
    assert web["general"] <= 1.10 * web["dchannel+flowprio"]
