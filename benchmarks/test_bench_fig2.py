"""Benchmark: regenerate Fig. 2 (video latency/SSIM CDFs per steering scheme).

Asserts the paper's qualitative result on both driving traces: cross-layer
priority steering dominates the latency tail (beating DChannel, which in
turn beats eMBB-only) while paying a small SSIM cost relative to eMBB-only.
"""

import pytest

from repro.experiments.fig2 import run_fig2

DURATION = 60.0


@pytest.fixture(scope="module")
def fig2_result():
    return run_fig2(duration=DURATION)


def test_bench_fig2(benchmark, fig2_result):
    from repro.experiments.fig2 import run_fig2_cell

    benchmark.pedantic(
        lambda: run_fig2_cell("5g-lowband-driving", "priority", duration=5.0),
        rounds=1,
        iterations=1,
    )
    result = fig2_result
    print()
    print(result.render())

    for trace in ("5g-mmwave-driving", "5g-lowband-driving"):
        p95 = {
            scheme: result.values[f"{trace}:{scheme}:p95_latency_ms"]
            for scheme in ("embb-only", "dchannel", "priority")
        }
        # Latency ordering: priority < dchannel < embb-only.
        assert p95["priority"] < p95["dchannel"] < p95["embb-only"], p95
        # eMBB-only develops a deep tail under mobility; priority does not.
        assert p95["embb-only"] > 4 * p95["priority"], p95
        # Quality ordering: the latency win costs some SSIM vs eMBB-only.
        ssim = {
            scheme: result.values[f"{trace}:{scheme}:mean_ssim"]
            for scheme in ("embb-only", "dchannel", "priority")
        }
        assert ssim["priority"] <= ssim["embb-only"], ssim

    # mmWave driving headline: priority reduces p95 dramatically (paper 26x
    # over eMBB-only, 2.26x over DChannel; we require >4x and >1.3x).
    mm = {
        scheme: result.values[f"5g-mmwave-driving:{scheme}:p95_latency_ms"]
        for scheme in ("embb-only", "dchannel", "priority")
    }
    assert mm["embb-only"] / mm["priority"] > 4
    assert mm["dchannel"] / mm["priority"] > 1.3
