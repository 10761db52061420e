"""Benchmark: regenerate Fig. 1b (RTTs observed by BBR under steering).

Asserts the qualitative features the paper highlights: bimodal RTT samples
(URLLC-flavoured vs eMBB-flavoured modes) with queueing excursions well
above the base RTT.
"""

import pytest

from repro.experiments.fig1 import run_fig1b

DURATION = 30.0


@pytest.fixture(scope="module")
def fig1b_result():
    return run_fig1b(duration=DURATION)


def test_bench_fig1b(benchmark, fig1b_result):
    benchmark.pedantic(lambda: run_fig1b(duration=5.0), rounds=1, iterations=1)
    result = fig1b_result
    print()
    print(result.render())

    assert result.values["samples"] > 200
    # Data rides both channels; ACK acceleration makes nearly every RTT
    # measurement a cross-channel composite.
    assert result.values.get("data_ch0_samples", 0) > 50
    assert result.values.get("data_ch1_samples", 0) > 50
    assert result.values["cross_channel_samples"] > 0
    # The confusion, stated sharply: the flow's data depends on a path whose
    # propagation RTT is 50 ms, yet steering ensures BBR *never observes*
    # an RTT that large — every sample sits far below, and the min-RTT
    # filter (hence the BDP estimate) is poisoned. This is the mechanism
    # behind Fig. 1a's BBR collapse.
    assert result.values["min_rtt_ms"] < 15
    assert result.values["max_rtt_ms"] < 45
