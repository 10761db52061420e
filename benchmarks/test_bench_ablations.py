"""Benchmarks: the §3.2/§2.2/§3.1 ablations beyond the paper's figures.

Each regenerates one design-choice study from DESIGN.md's experiment index
and asserts the direction the paper's argument predicts.
"""

import pytest

from repro.experiments.ablations import (
    run_ack_ablation,
    run_cc_ablation,
    run_cost_ablation,
    run_mlo_ablation,
    run_multipath_ablation,
    run_resequencer_ablation,
    run_tsn_ablation,
)


@pytest.fixture(scope="module")
def cc_ablation():
    return run_cc_ablation(duration=30.0)


def test_bench_cc_ablation(benchmark, cc_ablation):
    benchmark.pedantic(lambda: run_cc_ablation(duration=5.0), rounds=1, iterations=1)
    result = cc_ablation
    print()
    print(result.render())
    # §3.2: channel-aware RTT interpretation must recover throughput for
    # every delay-based CCA that steering confused. Vegas recovers least:
    # re-based RTTs still contain genuine URLLC self-queueing, which Vegas
    # reads as congestion — fully fixing that needs per-channel windows
    # (the paper's fuller transport design), not just RTT interpretation.
    for cc in ("bbr", "vivace"):
        plain = result.values[f"{cc}:plain"]
        aware = result.values[f"{cc}:aware"]
        assert aware > 1.5 * plain, (cc, plain, aware)
    assert result.values["vegas:aware"] > result.values["vegas:plain"]


def test_bench_ack_ablation(benchmark):
    result = benchmark.pedantic(run_ack_ablation, rounds=1, iterations=1)
    print()
    print(result.render())
    # Transport-layer ACK separation + tail acceleration beats network-layer
    # DChannel under contention; tacking data onto ACKs forfeits the win.
    assert result.values["transport-aware:p95_ms"] <= result.values["dchannel:p95_ms"]
    assert (
        result.values["dchannel fat-acks:p95_ms"] >= result.values["dchannel:p95_ms"]
    )


def test_bench_mlo_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_mlo_ablation(duration=20.0), rounds=1, iterations=1
    )
    print()
    print(result.render())
    # §2.2: replication trades bandwidth for reliability.
    assert (
        result.values["replicate:delivered"]
        > result.values["single-link:delivered"]
    )
    assert (
        result.values["replicate:delivered"]
        > result.values["spray (min-rtt):delivered"]
    )


def test_bench_multipath_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_multipath_ablation(duration=30.0), rounds=1, iterations=1
    )
    print()
    print(result.render())
    # §4 design: per-channel subflows + the hvc scheduler keep the fat
    # channel full while small messages ride URLLC — minRTT scheduling
    # congests URLLC and drags the RPC tail through its queue.
    assert result.values["hvc:rpc_p95_ms"] < 0.3 * result.values["minrtt:rpc_p95_ms"]
    assert result.values["hvc:goodput_mbps"] > 0.8 * result.values["minrtt:goodput_mbps"]


def test_bench_resequencer_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_resequencer_ablation(duration=20.0), rounds=1, iterations=1
    )
    print()
    print(result.render())
    # The shim's reorder protection is load-bearing: without it, SACK
    # misreads cross-channel reordering as loss and CUBIC collapses.
    assert result.values["on:mbps"] > 5 * result.values["off:mbps"]


def test_bench_tsn_ablation(benchmark):
    result = benchmark.pedantic(run_tsn_ablation, rounds=1, iterations=1)
    print()
    print(result.render())
    # §2.2: one user's express traffic costs everyone else latency, and the
    # cost grows with the express load.
    assert (
        result.values["24.0:p95_ms"]
        > result.values["8.0:p95_ms"]
        > result.values["0.0:p95_ms"]
    )


def test_bench_cost_ablation(benchmark):
    result = benchmark.pedantic(run_cost_ablation, rounds=1, iterations=1)
    print()
    print(result.render())
    # §3.1: paying more buys latency; paying nothing spends nothing.
    assert result.values["0.0:spend"] == 0.0
    assert result.values["10.0:p95_ms"] < result.values["0.0:p95_ms"]
    assert result.values["10.0:spend"] >= result.values["0.1:spend"]
