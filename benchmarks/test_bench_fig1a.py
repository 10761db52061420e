"""Benchmark: regenerate Fig. 1a (CCA throughput under DChannel steering).

Run with ``pytest benchmarks/ --benchmark-only``. Prints the regenerated
table next to the paper's numbers and asserts the qualitative shape: the
loss-based CCA fills the high-bandwidth channel while every delay-based
CCA collapses.
"""

import pytest

from repro.experiments.fig1 import run_fig1a

DURATION = 30.0


@pytest.fixture(scope="module")
def fig1a_result():
    return run_fig1a(duration=DURATION)


def test_bench_fig1a(benchmark, fig1a_result):
    # The expensive full run happened once in the fixture; the benchmark
    # times a single representative cell so the suite stays tractable.
    from repro.experiments.fig1 import run_single_cca

    benchmark.pedantic(
        lambda: run_single_cca("vegas", duration=5.0), rounds=1, iterations=1
    )
    result = fig1a_result
    print()
    print(result.render())

    cubic = result.values["cubic"]
    bbr = result.values["bbr"]
    vegas = result.values["vegas"]
    vivace = result.values["vivace"]
    # Paper shape: CUBIC ~60 ≫ BBR ≫ Vegas ≥ Vivace (26.5 / 2.73 / 1.49).
    assert cubic > 45, f"CUBIC should fill the 60 Mbps channel, got {cubic:.1f}"
    assert cubic > 3 * bbr, "BBR must be far below CUBIC"
    assert bbr > vegas > vivace, "delay-based ordering BBR > Vegas > Vivace"
    assert vivace < 4, "Vivace collapses to a trickle"
