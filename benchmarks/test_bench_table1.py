"""Benchmark: regenerate Table 1 (web PLT with background flows).

Asserts the paper's qualitative result for both trace conditions:
DChannel improves mean PLT over eMBB-only, and supplying flow priorities
(barring the background flows from URLLC) improves it further.
"""

import pytest

from repro.experiments.table1 import run_table1

PAGE_COUNT = 30


@pytest.fixture(scope="module")
def table1_result():
    return run_table1(page_count=PAGE_COUNT, loads_per_page=1)


def test_bench_table1(benchmark, table1_result):
    from repro.experiments.table1 import run_table1_cell
    from repro.apps.web.corpus import generate_corpus

    pages = generate_corpus(count=2, seed=9)
    benchmark.pedantic(
        lambda: run_table1_cell("stationary", "dchannel", pages=pages),
        rounds=1,
        iterations=1,
    )
    result = table1_result
    print()
    print(result.render())

    for condition in ("stationary", "driving"):
        plt = {
            policy: result.values[f"{condition}:{policy}:mean_plt_ms"]
            for policy in ("embb-only", "dchannel", "dchannel+flowprio")
        }
        assert plt["dchannel"] < plt["embb-only"], (condition, plt)
        assert plt["dchannel+flowprio"] < plt["dchannel"], (condition, plt)
        improvement = 1 - plt["dchannel+flowprio"] / plt["embb-only"]
        assert improvement > 0.10, (condition, plt)
    # Driving is the harder condition (paper: 2334 vs 1697 ms baseline).
    assert (
        result.values["driving:embb-only:mean_plt_ms"]
        > result.values["stationary:embb-only:mean_plt_ms"]
    )
