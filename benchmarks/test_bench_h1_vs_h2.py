"""Benchmark: delivery mode × steering — HTTP/2 multiplexing vs HTTP/1.1
parallel connections over HVCs.

Shows that the steering win is not an artifact of one transport structure:
DChannel accelerates both the single multiplexed connection and the
six-connection H1 pattern, while H2's single handshake keeps it ahead.
"""

import pytest

from repro.apps.web.browser import load_page
from repro.apps.web.corpus import generate_corpus
from repro.apps.web.h1 import load_page_h1
from repro.experiments.table1 import corpus_plts, web_network
from repro.units import to_ms

PAGES = 8


def _mean_plt(policy, loader_fn, pages):
    plts, _events = corpus_plts(
        pages,
        lambda index: web_network("5g-lowband-driving", policy, seed=index),
        background=False,
        loader_fn=loader_fn,
    )
    return to_ms(sum(plts) / len(plts))


def test_bench_h1_vs_h2(benchmark):
    pages = generate_corpus(count=PAGES, seed=0)

    def run_all():
        return {
            ("embb-only", "h2"): _mean_plt("embb-only", load_page, pages),
            ("embb-only", "h1"): _mean_plt("embb-only", load_page_h1, pages),
            ("dchannel", "h2"): _mean_plt("dchannel", load_page, pages),
            ("dchannel", "h1"): _mean_plt("dchannel", load_page_h1, pages),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for (policy, loader), plt in sorted(results.items()):
        print(f"  {policy:10s} {loader}: {plt:7.1f} ms")
    # Steering helps both delivery modes substantially.
    assert results[("dchannel", "h2")] < 0.8 * results[("embb-only", "h2")]
    assert results[("dchannel", "h1")] < 0.8 * results[("embb-only", "h1")]
    # One multiplexed connection amortizes its handshakes better than six.
    assert results[("dchannel", "h2")] <= results[("dchannel", "h1")]
