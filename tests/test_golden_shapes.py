"""Golden shape-regression suite: the paper's headline results, pinned.

Each test names one headline claim of Fig. 1a, Fig. 1b or Table 1 and
requires the predicates that state it to hold. The predicates themselves
live in one place, the experiment's own ``run_*``, which evaluates them
over its ``values`` into ``ExperimentResult.shapes`` (and ``pins`` for a
known divergence from the paper); these tests read them from the
experiment run at its ``--quick`` scale and state no threshold of their
own, so a refactor that breaks a mechanism fails here under the claim's
name.
"""

import pytest


def _require(checks, *claims):
    missing = [claim for claim in claims if claim not in checks]
    assert not missing, f"claims not stated: {missing}"
    failed = [claim for claim in claims if not checks[claim]]
    assert not failed, failed


class TestFig1aOrdering:
    """Fig. 1a: CUBIC >> BBR > Vegas > Vivace under DChannel steering."""

    @pytest.fixture
    def fig1a(self, quick_result):
        return quick_result("fig1a").shapes

    def test_strict_ordering(self, fig1a):
        _require(fig1a, "cubic > bbr > vegas > vivace")

    def test_cubic_dominates_delay_based(self, fig1a):
        # ">>": the loss-based CCA beats the best delay-based one by 3x+.
        _require(fig1a, "cubic > 3x bbr")

    def test_cubic_at_least_5x_vivace(self, fig1a):
        _require(fig1a, "cubic >= 5x vivace")

    def test_collapse_magnitudes(self, fig1a):
        # CUBIC substantially fills the 62 Mbps aggregate; every
        # delay-based CCA collapses below half of it.
        _require(
            fig1a, "cubic > 45 Mbps", "bbr < 31 Mbps", "vegas < 10 Mbps", "vivace < 4 Mbps"
        )


class TestFig1bBimodalAttribution:
    """Fig. 1b: BBR's RTT samples split by data channel; none reach 50 ms."""

    @pytest.fixture
    def fig1b(self, quick_result):
        result = quick_result("fig1b")
        return {**result.shapes, **result.pins}

    def test_both_modes_populated(self, fig1b):
        _require(fig1b, "data on each channel yields >= 100 samples")

    def test_urllc_mode_is_fast(self, fig1b):
        # Data steered to URLLC yields samples far below eMBB's 50 ms RTT.
        _require(fig1b, "URLLC-data mode reaches below 15 ms")

    def test_embb_mode_sits_above_urllc_floor(self, fig1b):
        _require(fig1b, "eMBB-data mode median >= 20 ms")

    def test_no_sample_reaches_true_embb_rtt(self, fig1b):
        # The min-RTT poisoning behind Fig. 1a's BBR collapse: the filter
        # never observes the eMBB path's true 50 ms propagation RTT. The
        # paper's samples do reach past 50 ms, so this is a divergence pin.
        _require(fig1b, "max RTT sample < 45 ms (paper: samples past 50 ms)")


class TestTable1PriorityWin:
    """Table 1: DChannel beats eMBB-only; flow priority beats plain DChannel."""

    @pytest.fixture
    def table1(self, quick_result):
        return quick_result("table1").shapes

    def test_dchannel_beats_embb_only(self, table1):
        _require(table1, "driving: mean PLT dchannel < embb-only")

    def test_priority_beats_plain_dchannel(self, table1):
        _require(table1, "driving: mean PLT dchannel+flowprio < dchannel")

    def test_win_magnitude(self, table1):
        # The paper reports 36.8% / 42.7% PLT cuts on the driving trace;
        # at reduced scale the claim is "better than 10%".
        _require(table1, "driving: dchannel+flowprio cuts mean PLT > 10% vs embb-only")
