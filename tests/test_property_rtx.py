"""Property-based tests for the RFC 6298 RTT estimator (hypothesis).

These pin the estimator's *invariants* rather than specific trajectories:
whatever interleaving of samples and timeouts the network produces, the
RTO stays inside its configured bounds, backoff behaves monotonically and
resets on fresh evidence, and the filter state stays finite.

``rto`` is stored when its inputs change instead of computed when it is
read; the property it used to be survives here as ``rto_formula``, and
``apply_ops`` holds the stored value to it after every operation of every
test in this file.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.transport.rtx import INITIAL_RTO, MAX_BACKOFF, K, RttEstimator

#: Plausible simulated RTTs: 10 µs to 100 s.
rtts = st.floats(min_value=1e-5, max_value=100.0, allow_nan=False, allow_infinity=False)

#: An operation stream: an RTT sample, a timeout (None), or a backoff
#: reset ("reset": a channel came back up / an ACK made progress).
ops = st.lists(st.one_of(rtts, st.none(), st.just("reset")), max_size=80)


def rto_formula(estimator):
    """Reference: the ``rto`` property as it was computed on every read."""
    if estimator.srtt is None:
        base = INITIAL_RTO
    else:
        base = estimator.srtt + K * estimator.rttvar
    return min(estimator.max_rto, max(estimator.min_rto, base) * estimator.backoff)


def apply_ops(estimator, stream):
    assert estimator.rto == rto_formula(estimator)
    for op in stream:
        if op is None:
            estimator.on_timeout()
        elif op == "reset":
            estimator.reset_backoff()
        else:
            estimator.on_sample(op)
        assert estimator.rto == rto_formula(estimator), op


class TestRtoBounds:
    @given(stream=ops)
    @settings(max_examples=200, deadline=None)
    def test_rto_always_within_bounds(self, stream):
        est = RttEstimator(min_rto=0.2, max_rto=60.0)
        apply_ops(est, stream)
        assert 0.2 <= est.rto <= 60.0

    @given(stream=ops, min_rto=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_rto_respects_configured_floor(self, stream, min_rto):
        est = RttEstimator(min_rto=min_rto, max_rto=min_rto * 100)
        apply_ops(est, stream)
        assert min_rto <= est.rto <= min_rto * 100


class TestBackoff:
    @given(stream=ops, timeouts=st.integers(min_value=1, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_backoff_monotone_under_consecutive_timeouts(self, stream, timeouts):
        est = RttEstimator()
        apply_ops(est, stream)
        previous_rto = est.rto
        previous_backoff = est.backoff
        for _ in range(timeouts):
            apply_ops(est, [None])
            assert est.backoff >= previous_backoff
            assert est.rto >= min(previous_rto, est.max_rto)
            assert est.backoff <= MAX_BACKOFF
            previous_backoff = est.backoff
            previous_rto = est.rto

    @given(stream=ops, rtt=rtts)
    @settings(max_examples=100, deadline=None)
    def test_fresh_sample_resets_backoff(self, stream, rtt):
        est = RttEstimator()
        apply_ops(est, stream + [None, rtt])
        assert est.backoff == 1.0
        assert est.consecutive_timeouts == 0

    @given(stream=ops)
    @settings(max_examples=100, deadline=None)
    def test_reset_backoff_clears_without_sample(self, stream):
        est = RttEstimator()
        apply_ops(est, stream)
        srtt_before = est.srtt
        apply_ops(est, ["reset"])
        assert est.backoff == 1.0
        assert est.consecutive_timeouts == 0
        assert est.srtt == srtt_before  # no sample was injected


class TestFilterState:
    @given(stream=ops)
    @settings(max_examples=200, deadline=None)
    def test_state_stays_finite(self, stream):
        est = RttEstimator()
        apply_ops(est, stream)
        for value in (est.srtt, est.rttvar, est.min_rtt, est.latest_rtt):
            if value is not None:
                assert math.isfinite(value)
                assert value >= 0
        assert math.isfinite(est.rto)

    @given(samples=st.lists(rtts, min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_min_rtt_is_true_minimum(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.on_sample(sample)
        assert est.min_rtt == min(samples)
        assert est.samples == len(samples)

    @given(samples=st.lists(rtts, min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_srtt_within_sample_envelope(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.on_sample(sample)
        assert min(samples) <= est.srtt <= max(samples)
