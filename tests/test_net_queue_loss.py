"""Unit tests for queue disciplines and loss models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.net.packet import Packet, PacketType
from repro.net.queue import DropTailQueue, PriorityDropTailQueue
from tests.oracles.loss import long_run_rate as reference_rate


def pkt(payload=960, ptype=PacketType.DATA):
    return Packet(flow_id=1, ptype=ptype, payload_bytes=payload)


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(10_000)
        first, second = pkt(), pkt()
        queue.try_enqueue(first)
        queue.try_enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_overflow_dropped(self):
        queue = DropTailQueue(1500)
        assert queue.try_enqueue(pkt(960))  # 1000 B on the wire
        assert not queue.try_enqueue(pkt(960))
        assert queue.stats.dropped == 1
        assert queue.backlog_bytes == 1000

    def test_backlog_tracks_bytes(self):
        queue = DropTailQueue(10_000)
        queue.try_enqueue(pkt(960))
        queue.try_enqueue(pkt(460))
        assert queue.backlog_bytes == 1000 + 500
        queue.dequeue()
        assert queue.backlog_bytes == 500

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue(100).dequeue() is None

    def test_max_backlog_recorded(self):
        queue = DropTailQueue(10_000)
        queue.try_enqueue(pkt(960))
        queue.try_enqueue(pkt(960))
        queue.dequeue()
        assert queue.stats.max_backlog_bytes == 2000

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestPriorityDropTailQueue:
    def test_control_jumps_ahead_of_data(self):
        queue = PriorityDropTailQueue(10_000)
        data = pkt()
        ack = pkt(payload=0, ptype=PacketType.ACK)
        queue.try_enqueue(data)
        queue.try_enqueue(ack)
        assert queue.dequeue() is ack
        assert queue.dequeue() is data

    def test_shared_byte_bound(self):
        queue = PriorityDropTailQueue(1000)
        assert queue.try_enqueue(pkt(960))
        assert not queue.try_enqueue(pkt(payload=0, ptype=PacketType.ACK))

    def test_len_counts_both_bands(self):
        queue = PriorityDropTailQueue(10_000)
        queue.try_enqueue(pkt())
        queue.try_enqueue(pkt(payload=0, ptype=PacketType.ACK))
        assert len(queue) == 2


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        rng = random.Random(1)
        assert not any(model.should_drop(rng, 0.0) for _ in range(1000))
        assert model.long_run_rate == 0.0

    def test_bernoulli_matches_probability(self):
        model = BernoulliLoss(0.2)
        rng = random.Random(7)
        drops = sum(model.should_drop(rng, 0.0) for _ in range(20_000))
        assert 0.18 < drops / 20_000 < 0.22
        assert model.long_run_rate == 0.2

    def test_bernoulli_validates_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_gilbert_elliott_long_run_rate(self):
        model = GilbertElliottLoss(0.05, 0.2, good_loss=0.0, bad_loss=0.5)
        rng = random.Random(3)
        n = 100_000
        drops = sum(model.should_drop(rng, 0.0) for _ in range(n))
        expected = model.long_run_rate
        assert expected == pytest.approx(0.05 / 0.25 * 0.5)
        assert abs(drops / n - expected) < 0.02

    @given(
        g2b=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
        b2g=st.sampled_from([0.0, 0.1, 0.2, 1.0]),
        good=st.sampled_from([0.0, 0.01, 0.3]),
        bad=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
        probability=st.sampled_from([0.0, 0.1, 0.2, 0.999]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stored_rate_equals_the_reference(self, g2b, b2g, good, bad, probability):
        """``long_run_rate`` is stored at construction, bit-identical to
        the property body that computed it on every read."""
        models = [NoLoss(), BernoulliLoss(probability)]
        if not (b2g == 0.0 and g2b > 0.0):  # else: absorbing, rejected
            models.append(GilbertElliottLoss(g2b, b2g, good_loss=good, bad_loss=bad))
        for model in models:
            assert model.long_run_rate == reference_rate(model)

    def test_gilbert_elliott_is_bursty(self):
        """Losses cluster: consecutive-loss probability beats independence."""
        model = GilbertElliottLoss(0.01, 0.1, good_loss=0.0, bad_loss=0.8)
        rng = random.Random(5)
        outcomes = [model.should_drop(rng, 0.0) for _ in range(50_000)]
        rate = sum(outcomes) / len(outcomes)
        pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        pair_rate = pairs / (len(outcomes) - 1)
        assert pair_rate > 2 * rate * rate

    def test_gilbert_elliott_rejects_absorbing_bad_state(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.1, 0.0)

    def test_gilbert_elliott_validates_ranges(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5)
