"""Unit tests for steering policies (driven by fake channel views)."""

import pytest

from repro.errors import SteeringError
from repro.net.packet import Packet, PacketType
from repro.steering import list_steerers, make_steerer
from repro.steering.base import (
    best_delivery,
    highest_bandwidth,
    lowest_latency,
    risk_adjusted_delay,
    up_views,
)
from repro.steering.cost import CostAwareSteerer
from repro.steering.dchannel import DChannelSteerer
from repro.steering.flow_priority import FlowPriorityFilter
from repro.steering.mptcp import EcfSteerer, MinRttSteerer
from repro.steering.priority import MessagePrioritySteerer
from repro.steering.redundant import RedundantSteerer
from repro.steering.roundrobin import RoundRobinSteerer
from repro.steering.single import SingleChannelSteerer
from repro.steering.transport_aware import TransportAwareSteerer
from repro.steering.util import TokenBucket
from repro.units import mbps, ms


class FakeView:
    """Stand-in for ChannelView with directly settable state."""

    def __init__(
        self,
        index,
        name="ch",
        rate_bps=mbps(10),
        base_delay=ms(10),
        backlog_bytes=0,
        up=True,
        cost_per_byte=0.0,
        reliable=False,
        loss_rate=0.0,
    ):
        self.index = index
        self.name = name
        self.rate_bps = rate_bps
        self.base_delay = base_delay
        self.backlog_bytes = backlog_bytes
        self.up = up
        self.cost_per_byte = cost_per_byte
        self.reliable = reliable
        self.loss_rate = loss_rate
        # Requirement-class steering reads these two contract fields;
        # a fake channel has no background load, so capacity == rate.
        self.base_rtt = 2 * base_delay
        self.capacity_bps = rate_bps

    def queueing_delay(self, extra_bytes=0):
        if self.rate_bps <= 0:
            return float("inf")
        return (self.backlog_bytes + extra_bytes) * 8 / self.rate_bps

    def estimated_delivery_delay(self, packet_bytes):
        return self.queueing_delay(packet_bytes) + self.base_delay

    def delay_rate(self):
        return self.base_delay, self.rate_bps

    def delay_estimate(self, packet_bytes):
        return self.base_delay, self.estimated_delivery_delay(packet_bytes)

    def steering_read(self, packet_bytes):
        """The fused read of the view duck type, from the accessors above."""
        return (
            self.base_delay,
            self.rate_bps,
            risk_adjusted_delay(self, packet_bytes),
            self.queueing_delay(packet_bytes),
        )


def embb(backlog=0, **kw):
    return FakeView(0, "embb", rate_bps=mbps(60), base_delay=ms(25), backlog_bytes=backlog, **kw)


def urllc(backlog=0, **kw):
    return FakeView(1, "urllc", rate_bps=mbps(2), base_delay=ms(2.5), backlog_bytes=backlog, reliable=True, **kw)


def data_pkt(payload=1460, **kw):
    return Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=payload, **kw)


def ack_pkt(**kw):
    return Packet(flow_id=1, ptype=PacketType.ACK, payload_bytes=0, **kw)


class TestHelpers:
    def test_lowest_latency_and_highest_bandwidth(self):
        views = [embb(), urllc()]
        assert lowest_latency(views).name == "urllc"
        assert highest_bandwidth(views).name == "embb"

    def test_up_views_excludes_down(self):
        views = [embb(up=False), urllc()]
        assert [v.name for v in up_views(views)] == ["urllc"]

    def test_up_views_raises_when_all_down(self):
        with pytest.raises(SteeringError):
            up_views([embb(up=False)])

    def test_best_delivery_accounts_for_backlog(self):
        # 60 kB backlog on eMBB = 8 ms queueing; URLLC empty wins for small pkts.
        views = [embb(backlog=600_000), urllc()]
        assert best_delivery(views, 100).name == "urllc"


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in list_steerers():
            steerer = make_steerer(name)
            assert steerer is not None

    def test_unknown_name_raises(self):
        for name in ("teleport", "rate-weighted"):
            with pytest.raises(SteeringError, match="known: cost-aware, "):
                make_steerer(name)

    def test_composite_flowprio(self):
        steerer = make_steerer("dchannel+flowprio")
        assert isinstance(steerer, FlowPriorityFilter)
        assert isinstance(steerer.inner, DChannelSteerer)


class TestSingleChannel:
    def test_by_index(self):
        assert SingleChannelSteerer(index=1).choose(data_pkt(), [embb(), urllc()], 0.0) == (1,)

    def test_by_name(self):
        steerer = SingleChannelSteerer(channel_name="embb")
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (0,)

    def test_bad_index_raises(self):
        with pytest.raises(SteeringError):
            SingleChannelSteerer(index=7).choose(data_pkt(), [embb()], 0.0)

    def test_bad_name_raises(self):
        with pytest.raises(SteeringError):
            SingleChannelSteerer(channel_name="lte").choose(data_pkt(), [embb()], 0.0)

    def test_both_args_rejected(self):
        with pytest.raises(SteeringError):
            SingleChannelSteerer(index=0, channel_name="embb")

    def test_defaults_to_first(self):
        assert SingleChannelSteerer().choose(data_pkt(), [embb(), urllc()], 0.0) == (0,)


class TestRoundRobin:
    def test_cycles(self):
        steerer = RoundRobinSteerer()
        views = [embb(), urllc()]
        picks = [steerer.choose(data_pkt(), views, 0.0)[0] for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_skips_down_channels(self):
        steerer = RoundRobinSteerer()
        views = [embb(up=False), urllc()]
        picks = {steerer.choose(data_pkt(), views, 0.0)[0] for _ in range(4)}
        assert picks == {1}


class TestMptcpSchedulers:
    def test_min_rtt_prefers_empty_fast_channel(self):
        steerer = MinRttSteerer()
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (1,)

    def test_min_rtt_flips_when_fast_channel_backlogged(self):
        steerer = MinRttSteerer()
        # 10 kB on URLLC at 2 Mbps = 40 ms queueing > eMBB's 25 ms base.
        views = [embb(), urllc(backlog=10_000)]
        assert steerer.choose(data_pkt(), views, 0.0) == (0,)

    def test_ecf_sticks_to_fast_channel_with_hysteresis(self):
        steerer = EcfSteerer(beta=1.5)
        # URLLC slightly backlogged: 7 kB = 28 ms queue + 2.5 base ≈ 36 ms
        # vs eMBB ≈ 25.2 ms. minRTT would flip; ECF (25.2*1.5 > 36) stays.
        views = [embb(), urllc(backlog=7_000)]
        assert steerer.choose(data_pkt(), views, 0.0) == (1,)
        assert MinRttSteerer().choose(data_pkt(), views, 0.0) == (0,)

    def test_ecf_eventually_leaves_fast_channel(self):
        steerer = EcfSteerer(beta=1.5)
        views = [embb(), urllc(backlog=40_000)]  # 160 ms queueing
        assert steerer.choose(data_pkt(), views, 0.0) == (0,)

    def test_ecf_validates_beta(self):
        with pytest.raises(ValueError):
            EcfSteerer(beta=0.5)


class TestDChannel:
    def test_control_packet_accelerated(self):
        steerer = DChannelSteerer()
        assert steerer.choose(ack_pkt(), [embb(), urllc()], 0.0) == (1,)

    def test_data_prefers_ll_when_it_wins(self):
        # Empty queues: URLLC 2.5 + 6 ms ser ≈ 8.5 ms < eMBB 25.2 ms.
        steerer = DChannelSteerer()
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (1,)

    def test_data_falls_back_when_ll_backlogged(self):
        steerer = DChannelSteerer()
        views = [embb(), urllc(backlog=12_000)]  # 48 ms queueing
        assert steerer.choose(data_pkt(), views, 0.0) == (0,)

    def test_control_falls_back_when_ll_hopeless(self):
        steerer = DChannelSteerer()
        views = [embb(), urllc(backlog=60_000)]  # 240 ms queueing
        assert steerer.choose(ack_pkt(), views, 0.0) == (0,)

    def test_savings_threshold_biases_to_hb(self):
        # URLLC wins by ~17 ms; a 20 ms threshold keeps data on eMBB.
        steerer = DChannelSteerer(savings_threshold=0.020)
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (0,)

    def test_single_channel_passthrough(self):
        steerer = DChannelSteerer()
        assert steerer.choose(data_pkt(), [embb()], 0.0) == (0,)

    def test_application_blind(self):
        """Tags must not change DChannel's choice (it is network-layer)."""
        steerer = DChannelSteerer()
        views = [embb(), urllc(backlog=12_000)]
        tagged = data_pkt(message_priority=0, flow_priority=0)
        plain = data_pkt()
        assert steerer.choose(tagged, views, 0.0) == steerer.choose(plain, views, 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            DChannelSteerer(savings_threshold=-1)


class TestFlowPinned:
    def make(self):
        from repro.steering.flow_pinned import FlowPinnedSteerer

        return FlowPinnedSteerer()

    def test_first_packet_pins_best_channel(self):
        steerer = self.make()
        # Empty queues: URLLC's estimate wins for a small packet.
        assert steerer.choose(data_pkt(payload=100), [embb(), urllc()], 0.0) == (1,)

    def test_flow_stays_pinned_despite_backlog(self):
        steerer = self.make()
        steerer.choose(data_pkt(payload=100), [embb(), urllc()], 0.0)
        # URLLC now badly backlogged; an unpinned policy would flee.
        views = [embb(), urllc(backlog=60_000)]
        assert steerer.choose(data_pkt(), views, 1.0) == (1,)

    def test_different_flows_pin_independently(self):
        steerer = self.make()
        views = [embb(), urllc()]
        first = steerer.choose(data_pkt(payload=100), views, 0.0)
        loaded = [embb(), urllc(backlog=60_000)]
        second = steerer.choose(
            Packet(flow_id=2, ptype=PacketType.DATA, payload_bytes=100), loaded, 0.0
        )
        assert first == (1,)
        assert second == (0,)

    def test_repins_when_pinned_channel_down(self):
        steerer = self.make()
        steerer.choose(data_pkt(payload=100), [embb(), urllc()], 0.0)
        views = [embb(), urllc(up=False)]
        assert steerer.choose(data_pkt(), views, 1.0) == (0,)


class TestMessagePriority:
    def test_priority_zero_to_ll_regardless_of_backlog(self):
        steerer = MessagePrioritySteerer()
        views = [embb(), urllc(backlog=30_000)]
        assert steerer.choose(data_pkt(message_priority=0), views, 0.0) == (1,)

    def test_low_priority_to_hb_even_when_ll_free(self):
        steerer = MessagePrioritySteerer()
        assert steerer.choose(data_pkt(message_priority=1), [embb(), urllc()], 0.0) == (0,)

    def test_cutoff_configurable(self):
        steerer = MessagePrioritySteerer(cutoff=1)
        assert steerer.choose(data_pkt(message_priority=1), [embb(), urllc()], 0.0) == (1,)

    def test_untagged_falls_back_to_inner(self):
        steerer = MessagePrioritySteerer(fallback=SingleChannelSteerer(index=0))
        assert steerer.choose(data_pkt(), [embb(), urllc()], 0.0) == (0,)

    def test_default_fallback_is_dchannel(self):
        steerer = MessagePrioritySteerer()
        assert isinstance(steerer.fallback, DChannelSteerer)


class TestFlowPriorityFilter:
    def test_background_flow_barred_from_ll(self):
        steerer = FlowPriorityFilter(DChannelSteerer())
        packet = ack_pkt(flow_priority=2)  # even its ACKs stay off URLLC
        assert steerer.choose(packet, [embb(), urllc()], 0.0) == (0,)

    def test_foreground_flow_passes_through(self):
        steerer = FlowPriorityFilter(DChannelSteerer())
        assert steerer.choose(ack_pkt(flow_priority=0), [embb(), urllc()], 0.0) == (1,)

    def test_untagged_passes_through(self):
        steerer = FlowPriorityFilter(DChannelSteerer())
        assert steerer.choose(ack_pkt(), [embb(), urllc()], 0.0) == (1,)

    def test_single_channel_passthrough(self):
        steerer = FlowPriorityFilter(DChannelSteerer())
        assert steerer.choose(data_pkt(flow_priority=2), [urllc()], 0.0) == (1,)


class TestTransportAware:
    def test_pure_ack_always_ll(self):
        steerer = TransportAwareSteerer()
        views = [embb(), urllc(backlog=30_000)]  # even with backlog
        assert steerer.choose(ack_pkt(), views, 0.0) == (1,)

    def test_fat_ack_not_separated(self):
        """Data tacked onto the ACK loses the acceleration (§3.2 point)."""
        steerer = TransportAwareSteerer()
        fat_ack = Packet(flow_id=1, ptype=PacketType.ACK, payload_bytes=1200)
        views = [embb(), urllc(backlog=30_000)]
        assert steerer.choose(fat_ack, views, 0.0) == (0,)

    def test_syn_prefers_reliable_channel(self):
        steerer = TransportAwareSteerer()
        syn = Packet(flow_id=1, ptype=PacketType.SYN)
        assert steerer.choose(syn, [embb(), urllc()], 0.0) == (1,)

    def test_retransmission_prefers_reliable(self):
        steerer = TransportAwareSteerer()
        rtx = data_pkt(is_retransmission=True)
        assert steerer.choose(rtx, [embb(), urllc()], 0.0) == (1,)

    def test_message_tail_accelerated(self):
        steerer = TransportAwareSteerer()
        tail = data_pkt(message_last=True, message_start=0)
        tail.seq, tail.end_seq = 100_000, 101_460
        views = [embb(backlog=100_000), urllc()]
        assert steerer.choose(tail, views, 0.0) == (1,)

    def test_tail_not_accelerated_when_ll_loses(self):
        steerer = TransportAwareSteerer()
        tail = data_pkt(message_last=True)
        views = [embb(), urllc(backlog=60_000)]
        assert steerer.choose(tail, views, 0.0) == (0,)

    def test_bulk_data_uses_inner_policy(self):
        steerer = TransportAwareSteerer(inner=SingleChannelSteerer(index=0))
        bulk = data_pkt()
        bulk.message_last = False
        views = [embb(), urllc(backlog=20_000)]
        assert steerer.choose(bulk, views, 0.0) == (0,)


class TestRedundant:
    def test_replicates_across_two_fastest(self):
        steerer = RedundantSteerer(mode="all")
        views = [
            FakeView(0, "a", base_delay=ms(6)),
            FakeView(1, "b", base_delay=ms(6)),
            FakeView(2, "c", base_delay=ms(50)),
        ]
        assert set(steerer.choose(data_pkt(), views, 0.0)) == {0, 1}

    def test_control_mode_replicates_only_control(self):
        steerer = RedundantSteerer(mode="control")
        views = [FakeView(0, "a"), FakeView(1, "b")]
        assert len(steerer.choose(ack_pkt(), views, 0.0)) == 2
        assert len(steerer.choose(data_pkt(), views, 0.0)) == 1

    def test_priority_mode_replicates_priority_zero(self):
        steerer = RedundantSteerer(mode="priority")
        views = [FakeView(0, "a"), FakeView(1, "b")]
        assert len(steerer.choose(data_pkt(message_priority=0), views, 0.0)) == 2
        assert len(steerer.choose(data_pkt(message_priority=1), views, 0.0)) == 1
        assert len(steerer.choose(data_pkt(), views, 0.0)) == 1

    def test_single_channel_no_copies(self):
        steerer = RedundantSteerer(mode="all")
        assert steerer.choose(data_pkt(), [FakeView(0)], 0.0) == (0,)

    def test_validation(self):
        with pytest.raises(SteeringError):
            RedundantSteerer(mode="sometimes")
        with pytest.raises(SteeringError):
            RedundantSteerer(max_copies=1)


class TestCostAware:
    def views(self):
        fiber = FakeView(0, "fiber", rate_bps=mbps(200), base_delay=ms(20))
        cisp = FakeView(
            1, "cisp", rate_bps=mbps(10), base_delay=ms(4), cost_per_byte=1e-6
        )
        return [fiber, cisp]

    def test_uses_priced_channel_when_worth_it(self):
        steerer = CostAwareSteerer(
            budget_per_s=1.0, burst=1.0, max_price_per_second_saved=1.0
        )
        # Saves ~16 ms for 1500 B costing 0.0015 ≤ 1.0 * 0.016.
        assert steerer.choose(data_pkt(), self.views(), now=0.0) == (1,)
        assert steerer.spent > 0

    def test_respects_willingness_to_pay(self):
        stingy = CostAwareSteerer(
            budget_per_s=1.0, burst=1.0, max_price_per_second_saved=0.01
        )
        assert stingy.choose(data_pkt(), self.views(), now=0.0) == (0,)

    def test_budget_exhaustion_falls_back_to_free(self):
        steerer = CostAwareSteerer(
            budget_per_s=0.0, burst=0.002, max_price_per_second_saved=10.0
        )
        first = steerer.choose(data_pkt(), self.views(), now=0.0)
        second = steerer.choose(data_pkt(), self.views(), now=0.0)
        assert first == (1,)
        assert second == (0,)  # bucket drained

    def test_budget_refills_over_time(self):
        steerer = CostAwareSteerer(
            budget_per_s=0.01, burst=0.002, max_price_per_second_saved=10.0
        )
        assert steerer.choose(data_pkt(), self.views(), now=0.0) == (1,)
        assert steerer.choose(data_pkt(), self.views(), now=0.0) == (0,)
        assert steerer.choose(data_pkt(), self.views(), now=1.0) == (1,)

    def test_no_priced_channels_is_minrtt(self):
        steerer = CostAwareSteerer()
        free = [FakeView(0, "a", base_delay=ms(30)), FakeView(1, "b", base_delay=ms(5))]
        assert steerer.choose(data_pkt(), free, 0.0) == (1,)


class TestTokenBucket:
    def test_spend_within_burst(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=5.0)
        assert bucket.try_spend(5.0, now=0.0)
        assert not bucket.try_spend(0.1, now=0.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=5.0)
        bucket.try_spend(5.0, now=0.0)
        assert bucket.available(now=100.0) == 5.0

    def test_partial_refill(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=10.0)
        bucket.try_spend(10.0, now=0.0)
        assert bucket.available(now=1.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=-1, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1, burst=0)
        with pytest.raises(ValueError):
            TokenBucket(1, 1).try_spend(-1, 0.0)
