"""Tests for the multipath (per-channel subflow) transport."""

import pytest

from repro.core.api import HvcNetwork
from repro.errors import TransportError
from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.net.loss import BernoulliLoss
from repro.transport import next_flow_id
from repro.transport.multipath import MultipathConnection
from repro.units import kb, mbps, ms, to_mbps


def make_mp_pair(net, scheduler="hvc", cc="cubic", on_message=None):
    flow_id = next_flow_id()
    sender = MultipathConnection(
        net.sim, net.client, flow_id, cc=cc, scheduler=scheduler
    )
    receiver = MultipathConnection(
        net.sim, net.server, flow_id, cc=cc, scheduler=scheduler, on_message=on_message
    )
    return sender, receiver


def dual_net(**kwargs):
    return HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single", **kwargs)


class TestMultipathBasics:
    def test_message_delivered(self):
        net = dual_net()
        receipts = []
        sender, _ = make_mp_pair(net, on_message=receipts.append)
        sender.send_message(kb(50), message_id=1)
        net.run(until=5.0)
        assert len(receipts) == 1
        assert receipts[0].size == kb(50)

    def test_multiple_messages_in_order(self):
        net = dual_net()
        receipts = []
        sender, _ = make_mp_pair(net, on_message=receipts.append)
        for i in range(5):
            sender.send_message(kb(10), message_id=i)
        net.run(until=5.0)
        assert [r.message_id for r in receipts] == list(range(5))

    def test_sender_ack_callback(self):
        net = dual_net()
        acked = []
        sender, _ = make_mp_pair(net)
        sender.send_message(kb(20), message_id=7, on_acked=lambda m, t: acked.append(m.message_id))
        net.run(until=5.0)
        assert acked == [7]

    def test_rejects_unknown_scheduler(self):
        net = dual_net()
        with pytest.raises(TransportError):
            MultipathConnection(net.sim, net.client, 99, scheduler="blest")

    def test_rejects_bad_message(self):
        net = dual_net()
        sender, _ = make_mp_pair(net)
        with pytest.raises(TransportError):
            sender.send_message(0)

    def test_send_after_close_raises(self):
        net = dual_net()
        sender, _ = make_mp_pair(net)
        sender.close()
        with pytest.raises(TransportError):
            sender.send_message(100)


class TestSubflowIsolation:
    def test_rtt_samples_attributed_per_channel(self):
        """The §4 property: each subflow's RTT floor reflects its own path.

        eMBB data samples sit at or above eMBB's one-way delay plus the ACK
        return path (≥ ~27.5 ms when the ACK rides URLLC); URLLC data
        samples reach far below that floor. No cross-channel poisoning of a
        subflow's estimator is possible by construction.
        """
        net = dual_net()
        sender, _ = make_mp_pair(net, scheduler="hvc")
        sender.send_message(5_000_000, message_id=1)
        net.run(until=10.0)
        per_channel = {}
        for record in sender.stats.rtt_records:
            per_channel.setdefault(record.data_channel, []).append(record.rtt)
        assert all(rtt >= 0.027 for rtt in per_channel.get(0, []))
        if 1 in per_channel:
            assert min(per_channel[1]) < 0.025

    def test_hvc_scheduler_fills_hb_channel(self):
        net = dual_net()
        sender, _ = make_mp_pair(net, scheduler="hvc")
        sender.send_message(200_000_000, message_id=1)
        net.run(until=5.0)
        at_5s = sender.stats.delivered_timeline[-1][1]
        net.run(until=15.0)
        achieved = (sender.stats.delivered_timeline[-1][1] - at_5s) * 8 / 10.0
        assert to_mbps(achieved) > 50  # no Fig. 1-style collapse

    def test_minrtt_scheduler_congests_urllc(self):
        """The heterogeneity-blind baseline drives the 2 Mbps channel hard."""
        net = dual_net()
        sender, _ = make_mp_pair(net, scheduler="minrtt")
        sender.send_message(5_000_000, message_id=1)
        net.run(until=5.0)
        urllc = net.channel_named("urllc")
        assert urllc.uplink.stats.delivered > 100

    def test_hvc_reserves_urllc_for_tails(self):
        """Bulk rides eMBB; only tail/small segments use URLLC."""
        net = dual_net()
        sender, _ = make_mp_pair(net, scheduler="hvc")
        sender.send_message(2_000_000, message_id=1)
        net.run(until=10.0)
        embb = net.channel_named("embb").uplink.stats.delivered
        urllc = net.channel_named("urllc").uplink.stats.delivered
        assert embb > 20 * max(urllc, 1)


class TestMultipathRecovery:
    def test_survives_loss_on_hb_channel(self):
        lossy_embb = ChannelSpec(
            name="embb",
            up=DirectionSpec(rate_bps=mbps(60), delay=ms(25), loss=BernoulliLoss(0.05)),
            down=DirectionSpec(rate_bps=mbps(60), delay=ms(25)),
        )
        net = HvcNetwork([lossy_embb, urllc_spec()], steering="single")
        receipts = []
        sender, _ = make_mp_pair(net, on_message=receipts.append)
        sender.send_message(kb(500), message_id=1)
        net.run(until=30.0)
        assert len(receipts) == 1
        assert sender.stats.retransmissions > 0

    def test_reinjection_can_switch_channels(self):
        """Loss repair may go out on a different subflow than the original."""
        lossy_embb = ChannelSpec(
            name="embb",
            up=DirectionSpec(rate_bps=mbps(60), delay=ms(25), loss=BernoulliLoss(0.08)),
            down=DirectionSpec(rate_bps=mbps(60), delay=ms(25)),
        )
        net = HvcNetwork([lossy_embb, urllc_spec()], steering="single")
        sender, _ = make_mp_pair(net, scheduler="hvc")
        sender.send_message(kb(800), message_id=1)
        net.run(until=30.0)
        # Retransmissions are "urgent" for the hvc scheduler → URLLC traffic.
        assert net.channel_named("urllc").uplink.stats.delivered > 0

    def test_handover_to_surviving_channel(self):
        """eMBB dies mid-transfer; the flow migrates to URLLC and finishes."""
        net = dual_net()
        receipts = []
        sender, _ = make_mp_pair(net, on_message=receipts.append)
        sender.send_message(kb(300), message_id=1)
        net.sim.schedule(0.05, lambda: net.channel_named("embb").fail())
        net.run(until=40.0)
        assert len(receipts) == 1
        # Post-outage traffic rode URLLC.
        assert net.channel_named("urllc").uplink.stats.delivered > 50

    def test_channel_restored_after_handover(self):
        """eMBB flaps; throughput returns to it once it is back."""
        net = dual_net()
        sender, _ = make_mp_pair(net)
        sender.send_message(50_000_000, message_id=1)
        net.sim.schedule(1.0, lambda: net.channel_named("embb").fail())
        net.sim.schedule(2.0, lambda: net.channel_named("embb").restore())
        net.run(until=3.0)
        before = net.channel_named("embb").uplink.stats.delivered
        net.run(until=6.0)
        assert net.channel_named("embb").uplink.stats.delivered > before + 500

    def test_rto_recovers_total_ack_blackout(self):
        deaf = ChannelSpec(
            name="embb",
            up=DirectionSpec(rate_bps=mbps(60), delay=ms(25)),
            down=DirectionSpec(rate_bps=mbps(60), delay=ms(25), loss=BernoulliLoss(0.5)),
        )
        # Only one channel: even ACKs are lossy; RTO must save the transfer.
        net = HvcNetwork([deaf], steering="single")
        receipts = []
        sender, _ = make_mp_pair(net, on_message=receipts.append)
        sender.send_message(kb(5), message_id=1)
        net.run(until=60.0)
        assert len(receipts) == 1
