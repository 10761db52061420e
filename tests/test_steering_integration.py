"""End-to-end steering behaviour over real channels under load."""

import pytest

from repro.apps.bulk import BulkTransfer
from repro.core.api import HvcNetwork
from repro.net.channel import ChannelSpec, DirectionSpec
from repro.net.hvc import fixed_embb_spec, urllc_spec, wifi_mlo_specs
from repro.net.loss import GilbertElliottLoss
from repro.steering.redundant import RedundantSteerer
from repro.units import kb, mbps, ms


class TestDChannelShares:
    def test_bulk_bytes_dominated_by_embb(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        share = {0: 0, 1: 0}

        def count(packet, channel):
            share[channel] += packet.size_bytes

        net.client.on_send_hooks.append(count)
        net.server.on_send_hooks.append(count)
        BulkTransfer(net, cc="cubic")
        net.run(until=10.0)
        assert share[0] > 10 * max(share[1], 1)

    def test_acks_dominated_by_urllc(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        ack_channels = []
        net.client.on_receive_hooks.append(
            lambda p: ack_channels.append(p.channel_index)
            if p.ptype.value == "ack"
            else None
        )
        BulkTransfer(net, cc="cubic")
        net.run(until=5.0)
        urllc_fraction = ack_channels.count(1) / len(ack_channels)
        assert urllc_fraction > 0.6

    def test_urllc_queue_bounded_by_cap(self):
        """DChannel's cost rule keeps URLLC's standing queue small."""
        from repro.net.monitor import ChannelMonitor

        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.05)
        BulkTransfer(net, cc="cubic")
        net.run(until=10.0)
        # Cap: ~3x base-gap of control traffic = 67 ms at 2 Mbps ≈ 17 kB,
        # plus one in-service packet.
        assert max(s.up_backlog_bytes for s in monitor.series["urllc"].samples) < 25_000


class TestRedundantEndToEnd:
    def test_replication_survives_burst_loss(self):
        a, b = wifi_mlo_specs(bad_loss=0.6)
        done_single, done_redundant = [], []
        for steering, done in (
            ("single", done_single),
            (RedundantSteerer(mode="all"), done_redundant),
        ):
            net = HvcNetwork([a, b], steering=steering, seed=3)
            pair = net.open_datagram(on_server_message=done.append)
            for i in range(200):
                pair.client.send_message(1200, message_id=i)
            net.run(until=10.0)
        assert len(done_redundant) > len(done_single)
        assert len(done_redundant) > 195

    def test_reliable_flow_rides_replication(self):
        """Copies carry the shim sequence stamp and the SACK ranges of
        their original. Unstamped, a copy whose original was lost bypassed
        the receiving resequencer while the shim waited out the 80 ms hold
        for it, and a cloned ACK that won the race delivered no SACK
        ranges: this cell ran at 7.3 Mbps with 60 hold-timeout flushes."""
        net = HvcNetwork(wifi_mlo_specs(), steering="redundant", seed=0)
        bulk = BulkTransfer(net, cc="cubic")
        net.run(until=5.0)
        flushes = sum(dev.resequencer.timeout_flushes for dev in (net.client, net.server))
        assert bulk.pair.client.stats.bytes_acked * 8 / 5.0 >= mbps(40)  # 61.8 measured
        assert flushes <= 10  # 3 measured


class TestPriorityUnderCompetition:
    def test_video_layer0_unharmed_by_bulk(self):
        """Priority steering: a bulk flow cannot delay layer-0 messages."""
        from repro.apps.video.session import run_video_session
        from repro.units import to_ms

        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(14)), urllc_spec()],
                         steering="priority")
        BulkTransfer(net, cc="cubic", flow_priority=1)
        result = run_video_session(net, duration=8.0)
        assert to_ms(result.latency_cdf().percentile(95)) < 150
