"""Tests for the Wi-Fi TSN channel profile."""

from repro.core.api import HvcNetwork
from repro.net.channel import Channel
from repro.net.hvc import fixed_embb_spec, wifi_tsn_spec
from repro.net.packet import Packet, PacketType
from repro.net.queue import PriorityDropTailQueue
from repro.sim.kernel import Simulator
from repro.units import mbps, ms


class TestWifiTsn:
    def test_spec_uses_priority_queue(self):
        spec = wifi_tsn_spec()
        assert spec.up.priority_queue and spec.down.priority_queue
        assert spec.reliable
        sim = Simulator()
        channel = Channel(sim, spec)
        assert isinstance(channel.uplink.queue, PriorityDropTailQueue)

    def test_control_latency_deterministic_under_data_backlog(self):
        """The express lane: an ACK beats a full data queue."""
        sim = Simulator()
        channel = Channel(sim, wifi_tsn_spec(rate_bps=mbps(10), rtt=ms(6)))
        arrivals = []
        channel.uplink.connect(lambda p: arrivals.append((sim.now, p.ptype)))
        for _ in range(20):
            channel.uplink.send(
                Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=1460)
            )
        ack = Packet(flow_id=1, ptype=PacketType.ACK)
        channel.uplink.send(ack)
        sim.run()
        ack_time = next(t for t, ptype in arrivals if ptype == PacketType.ACK)
        # The ACK waits only for the in-service packet, not 20 data packets.
        assert ack_time < ms(6) / 2 + 2 * 1500 * 8 / mbps(10) + 1e-6

    def test_transfer_over_tsn_plus_embb(self):
        net = HvcNetwork(
            [fixed_embb_spec(), wifi_tsn_spec()], steering="transport-aware"
        )
        done = []
        pair = net.open_connection(on_server_message=done.append)
        pair.client.send_message(100_000, message_id=1)
        net.run(until=10.0)
        assert len(done) == 1
