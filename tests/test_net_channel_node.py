"""Unit tests for channels and the multi-channel device."""

import pytest

from repro.errors import NetworkError, SteeringError
from repro.net.channel import Channel, ChannelSpec, END_A, END_B
from repro.net.node import ChannelView, Device
from repro.sim.kernel import Simulator
from repro.units import mbps, ms

from tests.conftest import ack_packet, data_packet, make_pair


class TestChannel:
    def test_symmetric_spec_builds_two_links(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        assert channel.uplink.current_rate() == mbps(10)
        assert channel.downlink.current_delay() == ms(5)

    def test_base_rtt_sums_directions(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        assert channel.base_rtt() == pytest.approx(ms(10))

    def test_out_and_in_links_mirror(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        assert channel.out_link(END_A) is channel.in_link(END_B)
        assert channel.out_link(END_B) is channel.in_link(END_A)

    def test_invalid_end_rejected(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        with pytest.raises(NetworkError):
            channel.out_link(2)

    def test_fail_disables_both_links(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        channel.fail()
        assert not channel.uplink.up and not channel.downlink.up
        channel.restore()
        assert channel.uplink.up and channel.downlink.up

    def test_fault_holds_compose(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(10), ms(5)))
        # Two identical holds: both must be released before re-up.
        channel.fail()
        channel.fail()
        channel.restore()
        assert not channel.up
        channel.restore()
        assert channel.up


class FixedSteerer:
    """Test helper: always picks the given channel indices."""

    def __init__(self, *indices):
        self.indices = indices

    def choose(self, packet, views, now):
        return self.indices


class TestDevice:
    def test_packet_travels_client_to_server(self, sim):
        client, server, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        got = []
        server.register_flow(1, got.append)
        client.send(data_packet(flow_id=1, payload=1460))
        sim.run()
        assert len(got) == 1
        assert got[0].delivered_at == pytest.approx(ms(5) + 1500 * 8 / mbps(10))

    def test_reverse_direction_works(self, sim):
        client, server, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        got = []
        client.register_flow(1, got.append)
        server.send(data_packet(flow_id=1))
        sim.run()
        assert len(got) == 1

    def test_steerer_selects_channel(self, sim):
        specs = [
            ChannelSpec.symmetric("slow", mbps(10), ms(50)),
            ChannelSpec.symmetric("fast", mbps(10), ms(1)),
        ]
        client, server, channels = make_pair(sim, specs)
        client.set_steerer(FixedSteerer(1))
        got = []
        server.register_flow(1, got.append)
        client.send(data_packet(flow_id=1))
        sim.run()
        assert got[0].channel_index == 1
        assert channels[1].uplink.stats.delivered == 1
        assert channels[0].uplink.stats.delivered == 0

    def test_redundant_send_is_deduplicated(self, sim):
        specs = [
            ChannelSpec.symmetric("a", mbps(10), ms(5)),
            ChannelSpec.symmetric("b", mbps(10), ms(10)),
        ]
        client, server, _ = make_pair(sim, specs)
        client.set_steerer(FixedSteerer(0, 1))
        got = []
        server.register_flow(1, got.append)
        client.send(data_packet(flow_id=1))
        sim.run()
        assert len(got) == 1
        assert server.stats.duplicates_discarded == 1

    def test_unknown_flow_goes_to_default_handler(self, sim):
        client, server, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        fallback = []
        server.set_default_handler(fallback.append)
        client.send(data_packet(flow_id=99))
        sim.run()
        assert len(fallback) == 1

    def test_duplicate_flow_registration_rejected(self, sim):
        client, _, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        client.register_flow(1, lambda p: None)
        with pytest.raises(NetworkError):
            client.register_flow(1, lambda p: None)

    def test_unregister_then_reregister(self, sim):
        client, _, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        client.register_flow(1, lambda p: None)
        client.unregister_flow(1)
        client.register_flow(1, lambda p: None)  # no error

    def test_send_without_channels_raises(self, sim):
        device = Device(sim, "lonely")
        with pytest.raises(NetworkError):
            device.send(data_packet())

    def test_out_of_range_channel_choice_raises(self, sim):
        client, _, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        client.set_steerer(FixedSteerer(3))
        with pytest.raises(SteeringError):
            client.send(data_packet())

    def test_empty_channel_choice_raises(self, sim):
        client, _, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        client.set_steerer(FixedSteerer())
        with pytest.raises(SteeringError):
            client.send(data_packet())

    def test_hooks_fire(self, sim):
        client, server, _ = make_pair(sim, [ChannelSpec.symmetric("c", mbps(10), ms(5))])
        sends, receives = [], []
        client.on_send_hooks.append(lambda p, ch: sends.append(ch))
        server.on_receive_hooks.append(lambda p: receives.append(p.packet_id))
        client.send(data_packet(flow_id=1))
        sim.run()
        assert sends == [0]
        assert len(receives) == 1

    def test_cost_accounting(self, sim):
        spec = ChannelSpec.symmetric("paid", mbps(10), ms(5), cost_per_byte=2.0)
        client, server, channels = make_pair(sim, [spec])
        client.send(data_packet(flow_id=1, payload=960))
        sim.run()
        assert channels[0].cost_bytes == 1000


class TestChannelView:
    def test_view_exposes_channel_properties(self, sim):
        spec = ChannelSpec.symmetric("c", mbps(2), ms(2.5), cost_per_byte=0.5, reliable=True)
        channel = Channel(sim, spec, index=3)
        view = ChannelView(channel, END_A)
        assert view.index == 3
        assert view.name == "c"
        assert view.rate_bps == mbps(2)
        assert view.base_delay == ms(2.5)
        assert view.cost_per_byte == 0.5
        assert view.reliable
        assert view.up

    def test_estimated_delivery_delay_counts_backlog(self, sim):
        channel = Channel(sim, ChannelSpec.symmetric("c", mbps(8), ms(10)))
        view = ChannelView(channel, END_A)
        empty = view.estimated_delivery_delay(1000)
        channel.uplink.send(data_packet(payload=9960))  # 10 kB backlog
        loaded = view.estimated_delivery_delay(1000)
        assert empty == pytest.approx(ms(10) + 1000 * 8 / mbps(8))
        assert loaded == pytest.approx(empty + 10_000 * 8 / mbps(8))

    def test_queueing_delay_infinite_during_outage(self, sim):
        from repro.net.link import LinkSpec
        from repro.net.channel import DirectionSpec
        from repro.traces.model import NetworkTrace

        trace = NetworkTrace([0.0], [0.0], [ms(1)])
        spec = ChannelSpec(
            name="dead",
            up=DirectionSpec(trace=trace),
            down=DirectionSpec(trace=trace),
        )
        view = ChannelView(Channel(sim, spec), END_A)
        assert view.queueing_delay(100) == float("inf")
