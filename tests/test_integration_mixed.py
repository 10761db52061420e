"""Integration tests: multiple applications competing over one channel set.

The paper's §3.3 punchline is about *competition* — steering must arbitrate
a scarce channel across flows. These tests run the actual application mixes
end-to-end.
"""

import pytest

from repro.apps.bulk import BulkTransfer
from repro.apps.video.session import VideoSession
from repro.apps.web.background import BackgroundFlows
from repro.apps.web.browser import load_page
from repro.apps.web.corpus import generate_page
from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, traced_embb_spec, urllc_spec
from repro.net.monitor import ChannelMonitor
from repro.traces.catalog import get_trace
from repro.transport import next_flow_id
from repro.transport.connection import Connection
from repro.transport.multipath import MultipathConnection
from repro.units import kb, mbps, ms, to_ms


def driving_net(steering, seed=0):
    trace = get_trace("5g-lowband-driving", seed=seed + 1)
    embb = traced_embb_spec(trace)
    embb.name = "embb"
    return HvcNetwork([embb, urllc_spec()], steering=steering, seed=seed)


class TestVideoPlusWeb:
    def test_video_and_page_load_coexist(self):
        """A video stream and a page load share the channels; both finish."""
        net = driving_net("priority")
        session = VideoSession(net, duration=8.0)
        net.run(until=1.0)
        page = generate_page("mixed", seed=11)
        result = load_page(net, page, cc="cubic", timeout=30.0)
        assert result.complete
        net.run(until=10.0)
        video = session.result()
        assert video.frames_decoded > 0.9 * video.frames_sent

    def test_priority_steering_keeps_video_timely_under_web_load(self):
        """Web traffic on eMBB must not destroy the video's latency tail."""
        net = driving_net("priority")
        session = VideoSession(net, duration=10.0)
        net.run(until=0.5)
        load_page(net, generate_page("noise", seed=3), cc="cubic", timeout=20.0)
        net.run(until=12.0)
        result = session.result()
        assert to_ms(result.latency_cdf().percentile(95)) < 400


class TestBulkPlusInteractive:
    def test_bulk_flow_does_not_starve_urllc_for_web(self):
        """Table-1 logic with a bulk flow: the flow-priority filter keeps
        the page's URLLC access even while a bulk flow runs."""
        net = driving_net("dchannel+flowprio")
        BulkTransfer(net, cc="cubic", flow_priority=2)
        net.run(until=1.0)
        page = generate_page("p", seed=4)
        result = load_page(net, page, cc="cubic", timeout=30.0)
        assert result.complete
        urllc = net.channel_named("urllc")
        assert urllc.uplink.stats.delivered + urllc.downlink.stats.delivered > 0

    def test_monitor_sees_background_squatting(self):
        """Channel monitoring quantifies what background flows do to URLLC."""
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.1)
        BackgroundFlows(net)
        net.run(until=5.0)
        assert monitor.series["urllc"].utilization("up") > 0.05


class TestMultipathCoexistence:
    def test_multipath_and_singlepath_share_channels(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        mp_done, sp_done = [], []
        mp_id = next_flow_id()
        mp_tx = MultipathConnection(net.sim, net.client, mp_id, scheduler="hvc")
        MultipathConnection(
            net.sim, net.server, mp_id, scheduler="hvc", on_message=mp_done.append
        )
        sp = net.open_connection(on_server_message=sp_done.append)
        mp_tx.send_message(kb(400), message_id=1)
        sp.client.send_message(kb(400), message_id=2)
        net.run(until=20.0)
        assert len(mp_done) == 1 and len(sp_done) == 1

    def test_many_flows_deterministic(self):
        """A 6-flow mix is exactly reproducible for a fixed seed."""

        def run_once():
            net = driving_net("dchannel", seed=9)
            done = []
            for i in range(6):
                pair = net.open_connection(on_server_message=done.append)
                pair.client.send_message(kb(50 + 10 * i), message_id=i)
            net.run(until=10.0)
            return sorted((r.message_id, r.completed_at) for r in done)

        first = run_once()
        second = run_once()
        assert first == second
        assert len(first) == 6


class TestStressShapes:
    def test_twenty_concurrent_transfers_complete(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        done = []
        for i in range(20):
            pair = net.open_connection(on_server_message=done.append)
            pair.client.send_message(kb(100), message_id=i)
        net.run(until=30.0)
        assert sorted(r.message_id for r in done) == list(range(20))

    def test_long_run_conserves_packets(self):
        """No packet is created or destroyed unaccounted across a long mix."""
        net = driving_net("dchannel", seed=2)
        BackgroundFlows(net)
        BulkTransfer(net, cc="cubic")
        net.run(until=20.0)
        for channel in net.channels:
            for link in (channel.uplink, channel.downlink):
                sent = link.stats.sent
                accounted = (
                    link.stats.delivered
                    + link.stats.lost
                    + link.stats.overflow_drops
                    + len(link.queue)
                    + (1 if link._serving is not None else 0)
                )
                # Packets propagating (serialized, not yet delivered) are
                # the only legitimate remainder.
                in_flight = sent - accounted
                assert 0 <= in_flight < 200
