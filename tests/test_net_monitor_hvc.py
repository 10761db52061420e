"""Tests for channel monitoring, HVC profiles, and failure injection."""

import pytest

from repro.apps.bulk import BulkTransfer
from repro.core.api import HvcNetwork
from repro.net.channel import Channel
from repro.net.hvc import (
    EMBB_QUEUE_BYTES,
    cisp_spec,
    fiber_wan_spec,
    fixed_embb_spec,
    leo_spec,
    traced_embb_spec,
    urllc_spec,
    wifi_mlo_specs,
)
from repro.net.monitor import ChannelMonitor, ChannelSample, ChannelSeries
from repro.sim.kernel import Simulator
from repro.traces.catalog import get_trace
from repro.units import kb, mbps, ms


class TestHvcProfiles:
    def test_urllc_matches_paper_emulation(self):
        spec = urllc_spec()
        assert spec.up.rate_bps == mbps(2)
        assert spec.up.delay == ms(2.5)  # 5 ms RTT
        assert spec.reliable

    def test_fixed_embb_matches_fig1(self):
        spec = fixed_embb_spec()
        assert spec.up.rate_bps == mbps(60)
        assert spec.up.delay + spec.down.delay == pytest.approx(ms(50))
        assert spec.up.queue_bytes == EMBB_QUEUE_BYTES

    def test_traced_embb_scales_uplink(self):
        trace = get_trace("5g-lowband-stationary")
        spec = traced_embb_spec(trace, uplink_rate_factor=0.25)
        sim = Simulator()
        channel = Channel(sim, spec)
        down = channel.downlink.current_rate()
        up = channel.uplink.current_rate()
        assert up == pytest.approx(down * 0.25)

    def test_wifi_mlo_channels_are_lossy_pairs(self):
        a, b = wifi_mlo_specs()
        assert a.name != b.name
        assert a.up.loss is not None and b.up.loss is not None
        assert a.up.loss is not b.up.loss  # stateful models never shared

    def test_cisp_is_priced_and_fast(self):
        cisp = cisp_spec()
        fiber = fiber_wan_spec()
        assert cisp.cost_per_byte > 0
        assert fiber.cost_per_byte == 0
        assert cisp.up.delay < fiber.up.delay
        assert cisp.up.rate_bps < fiber.up.rate_bps

    def test_leo_profile(self):
        leo = leo_spec()
        assert leo.up.delay + leo.down.delay == pytest.approx(ms(25))
        assert leo.up.loss.long_run_rate > 0


class TestChannelMonitor:
    def test_samples_collected_at_period(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.5)
        net.run(until=2.0)
        series = monitor.series["embb"]
        assert len(series.samples) == 5  # t = 0.0, 0.5, 1.0, 1.5, 2.0

    def test_utilization_reflects_load(self):
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.2)
        BulkTransfer(net, cc="cubic")
        net.run(until=8.0)
        assert monitor.series["embb"].utilization("up") > 0.7

    def test_idle_channel_utilization_zero(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.2)
        net.run(until=2.0)
        assert monitor.series["embb"].utilization("down") == 0.0

    def test_backlog_series_shows_queueing(self):
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(10))], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.05)
        BulkTransfer(net, cc="cubic")
        net.run(until=3.0)
        series = [s.up_backlog_bytes for s in monitor.series["embb"].samples]
        assert max(series) > 10_000

    def test_stop_halts_sampling(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.1)
        net.run(until=0.5)
        monitor.stop()
        count = len(monitor.series["embb"].samples)
        net.run(until=2.0)
        assert len(monitor.series["embb"].samples) == count

    def test_validation(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        with pytest.raises(ValueError):
            ChannelMonitor(net.sim, net.channels, period=0)
        monitor = ChannelMonitor(net.sim, net.channels)
        with pytest.raises(ValueError):
            monitor.series["embb"].utilization("sideways")


class TestUtilizationBounds:
    """Regression: utilization used the interval-*start* rate as capacity,
    so a trace channel whose rate rose mid-interval reported > 1.0."""

    @staticmethod
    def _sample(time, delivered, rate):
        return ChannelSample(
            time=time,
            up_backlog_bytes=0,
            down_backlog_bytes=0,
            up_delivered_bytes=delivered,
            down_delivered_bytes=delivered,
            up_rate_bps=rate,
            down_rate_bps=rate,
            base_rtt=0.01,
        )

    def test_step_rate_trace_stays_bounded(self):
        # Rate steps 1 -> 10 Mbps just after t=0; the channel really
        # carries ~10 Mb in [0, 1]. Interval-start capacity (1 Mb) would
        # report utilization 10.0; the trapezoid credits 5.5 Mb and the
        # clamp caps the remainder.
        series = ChannelSeries(name="stepped")
        series.samples = [
            self._sample(0.0, delivered=0, rate=1_000_000.0),
            self._sample(1.0, delivered=1_250_000, rate=10_000_000.0),
        ]
        for direction in ("up", "down"):
            assert series.utilization(direction) <= 1.0
        assert series.clamp_warnings == 2

    def test_rising_rate_credits_trapezoid_capacity(self):
        # Delivered exactly the trapezoid capacity: utilization is 1.0
        # with no clamping, where the old interval-start math said 5.5x.
        series = ChannelSeries(name="ramp")
        series.samples = [
            self._sample(0.0, delivered=0, rate=1_000_000.0),
            self._sample(1.0, delivered=687_500, rate=10_000_000.0),  # 5.5 Mb
        ]
        assert series.utilization("down") == pytest.approx(1.0)
        assert series.clamp_warnings == 0

    def test_well_resolved_sampling_never_clamps(self):
        # Fine-grained sampling of a fixed-rate channel under load: the
        # bound must hold without the clamp ever firing.
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.05)
        BulkTransfer(net, cc="cubic")
        net.run(until=6.0)
        series = monitor.series["embb"]
        assert 0.0 < series.utilization("up") <= 1.0
        assert series.clamp_warnings == 0

    def test_traced_channel_utilization_bounded(self):
        # End-to-end: a trace-driven (time-varying rate) eMBB channel under
        # bulk load, sampled coarsely on purpose.
        from repro.traces.catalog import get_trace

        trace = get_trace("5g-lowband-driving", seed=1)
        net = HvcNetwork([traced_embb_spec(trace)], steering="single")
        monitor = ChannelMonitor(net.sim, net.channels, period=0.5)
        BulkTransfer(net, cc="cubic")
        net.run(until=20.0)
        for direction in ("up", "down"):
            assert monitor.series[net.channels[0].name].utilization(direction) <= 1.0


class TestFailureInjection:
    def test_steering_avoids_downed_channel(self):
        """Mid-transfer URLLC outage: DChannel keeps everything on eMBB."""
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        received = []
        pair = net.open_connection(on_server_message=received.append)
        net.sim.schedule(0.0, lambda: pair.client.send_message(kb(300), message_id=1))
        net.sim.schedule(0.05, lambda: net.channel_named("urllc").fail())
        net.run(until=20.0)
        assert len(received) == 1

    def test_transfer_survives_channel_flap(self):
        """URLLC flaps down and back up; the transfer still completes."""
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        received = []
        pair = net.open_connection(on_server_message=received.append)
        pair.client.send_message(kb(500), message_id=1)
        net.sim.schedule(0.1, lambda: net.channel_named("urllc").fail())
        net.sim.schedule(0.4, lambda: net.channel_named("urllc").restore())
        net.run(until=30.0)
        assert len(received) == 1

    def test_only_channel_down_then_recovered(self):
        """Packets sent into a dead channel are lost; the blackout is
        detected and a recovery probe restarts the transfer on channel-up."""
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        received = []
        pair = net.open_connection(on_server_message=received.append)
        pair.client.send_message(kb(20), message_id=1)
        net.sim.schedule(0.01, lambda: net.channels[0].fail())
        net.sim.schedule(1.0, lambda: net.channels[0].restore())
        net.run(until=30.0)
        assert len(received) == 1
        # RTOs fired while every channel is down are classified as blackout
        # timeouts (no cwnd collapse); recovery rides the channel-up probe.
        assert pair.client.stats.blackout_timeouts > 0
        assert pair.client.stats.recovery_probes >= 1
