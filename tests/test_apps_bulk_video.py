"""Tests for the bulk and video applications."""

import pytest

from repro.apps.bulk import BulkTransfer
from repro.apps.video.quality import SsimModel
from repro.apps.video.receiver import VideoReceiver
from repro.apps.video.sender import (
    VideoSender,
    frame_of_message,
    layer_of_message,
    message_id_for,
)
from repro.apps.video.session import run_video_session
from repro.apps.video.svc import SvcEncoderModel
from repro.core.api import HvcNetwork
from repro.errors import ReproError
from repro.net.channel import ChannelSpec
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.units import mbps, ms, to_mbps


class TestBulkTransfer:
    def test_saturates_single_channel(self):
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        bulk = BulkTransfer(net, cc="cubic")
        net.run(until=10.0)
        assert to_mbps(bulk.mean_throughput_bps(start=3.0)) > 15

    def test_throughput_series_shape(self):
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        bulk = BulkTransfer(net, cc="cubic")
        net.run(until=5.0)
        series = bulk.throughput_series(interval=1.0)
        assert len(series) == 5
        assert series[-1][1] > 0

    def test_finite_transfer_stops(self):
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        bulk = BulkTransfer(net, cc="cubic", total_bytes=100_000)
        net.run(until=10.0)
        assert bulk.pair.client.stats.bytes_acked == 100_000

    def test_rtt_records_available(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        bulk = BulkTransfer(net, cc="bbr")
        net.run(until=3.0)
        assert len(bulk.rtt_records()) > 10


class TestSvcEncoder:
    def test_layer_rates_match_targets(self):
        encoder = SvcEncoderModel(seed=1)
        seconds = 30
        totals = [0, 0, 0]
        for frame in range(int(seconds * encoder.fps)):
            for layer, size in enumerate(encoder.frame_layer_sizes(frame)):
                totals[layer] += size
        rates = [total * 8 / seconds for total in totals]
        assert rates[0] == pytest.approx(400e3, rel=0.15)
        assert rates[1] == pytest.approx(4100e3, rel=0.15)
        assert rates[2] == pytest.approx(7500e3, rel=0.15)

    def test_keyframes_are_larger(self):
        encoder = SvcEncoderModel(seed=1)
        key = sum(encoder.frame_layer_sizes(0))
        predicted = sum(encoder.frame_layer_sizes(1))
        assert key > 1.5 * predicted

    def test_deterministic_random_access(self):
        a = SvcEncoderModel(seed=5)
        b = SvcEncoderModel(seed=5)
        assert a.frame_layer_sizes(17) == b.frame_layer_sizes(17)

    def test_validation(self):
        with pytest.raises(ReproError):
            SvcEncoderModel(layer_rates_bps=())
        with pytest.raises(ReproError):
            SvcEncoderModel(layer_rates_bps=(100, -5))
        with pytest.raises(ReproError):
            SvcEncoderModel(fps=0)
        with pytest.raises(ReproError):
            SvcEncoderModel().frame_layer_sizes(-1)

    def test_message_id_codec(self):
        mid = message_id_for(123, 2)
        assert frame_of_message(mid) == 123
        assert layer_of_message(mid) == 2


class TestSsimModel:
    def test_higher_layer_higher_ssim(self):
        model = SsimModel(seed=1)
        assert model.ssim(5, 2) > model.ssim(5, 0)

    def test_undecoded_frame_zero(self):
        assert SsimModel().ssim(1, -1) == 0.0

    def test_deterministic(self):
        assert SsimModel(seed=2).ssim(9, 1) == SsimModel(seed=2).ssim(9, 1)

    def test_validation(self):
        with pytest.raises(ReproError):
            SsimModel(layer_ssim=())
        with pytest.raises(ReproError):
            SsimModel(layer_ssim=(0.9, 0.5))
        with pytest.raises(ReproError):
            SsimModel(layer_ssim=(0.5, 1.5))


class TestVideoSession:
    def wide_net(self):
        # A channel comfortably wider than the 12 Mbps stream.
        return HvcNetwork(
            [fixed_embb_spec(rate_bps=mbps(50), rtt=ms(20))], steering="single"
        )

    def test_clean_network_decodes_everything_at_top_layer(self):
        result = run_video_session(self.wide_net(), duration=5.0)
        assert result.frames_sent in (150, 151)  # boundary tick may land
        assert result.frames_sent - len(result.frames) <= 2  # tail frames may be in flight
        top = sum(1 for f in result.frames if f.decoded_layer == 2)
        assert top / len(result.frames) > 0.95

    def test_latency_bounded_by_decode_wait(self):
        result = run_video_session(self.wide_net(), duration=5.0)
        cdf = result.latency_cdf()
        # Frames wait for lookahead/60 ms; latency ≈ network + wait bound.
        assert cdf.max <= 0.08 + 0.01
        assert cdf.samples[0] >= ms(10)

    def test_ssim_high_on_clean_network(self):
        result = run_video_session(self.wide_net(), duration=5.0)
        assert result.ssim_cdf().median > 0.97

    def test_narrow_channel_degrades_latency(self):
        # 8 Mbps < 12 Mbps offered: queue grows, frames arrive late.
        net = HvcNetwork(
            [fixed_embb_spec(rate_bps=mbps(8), rtt=ms(20))], steering="single"
        )
        result = run_video_session(net, duration=5.0)
        assert result.latency_cdf().percentile(95) > 0.2

    def test_priority_steering_protects_base_layer(self):
        """With eMBB squeezed, priority steering keeps base-layer latency low."""
        squeezed = [fixed_embb_spec(rate_bps=mbps(8), rtt=ms(20)), urllc_spec()]
        priority_net = HvcNetwork(squeezed, steering="priority")
        priority_result = run_video_session(priority_net, duration=5.0)
        embb_net = HvcNetwork(squeezed, steering="single")
        embb_result = run_video_session(embb_net, duration=5.0)
        assert (
            priority_result.latency_cdf().percentile(95)
            < embb_result.latency_cdf().percentile(95) / 2
        )
        # The cost: fewer top-layer decodes than a clean network would give.
        assert priority_result.ssim_cdf().mean <= 1.0
