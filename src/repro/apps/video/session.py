"""End-to-end video session wiring and summary metrics (Fig. 2 harness)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.video.quality import SsimModel
from repro.apps.video.receiver import DecodedFrame, VideoReceiver
from repro.apps.video.sender import VideoSender
from repro.apps.video.svc import SvcEncoderModel
from repro.core.api import HvcNetwork
from repro.core.metrics import Cdf


@dataclass
class VideoSessionResult:
    """Per-frame outcomes plus the distributions Fig. 2 plots."""

    frames: List[DecodedFrame]
    ssim_values: List[float]
    frames_sent: int

    @property
    def frames_decoded(self) -> int:
        return sum(1 for f in self.frames if f.decoded)

    def latency_cdf(self) -> Cdf:
        """Latency distribution of decoded frames (seconds)."""
        return Cdf([f.latency for f in self.frames if f.decoded])

    def ssim_cdf(self) -> Cdf:
        return Cdf(self.ssim_values)


class VideoSession:
    """A sender/receiver pair over an :class:`HvcNetwork`."""

    def __init__(self, net: HvcNetwork, duration: Optional[float] = None) -> None:
        self.net = net
        self.encoder = SvcEncoderModel()
        self.ssim_model = SsimModel()
        pair = net.open_datagram()
        self.sender = VideoSender(net.sim, pair.client, self.encoder, duration=duration)
        self.receiver = VideoReceiver(net.sim, pair.server, self.encoder)

    def result(self) -> VideoSessionResult:
        frames = sorted(self.receiver.frames, key=lambda f: f.frame_index)
        ssim_values = [
            self.ssim_model.ssim(f.frame_index, f.decoded_layer) for f in frames
        ]
        return VideoSessionResult(
            frames=frames,
            ssim_values=ssim_values,
            frames_sent=self.sender.frames_sent,
        )


def run_video_session(
    net: HvcNetwork,
    duration: float = 60.0,
) -> VideoSessionResult:
    """Run one video session for ``duration`` seconds and summarize it.

    Two extra seconds let in-flight frames complete decoding after the
    sender stops.
    """
    session = VideoSession(net, duration=duration)
    net.run(until=duration + 2.0)
    return session.result()
