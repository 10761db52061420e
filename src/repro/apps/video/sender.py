"""Video sender: ships each frame's layers as tagged datagram messages.

Every ``1/fps`` seconds the sender emits one message per SVC layer. The
message id encodes (frame, layer) and the *message priority equals the
layer index* — exactly the custom application header of §3.3 that the
priority-aware steering policy reads (layer 0 → low-latency channel).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.video.svc import SvcEncoderModel
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.transport.datagram import DatagramSocket

#: message_id = frame_index * STRIDE + layer_index.
MESSAGE_ID_STRIDE = 16


def message_id_for(frame_index: int, layer_index: int) -> int:
    return frame_index * MESSAGE_ID_STRIDE + layer_index


def frame_of_message(message_id: int) -> int:
    return message_id // MESSAGE_ID_STRIDE


def layer_of_message(message_id: int) -> int:
    return message_id % MESSAGE_ID_STRIDE


class VideoSender:
    """Paces an SVC stream into a datagram socket."""

    def __init__(
        self,
        sim: Simulator,
        socket: DatagramSocket,
        encoder: SvcEncoderModel,
        duration: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.encoder = encoder
        self.duration = duration
        self.frames_sent = 0
        self.frame_send_times = {}
        self._timer = PeriodicTimer(
            sim, encoder.frame_interval, self._send_frame, start_delay=0.0
        )

    def _send_frame(self) -> None:
        if self.duration is not None and self.sim.now >= self.duration:
            self._timer.stop()
            return
        frame = self.frames_sent
        self.frame_send_times[frame] = self.sim.now
        sizes = self.encoder.frame_layer_sizes(frame)
        for layer_index, size in enumerate(sizes):
            self.socket.send_message(
                size,
                message_id=message_id_for(frame, layer_index),
                priority=layer_index,
            )
        self.frames_sent += 1
