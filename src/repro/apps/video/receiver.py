"""Video receiver: the paper's decode-wait rule + SVC dependency rules.

Decode timing (§3.3): on receiving layer 0 of frame *i*, wait 60 ms **or**
until layer 0 of frames *i+1* and *i+2* have arrived, whichever is first,
then decode frame *i* at the highest usable layer. The wait trades latency
for quality — decode immediately and you only ever get layer 0; wait
forever and frames are stale.

Layer usability: layer *l* of frame *i* requires (a) layers 0..l of frame
*i* fully received by decode time, and (b) layer *l* of frame *i−1* decoded
(temporal prediction), except at keyframes, which depend on nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.apps.video.sender import (
    MESSAGE_ID_STRIDE,
    frame_of_message,
    layer_of_message,
)
from repro.apps.video.svc import SvcEncoderModel
from repro.sim.kernel import Simulator
from repro.transport.datagram import DatagramMessage, DatagramSocket
from repro.units import ms

DEFAULT_DECODE_WAIT = ms(60)
#: How many subsequent layer-0 arrivals cut the wait short.
EARLY_DECODE_LOOKAHEAD = 2


@dataclass
class DecodedFrame:
    """One frame's decode outcome."""

    frame_index: int
    sent_at: float
    decoded_at: float
    decoded_layer: int  # -1 if the frame could not be decoded at all

    @property
    def latency(self) -> float:
        return self.decoded_at - self.sent_at

    @property
    def decoded(self) -> bool:
        return self.decoded_layer >= 0


class VideoReceiver:
    """Reassembles layers, applies the decode-wait rule, records outcomes."""

    def __init__(
        self,
        sim: Simulator,
        socket: DatagramSocket,
        encoder: SvcEncoderModel,
        decode_wait: float = DEFAULT_DECODE_WAIT,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.encoder = encoder
        self.decode_wait = decode_wait
        self.frames: List[DecodedFrame] = []
        self._layers_complete: Dict[int, Set[int]] = {}
        self._frame_sent_at: Dict[int, float] = {}
        self._decode_events: Dict[int, object] = {}
        self._decoded_layer: Dict[int, int] = {}
        self._decoded_frames: Set[int] = set()
        socket.on_message = self._on_message

    # ------------------------------------------------------------------
    def _on_message(self, message: DatagramMessage) -> None:
        frame = frame_of_message(message.message_id)
        layer = layer_of_message(message.message_id)
        self._layers_complete.setdefault(frame, set()).add(layer)
        if message.sent_at is not None:
            known = self._frame_sent_at.get(frame)
            if known is None or message.sent_at < known:
                self._frame_sent_at[frame] = message.sent_at
        if layer == 0:
            self._on_base_layer(frame)

    def _on_base_layer(self, frame: int) -> None:
        if frame not in self._decoded_frames and frame not in self._decode_events:
            self._decode_events[frame] = self.sim.schedule(
                self.decode_wait, self._decode, frame
            )
        # A base-layer arrival may release earlier frames still waiting.
        for earlier in range(max(0, frame - EARLY_DECODE_LOOKAHEAD), frame):
            if earlier in self._decode_events and self._lookahead_ready(earlier):
                self.sim.cancel(self._decode_events[earlier])
                del self._decode_events[earlier]
                self._decode(earlier)

    def _lookahead_ready(self, frame: int) -> bool:
        return all(
            0 in self._layers_complete.get(frame + offset, set())
            for offset in range(1, EARLY_DECODE_LOOKAHEAD + 1)
        )

    # ------------------------------------------------------------------
    def _decode(self, frame: int) -> None:
        self._decode_events.pop(frame, None)
        if frame in self._decoded_frames:
            return
        self._decoded_frames.add(frame)
        received = self._layers_complete.get(frame, set())
        usable = self._usable_layer(frame, received)
        self._decoded_layer[frame] = usable
        sent_at = self._frame_sent_at.get(frame, self.sim.now)
        self.frames.append(
            DecodedFrame(
                frame_index=frame,
                sent_at=sent_at,
                decoded_at=self.sim.now,
                decoded_layer=usable,
            )
        )
        # Reassembly state for this frame is no longer needed.
        self.socket.discard_before((frame - 4) * MESSAGE_ID_STRIDE)

    def _usable_layer(self, frame: int, received: Set[int]) -> int:
        # Contiguity: layers 0..l must all be present.
        contiguous = -1
        for layer in range(len(self.encoder.layers)):
            if layer in received:
                contiguous = layer
            else:
                break
        if contiguous < 0:
            return -1
        if self.encoder.is_keyframe(frame):
            return contiguous
        previous = self._decoded_layer.get(frame - 1)
        if previous is None:
            # Previous frame unseen/undecoded: only the base layer is safe
            # (it is independently decodable in our SVC configuration).
            return 0 if contiguous >= 0 else -1
        return min(contiguous, max(previous, 0))
