"""Scalable Video Coding (SVC) stream model.

The paper's setup: VP9-SVC, three spatial/quality layers with target
bitrates 400 / 4100 / 7500 kbps (12 Mbps cumulative), 30 fps, sourced from
MOT17. We model what steering cares about — per-frame, per-layer message
sizes with realistic variation — rather than pixels:

* each layer's long-run rate matches its target bitrate;
* per-frame sizes jitter log-normally (encoder rate control is not exact);
* keyframes (default every 30 frames) are larger and reset inter-frame
  decode dependencies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import ReproError
from repro.units import kbps

#: The paper's three-layer configuration.
DEFAULT_LAYER_RATES_BPS = (kbps(400), kbps(4100), kbps(7500))
DEFAULT_FPS = 30.0
DEFAULT_KEYFRAME_INTERVAL = 30
#: Keyframes cost roughly this factor over a predicted frame at equal rate.
KEYFRAME_SIZE_FACTOR = 2.5
#: Log-normal sigma of per-frame size jitter.
SIZE_JITTER_SIGMA = 0.18


@dataclass
class LayerSpec:
    """One SVC layer: its index is its priority (0 = base, most important)."""

    index: int
    bitrate_bps: float


class SvcEncoderModel:
    """Deterministic per-frame layer sizes for an SVC stream."""

    def __init__(
        self,
        layer_rates_bps=DEFAULT_LAYER_RATES_BPS,
        fps: float = DEFAULT_FPS,
        keyframe_interval: int = DEFAULT_KEYFRAME_INTERVAL,
        seed: int = 0,
    ) -> None:
        if not layer_rates_bps:
            raise ReproError("at least one SVC layer is required")
        if any(rate <= 0 for rate in layer_rates_bps):
            raise ReproError(f"layer rates must be positive, got {layer_rates_bps}")
        if fps <= 0:
            raise ReproError(f"fps must be positive, got {fps}")
        if keyframe_interval < 1:
            raise ReproError(f"keyframe_interval must be >= 1, got {keyframe_interval}")
        self.layers = [
            LayerSpec(index=i, bitrate_bps=rate) for i, rate in enumerate(layer_rates_bps)
        ]
        self.fps = fps
        self.keyframe_interval = keyframe_interval
        self._seed = seed
        # Pre-compute the jitter normalization so long-run rate is exact:
        # E[lognormal(0, s)] = exp(s^2/2).
        import math

        self._jitter_norm = math.exp(SIZE_JITTER_SIGMA**2 / 2.0)
        # Spread the keyframe surplus over the GOP so rate stays on target.
        gop = self.keyframe_interval
        self._gop_norm = gop / (KEYFRAME_SIZE_FACTOR + (gop - 1))

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.fps

    def is_keyframe(self, frame_index: int) -> bool:
        return frame_index % self.keyframe_interval == 0

    def frame_layer_sizes(self, frame_index: int) -> List[int]:
        """Bytes per layer for ``frame_index`` (deterministic given seed)."""
        if frame_index < 0:
            raise ReproError(f"frame_index must be >= 0, got {frame_index}")
        factor = KEYFRAME_SIZE_FACTOR if self.is_keyframe(frame_index) else 1.0
        sizes = []
        for layer in self.layers:
            # Per-(frame, layer) RNG so sizes are random-access deterministic.
            rng = random.Random(f"{self._seed}:{frame_index}:{layer.index}")
            base = layer.bitrate_bps / self.fps / 8.0
            jitter = rng.lognormvariate(0.0, SIZE_JITTER_SIGMA) / self._jitter_norm
            sizes.append(max(64, int(base * factor * self._gop_norm * jitter)))
        return sizes
