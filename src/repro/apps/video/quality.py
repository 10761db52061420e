"""Frame quality model: decoded SVC layer → SSIM.

We do not decode pixels, so SSIM comes from a calibrated per-layer model.
The anchors approximate VP9-SVC at the paper's per-layer bitrates on
MOT17-like content, chosen so the Fig. 2 quality *deltas* land near the
published ones (priority steering loses ≈0.068 SSIM vs eMBB-only and
≈0.002 vs DChannel under mmWave driving). Small content-dependent noise is
added per frame, deterministically.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ReproError

#: Mean SSIM when the frame decodes at layer 0 / 1 / 2.
DEFAULT_LAYER_SSIM = (0.880, 0.955, 0.985)
#: Per-frame content noise (std-dev of a clamped Gaussian).
SSIM_NOISE_STD = 0.006
#: SSIM charged for a frame with no decodable output (frozen/blank frame).
UNDECODED_SSIM = 0.0


class SsimModel:
    """Maps (frame, decoded layer) to an SSIM score in [0, 1]."""

    def __init__(
        self,
        layer_ssim: Sequence[float] = DEFAULT_LAYER_SSIM,
        seed: int = 0,
    ) -> None:
        if not layer_ssim:
            raise ReproError("layer_ssim must not be empty")
        if any(not 0.0 < s <= 1.0 for s in layer_ssim):
            raise ReproError(f"layer SSIM values must be in (0, 1], got {layer_ssim}")
        if list(layer_ssim) != sorted(layer_ssim):
            raise ReproError("layer SSIM must be non-decreasing with layer index")
        self.layer_ssim = list(layer_ssim)
        self._seed = seed

    def ssim(self, frame_index: int, decoded_layer: int) -> float:
        """SSIM for ``frame_index`` decoded at ``decoded_layer`` (-1 = none)."""
        if decoded_layer < 0:
            return UNDECODED_SSIM
        layer = min(decoded_layer, len(self.layer_ssim) - 1)
        base = self.layer_ssim[layer]
        rng = random.Random(f"{self._seed}:{frame_index}")
        noisy = base + rng.gauss(0.0, SSIM_NOISE_STD)
        return max(0.0, min(1.0, noisy))
