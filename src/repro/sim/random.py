"""Named, reproducible random streams.

Different subsystems (trace generation, loss models, page corpus, ...) each
draw from their own stream so that adding randomness to one subsystem never
perturbs another. Streams are derived deterministically from a scenario seed
and a stream name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of independent ``random.Random`` instances.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("loss")
    >>> b = streams.stream("loss")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
