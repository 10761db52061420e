"""O(1)-amortized windowed-maximum filter for rate samples.

BBR-family controllers keep a windowed max of delivery-rate samples (and
of ACK-aggregation excess). A naive ``max()`` over a deque of every
sample in the window is O(window) per query — and the window holds one
sample per ACK per round, so at WAN BDPs (hundreds of segments in
flight) the per-ACK cost blows up quadratically. The classic monotonic
deque gives amortized O(1) pushes, evictions and queries with identical
semantics: entries are kept strictly decreasing in value, the front is
always the window maximum, and a new sample pops every older entry it
dominates (those could never become the maximum again).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class WindowedMax:
    """Maximum of ``(tick, value)`` samples with ``tick >= horizon``.

    ``tick`` must be non-decreasing across pushes (BBR uses the round
    count). ``push(tick, value, horizon)`` adds a sample and drops those
    older than the window in one call. ``value`` is the current maximum
    (0.0 when empty): a plain attribute, written only where the window
    changes (``push`` and ``clear``), so a read costs nothing.
    """

    __slots__ = ("_samples", "value")

    def __init__(self) -> None:
        self._samples: Deque[Tuple[int, float]] = deque()
        self.value = 0.0

    def push(self, tick: int, value: float, horizon: int) -> None:
        samples = self._samples
        while samples and samples[-1][1] <= value:
            samples.pop()
        samples.append((tick, value))
        while samples and samples[0][0] < horizon:
            samples.popleft()
        self.value = samples[0][1] if samples else 0.0

    def clear(self) -> None:
        self._samples.clear()
        self.value = 0.0

    def __bool__(self) -> bool:
        return bool(self._samples)

    def __len__(self) -> int:
        return len(self._samples)
