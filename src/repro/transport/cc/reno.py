"""TCP NewReno: slow start + AIMD with fast recovery.

Kept both as the simplest loss-based baseline and as the foundation CUBIC
falls back to in its TCP-friendly region.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.cc.base import AckSample, CongestionControl, INITIAL_WINDOW_SEGMENTS


class Reno(CongestionControl):
    name = "reno"

    def __init__(self, mss: int = 1460) -> None:
        super().__init__(mss)
        self._cwnd = float(INITIAL_WINDOW_SEGMENTS * mss)
        self._ssthresh = float("inf")
        self._recovery_until = -1.0
        self._last_loss_time: Optional[float] = None

    def on_ack(self, sample: AckSample) -> None:
        if sample.newly_acked <= 0:
            return
        if self._cwnd < self._ssthresh:
            self._cwnd += sample.newly_acked  # slow start: +1 MSS per MSS acked
        else:
            self._cwnd += self.mss * self.mss / self._cwnd * (sample.newly_acked / self.mss)

    def on_loss(self, now: float, in_flight: int) -> None:
        if now < self._recovery_until:
            return  # one reduction per window of loss
        self._ssthresh = max(2.0 * self.mss, self._cwnd / 2.0)
        self._cwnd = self._ssthresh
        self._recovery_until = now + 0.0  # refreshed by caller's RTT below
        self._last_loss_time = now
        # Recovery lasts roughly one RTT; without access to the estimator we
        # use a conservative constant consistent with WAN RTTs.
        self._recovery_until = now + 0.1

    def on_timeout(self, now: float) -> None:
        self._ssthresh = max(2.0 * self.mss, self._cwnd / 2.0)
        self._cwnd = float(self.mss)
        self._recovery_until = now + 0.1

    @property
    def cwnd_bytes(self) -> float:
        return max(self._cwnd, 2.0 * self.mss)
