"""RTT estimation and retransmission timeout per RFC 6298 (Jacobson/Karn).

Karn's rule is enforced by the caller: retransmitted segments never produce
RTT samples.
"""

from __future__ import annotations

from typing import Optional

#: Conservative floor; real stacks use 200 ms – 1 s. Low-latency channels
#: make smaller floors attractive, so it is configurable per connection.
DEFAULT_MIN_RTO = 0.2
DEFAULT_MAX_RTO = 60.0
#: RTO before the first RTT sample (RFC 6298 says 1 s).
INITIAL_RTO = 1.0

ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0
K = 4.0
#: Exponential backoff ceiling (RFC 6298 allows capping the multiplier).
MAX_BACKOFF = 64.0


class RttEstimator:
    """Smoothed RTT / RTT variance / RTO state machine.

    ``rto`` is a plain attribute, rewritten by the three operations that
    move its inputs (a sample, a timeout, a backoff reset): it is read on
    every transmit and every ACK, several times as often as it changes.
    ``min_rto`` / ``max_rto`` are fixed at construction.
    """

    def __init__(self, min_rto: float = DEFAULT_MIN_RTO, max_rto: float = DEFAULT_MAX_RTO) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError(f"invalid RTO bounds [{min_rto}, {max_rto}]")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self.samples = 0
        self.consecutive_timeouts = 0
        self._backoff = 1.0
        self._store_rto()

    def _store_rto(self) -> None:
        """``min(max_rto, max(min_rto, srtt + K * rttvar) * backoff)``."""
        if self.srtt is None:
            base = INITIAL_RTO
        else:
            assert self.rttvar is not None
            base = self.srtt + K * self.rttvar
        if base < self.min_rto:
            base = self.min_rto
        rto = base * self._backoff
        #: Current retransmission timeout (seconds).
        self.rto = rto if rto < self.max_rto else self.max_rto

    def on_sample(self, rtt: float) -> None:
        """Fold in one RTT measurement (never from a retransmission)."""
        if rtt <= 0:
            raise ValueError(f"rtt sample must be positive, got {rtt}")
        self.latest_rtt = rtt
        self.samples += 1
        self._backoff = 1.0
        self.consecutive_timeouts = 0
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self._store_rto()

    def on_timeout(self) -> None:
        """Exponential backoff after a retransmission timeout fires."""
        self.consecutive_timeouts += 1
        self._backoff = min(self._backoff * 2.0, MAX_BACKOFF)
        self._store_rto()

    def reset_backoff(self) -> None:
        """Forget accumulated backoff without an RTT sample.

        Fault-aware RTO interaction: timeouts fired into a channel outage
        measure the outage, not the path — once the sender *knows* a channel
        came back (a local administrative signal, not a guess), waiting out
        a minute-scale backed-off timer would dominate time-to-recover.
        Called on every ACK that makes progress, so it stores only when a
        timeout is outstanding (``_backoff`` is 1 exactly when none is).
        """
        if self.consecutive_timeouts:
            self._backoff = 1.0
            self.consecutive_timeouts = 0
            self._store_rto()

    @property
    def backoff(self) -> float:
        """Current backoff multiplier (1 when no timeout is outstanding)."""
        return self._backoff

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srtt = f"{self.srtt * 1e3:.1f}ms" if self.srtt is not None else "?"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1e3:.0f}ms>"
