"""The congestion-control interface.

A controller is a pure control loop: the connection feeds it ACK/loss/send
events and reads back a congestion window (bytes) and an optional pacing
rate (bits/s). Controllers never touch the simulator directly, which keeps
them unit-testable with synthetic event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class AckSample:
    """Everything a controller may learn from one ACK event."""

    now: float
    #: RTT measured for the newest acked segment (Karn-filtered); None if
    #: this ACK yielded no valid sample.
    rtt: Optional[float]
    #: Bytes newly acknowledged by this ACK.
    newly_acked: int
    #: Sender's bytes in flight after processing this ACK.
    in_flight: int
    #: Delivery-rate sample (bits/s) for the newest acked segment, or None.
    delivery_rate: Optional[float]
    #: True if the sender was application-limited when the segment was sent.
    app_limited: bool = False
    #: Channel the acked data segment travelled on (echoed by the receiver).
    data_channel: Optional[int] = None
    #: Channel the ACK itself arrived on.
    ack_channel: Optional[int] = None
    #: Total bytes delivered on this connection so far.
    total_delivered: int = 0


class CongestionControl:
    """Base class; subclasses override the event hooks they care about."""

    #: Registry name; subclasses set this.
    name = "base"

    def __init__(self, mss: int = 1460) -> None:
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        self.mss = mss

    # -- events ---------------------------------------------------------
    def on_ack(self, sample: AckSample) -> None:
        """An ACK arrived (possibly with a new RTT/delivery-rate sample)."""

    def on_loss(self, now: float, in_flight: int) -> None:
        """Loss inferred via duplicate ACKs / SACK (fast-retransmit class)."""

    def on_lost(self, now: float, lost_bytes: int, in_flight: int) -> None:
        """Bytes newly declared lost. Unlike :meth:`on_loss` (at most once
        per recovery window), this fires for every loss-detection batch with
        the byte count, so rate-based controllers can track per-round loss
        rates (BBRv2's 2% PROBE_UP cap)."""

    def on_timeout(self, now: float) -> None:
        """A retransmission timeout fired (severe congestion signal)."""

    def on_sent(self, now: float, size_bytes: int, in_flight: int) -> None:
        """A segment was handed to the network."""

    # -- outputs --------------------------------------------------------
    @property
    def cwnd_bytes(self) -> float:
        """Maximum bytes in flight the controller currently allows."""
        raise NotImplementedError

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        """Pacing rate (bits/s), or None for pure window-based sending."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pacing = self.pacing_rate_bps
        paced = f" pace={pacing / 1e6:.1f}Mbps" if pacing else ""
        return f"<{type(self).__name__} cwnd={self.cwnd_bytes / self.mss:.1f}seg{paced}>"


INITIAL_WINDOW_SEGMENTS = 10
