"""Transport-layer segment steering (§3.2).

Operating inside the transport (rather than as a packet shim) unlocks three
moves the paper highlights:

* **ACK separation** — a pure ACK always takes the low-latency channel,
  even when data would be "tacked onto" it at the network layer and pushed
  to eMBB by its size.
* **End-of-message acceleration** — the *final* segments of a message are
  what the application is blocked on; steering them (and only them) onto
  the low-latency channel avoids head-of-line blocking without flooding it.
* **Control reliability** — handshake/retransmitted segments, whose loss is
  disproportionately expensive, prefer a channel with a reliability
  guarantee when one exists.

Bulk data falls through to a DChannel-style delay comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.net.node import ChannelView
from repro.net.packet import Packet, PacketType
from repro.steering.base import (
    ChannelHealth,
    Steerer,
    lowest_latency,
    risk_adjusted_delay,
)
from repro.steering.dchannel import DChannelSteerer

#: Messages at most this large are latency-bound (requests, RPCs).
SMALL_MESSAGE_BYTES = 3000


class TransportAwareSteerer(Steerer):
    """Segment-class-aware steering using transport-visible metadata."""

    name = "transport-aware"

    def __init__(self, inner: Optional[Steerer] = None) -> None:
        """
        Messages of at most :data:`SMALL_MESSAGE_BYTES` ride the low-latency
        channel whole when it wins, and so does each message's final
        segment. ``inner`` steers bulk data (default: DChannel's delay
        comparison). Failback damping follows :class:`ChannelHealth`'s
        default hysteresis.
        """
        self.inner = inner if inner is not None else DChannelSteerer()
        self.health = ChannelHealth()

    def _reliable_choice(self, alive: Sequence[ChannelView]) -> Optional[int]:
        """Control/repair traffic prefers a reliability guarantee — but not
        one inside a loss burst: a "reliable" channel whose advertised loss
        has spiked is currently worse than an ordinary clean channel."""
        guaranteed = [v for v in alive if v.reliable and v.loss_rate < 0.01]
        if not guaranteed:
            return None
        return min(guaranteed, key=lambda v: v.base_delay).index

    def choose(self, packet: Packet, views: Sequence[ChannelView], now: float) -> Sequence[int]:
        alive = self.health.usable(views, now)
        if len(alive) == 1:
            return (alive[0].index,)
        ll = lowest_latency(alive)

        # Pure ACKs: always separated onto the low-latency channel.
        if packet.ptype == PacketType.ACK and packet.payload_bytes == 0:
            return (ll.index,)

        # Connection control: prefer a reliability guarantee.
        if packet.ptype in (PacketType.SYN, PacketType.FIN):
            reliable = self._reliable_choice(alive)
            return (reliable if reliable is not None else ll.index,)

        # Loss repair is latency-critical *and* loss-sensitive.
        if packet.is_retransmission:
            reliable = self._reliable_choice(alive)
            candidate = reliable if reliable is not None else ll.index
            return (candidate,)

        message_size = None
        if packet.message_start is not None and packet.message_last:
            message_size = packet.end_seq - packet.message_start

        others = [v for v in alive if v.index != ll.index]
        hb = min(
            others, key=lambda v: risk_adjusted_delay(v, packet.size_bytes)
        )
        ll_wins = risk_adjusted_delay(ll, packet.size_bytes) < (
            risk_adjusted_delay(hb, packet.size_bytes)
        )

        # Small messages ride the low-latency channel whole.
        if (
            message_size is not None
            and message_size <= SMALL_MESSAGE_BYTES
            and ll_wins
        ):
            return (ll.index,)

        # Tail acceleration: the last segment unblocks the receiver.
        if packet.message_last and ll_wins:
            return (ll.index,)

        return self.inner.choose(packet, views, now)
