"""Queue disciplines for link transmit buffers."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.net.packet import Packet


@dataclass
class QueueStats:
    """Counters a queue maintains over its lifetime."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    bytes_enqueued: int = 0
    bytes_dropped: int = 0
    max_backlog_bytes: int = 0


class DropTailQueue:
    """FIFO queue bounded in bytes; arrivals that overflow are dropped.

    This is the buffer model used by both DChannel's emulation and Mahimahi:
    a byte-capacity drop-tail queue in front of the bottleneck serializer.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._packets: Deque[Packet] = deque()
        self.backlog_bytes = 0
        self.stats = QueueStats()

    def try_enqueue(self, packet: Packet) -> bool:
        """Append ``packet`` unless it would overflow; returns success."""
        if self.backlog_bytes + packet.size_bytes > self.capacity_bytes:
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size_bytes
            return False
        self._packets.append(packet)
        self.backlog_bytes += packet.size_bytes
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size_bytes
        if self.backlog_bytes > self.stats.max_backlog_bytes:
            self.stats.max_backlog_bytes = self.backlog_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or ``None`` when empty."""
        if not self._packets:
            return None
        packet = self._packets.popleft()
        self.backlog_bytes -= packet.size_bytes
        self.stats.dequeued += 1
        return packet

    def __len__(self) -> int:
        return len(self._packets)


class PriorityDropTailQueue(DropTailQueue):
    """Two-band variant: control packets jump ahead of data packets.

    Used to model TSN-style express lanes inside a single channel. The byte
    bound is shared across both bands.
    """

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._express: Deque[Packet] = deque()

    def try_enqueue(self, packet: Packet) -> bool:
        if self.backlog_bytes + packet.size_bytes > self.capacity_bytes:
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.size_bytes
            return False
        if packet.is_control:
            self._express.append(packet)
        else:
            self._packets.append(packet)
        self.backlog_bytes += packet.size_bytes
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size_bytes
        if self.backlog_bytes > self.stats.max_backlog_bytes:
            self.stats.max_backlog_bytes = self.backlog_bytes
        return True

    def dequeue(self) -> Optional[Packet]:
        source = self._express if self._express else self._packets
        if not source:
            return None
        packet = source.popleft()
        self.backlog_bytes -= packet.size_bytes
        self.stats.dequeued += 1
        return packet

    def __len__(self) -> int:
        return len(self._express) + len(self._packets)
