"""Bulk transfer: a backlogged flow that never runs out of data.

This is Pantheon's workload in the paper's Fig. 1: one sender saturating
the channel set for a fixed duration under a given congestion controller,
while we record achieved throughput and the RTT samples the CCA saw.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.api import ConnectionPair, HvcNetwork
from repro.core.metrics import mean_throughput_bps, throughput_series
from repro.transport.connection import RttRecord

#: One "infinite" message big enough that the sender is never app-limited
#: in any experiment we run (the transport only materializes segments).
BACKLOG_BYTES = 10**10


class BulkTransfer:
    """A client→server backlogged flow."""

    def __init__(
        self,
        net: HvcNetwork,
        cc: str = "cubic",
        flow_priority: Optional[int] = None,
        total_bytes: Optional[int] = None,
        **conn_kwargs,
    ) -> None:
        self.net = net
        self.pair: ConnectionPair = net.open_connection(
            cc=cc, flow_priority=flow_priority, **conn_kwargs
        )
        size = total_bytes if total_bytes is not None else BACKLOG_BYTES
        self.pair.client.send_message(size, message_id=1)

    def mean_throughput_bps(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Average goodput between ``start`` and ``end`` (bits/s)."""
        timeline = self.pair.client.stats.delivered_timeline
        if not timeline:
            return 0.0
        return mean_throughput_bps(timeline, start=start, end=end or self.net.now)

    def throughput_series(self, interval: float = 1.0) -> List[Tuple[float, float]]:
        """(time, bits/s) bins over the whole run."""
        return throughput_series(
            self.pair.client.stats.delivered_timeline,
            interval=interval,
            end_time=self.net.now,
        )

    def rtt_records(self) -> List[RttRecord]:
        """Every RTT sample the sender's CCA consumed."""
        return self.pair.client.stats.rtt_records
