"""The multipath send path before the scheduler decided first and carved
second.

:class:`NaiveScheduler` carves a probe segment for every question (through
a list-slicing ``_message_for_offset``) and rebuilds the live /
lowest-delay / highest-rate subflows by three list and lambda passes per
pick — the reference for ``MultipathConnection``'s ``_try_send`` loop.
"""

from __future__ import annotations

from repro.errors import TransportError
from repro.transport.connection import Segment
from repro.transport.multipath import SMALL_MESSAGE_BYTES


class NaiveScheduler:
    """Reference: the bodies ``MultipathConnection`` and ``Endpoint`` had
    before the scheduler decided first and carved second."""

    def __init__(self, conn):
        self.conn = conn

    def _live_subflows(self):
        conn = self.conn
        live = [s for s in conn.subflows if conn.device.views[s.key].up]
        return live if live else list(conn.subflows)

    def _ll_subflow(self, live):
        return min(
            live, key=lambda s: self.conn.device.views[s.key].base_delay
        )

    def _hb_subflow(self, live):
        return max(
            live, key=lambda s: self.conn.device.views[s.key].rate_bps
        )

    @staticmethod
    def has_window(subflow, size):
        return subflow.in_flight + size <= subflow.cc.cwnd_bytes

    def _pick_subflow(self, segment):
        if self.conn.scheduler == "minrtt":
            candidates = [
                s for s in self._live_subflows() if self.has_window(s, segment.size)
            ]
            if not candidates:
                return None
            return min(candidates, key=lambda s: s.rtt.srtt or 0.05)
        return self._pick_hvc(segment)

    def _pick_hvc(self, segment):
        live = self._live_subflows()
        ll = self._ll_subflow(live)
        hb = self._hb_subflow(live)
        urgent = segment.retransmitted or segment.message_last or (
            segment.message_size is not None
            and segment.message_size <= SMALL_MESSAGE_BYTES
        )
        if urgent and ll is not hb and self.has_window(ll, segment.size):
            return ll
        if self.has_window(hb, segment.size):
            return hb
        return None

    def _message_for_offset(self, offset):
        conn = self.conn
        for message in conn._messages[conn._next_message_index:]:
            if message.start <= offset < message.end:
                return message
        raise TransportError(f"flow {conn.flow_id}: no message covers offset {offset}")

    def _carve_segment(self):
        """The probe: built to ask the scheduler, committed only if it sends."""
        conn = self.conn
        message = self._message_for_offset(conn._snd_nxt)
        size = min(conn.mss, message.end - conn._snd_nxt)
        return Segment(
            seq=conn._snd_nxt,
            end_seq=conn._snd_nxt + size,
            sent_at=conn.sim.now,
            delivered_at_send=conn._total_delivered,
            message_id=message.message_id,
            message_priority=message.priority,
            message_last=(conn._snd_nxt + size == message.end),
            message_start=message.start,
            message_size=message.size,
        )
