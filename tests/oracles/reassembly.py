"""The receiver before it kept its held ranges incrementally.

:class:`NaiveReassembly` appends each packet's range, sorts, rebuilds the
list tuple by tuple, pops the prefix and scans every pending message end
on every packet — the reference for ``Endpoint._receive``.
"""

from __future__ import annotations


class NaiveReassembly:
    """Reference: every packet re-sorts and rebuilds everything held."""

    def __init__(self):
        self.rcv_nxt = 0
        self.ranges = []
        self.message_ends = {}

    def receive(self, packet):
        """Reassemble ``packet``; returns the messages it completes as
        ``(message_id, priority, size)``, in stream order."""
        if packet.end_seq <= self.rcv_nxt:
            return []
        if packet.message_last and packet.message_id is not None:
            start = packet.message_start if packet.message_start is not None else 0
            self.message_ends[packet.end_seq] = (
                packet.message_id, packet.message_priority, start,
            )
        self.ranges.append((max(packet.seq, self.rcv_nxt), packet.end_seq))
        self.ranges.sort()
        merged = []
        for lo, hi in self.ranges:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        while merged and merged[0][0] <= self.rcv_nxt:
            self.rcv_nxt = max(self.rcv_nxt, merged.pop(0)[1])
        self.ranges = merged
        fired = []
        for end in sorted(end for end in self.message_ends if end <= self.rcv_nxt):
            message_id, priority, start = self.message_ends.pop(end)
            fired.append((message_id, priority, end - start))
        return fired
