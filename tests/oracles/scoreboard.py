"""The scoreboard before its scans were keyed and incremental.

:class:`NaiveBoard` walks the whole outstanding list on every ACK (full-list
rebuild, every-range SACK walk, full-tail loss walk) — what
``MultipathConnection`` ran before it shared ``Connection``'s machinery,
and the reference for :class:`repro.transport.scoreboard.Scoreboard`.
"""

from __future__ import annotations

from repro.transport.scoreboard import SACK_REORDER_BYTES_FACTOR


class NaiveBoard:
    """Reference: every scan walks the whole outstanding list."""

    def __init__(self, mss, keys):
        self.segments, self.retx_queue = [], []
        self.flight = [0] * keys
        self.high = [0] * keys
        self.slack = SACK_REORDER_BYTES_FACTOR * mss

    def append(self, seg, key):
        seg.key = key
        self.segments.append(seg)
        self.flight[key] += seg.size

    def mark_lost(self, seg):
        seg.lost = True
        self.flight[seg.key] -= seg.size

    def retransmit(self, seg, now, holdoff, key):
        seg.lost, seg.retransmitted, seg.key = False, True, key
        seg.sent_at, seg.no_remark_until = now, now + holdoff
        self.flight[key] += seg.size

    def first_unsacked(self):
        return next((s for s in self.segments if not s.sacked), None)

    def ack(self, ack_seq, ranges):
        newest, kept = None, []
        for seg in self.segments:
            if seg.end_seq <= ack_seq:
                if not seg.sacked and not seg.lost:
                    self.flight[seg.key] -= seg.size
                if not seg.retransmitted:
                    newest = seg
            else:
                kept.append(seg)
        self.segments = kept
        sacked_newest = None
        for seg in self.segments:
            if not seg.sacked and any(lo <= seg.seq and seg.end_seq <= hi for lo, hi in ranges):
                seg.sacked = True
                if seg.lost:
                    seg.lost = False
                else:
                    self.flight[seg.key] -= seg.size
                self.high[seg.key] = max(self.high[seg.key], seg.end_seq)
                if not seg.retransmitted:
                    sacked_newest = seg
        return sacked_newest or newest

    def detect_losses(self, now, snd_una):
        lost = []
        for seg in self.segments:
            if seg.sacked or seg.lost:
                continue
            if seg.end_seq <= self.high[seg.key] - self.slack and now >= seg.no_remark_until:
                self.mark_lost(seg)
                lost.append(seg)
        self.retx_queue.extend(lost)
        return lost
