"""The scoreboard whose remark holdoff re-scans one pending list.

:class:`ListRemarkScoreboard` is :class:`repro.transport.scoreboard.Scoreboard`
with its deferred re-examination done the way it was before the
wake-ordered heap: every retransmission is appended to ``_remark_pending``
and lowers a single wake time; once the clock passes that wake, an ACK
re-examines the *whole* list and re-appends every entry not yet due.
Everything else (the SACK delta scan, the per-key sweep) is inherited, so
a difference between the two boards is a difference in the holdoff alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List

from repro.transport.scoreboard import _END_SEQ, _SEQ, Scoreboard, Segment


class ListRemarkScoreboard(Scoreboard):
    def __init__(self, mss: int, keys: int = 1) -> None:
        super().__init__(mss, keys)
        self._remark_pending: List[Segment] = []
        self._pending_time_wake = float("inf")

    def retransmit(self, segment: Segment, now: float, holdoff: float, key: int = 0) -> None:
        segment.lost = False
        self._scan_lo = bisect_left(self.segments, segment.seq, 0, self._scan_lo, key=_SEQ)
        segment.retransmitted = True
        segment.sent_at = now
        segment.no_remark_until = now + holdoff
        segment.key = key
        self._remark_pending.append(segment)
        if segment.no_remark_until < self._pending_time_wake:
            self._pending_time_wake = segment.no_remark_until
        self.flight[key] += segment.size

    def detect_losses(self, now: float, snd_una: int) -> List[Segment]:
        segments = self.segments
        thresholds = self._threshold
        n = len(segments)
        candidates: List[Segment] = []
        for key, threshold in enumerate(thresholds):
            swept = self._loss_swept[key]
            if threshold <= swept:
                continue
            i = bisect_right(segments, swept, key=_END_SEQ)
            while i < n:
                segment = segments[i]
                i += 1
                if segment.end_seq > threshold:
                    break
                if segment.key == key and not segment.sacked and not segment.lost:
                    candidates.append(segment)
            self._loss_swept[key] = threshold
        pending = self._remark_pending
        if pending and now >= self._pending_time_wake:
            candidates += pending
            self._remark_pending = pending = []
            self._pending_time_wake = float("inf")
        newly_lost: List[Segment] = []
        for segment in candidates:
            if segment.sacked or segment.lost:
                continue
            key = segment.key
            if not snd_una < segment.end_seq <= thresholds[key]:
                continue
            if now < segment.no_remark_until:
                pending.append(segment)
                if segment.no_remark_until < self._pending_time_wake:
                    self._pending_time_wake = segment.no_remark_until
            else:
                self.mark_lost(segment)
                newly_lost.append(segment)
        if len(newly_lost) > 1:
            newly_lost.sort(key=lambda s: s.seq)
        self.retx_queue.extend(newly_lost)
        return newly_lost
