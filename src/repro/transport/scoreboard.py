"""The sender's loss-recovery scoreboard, shared by every reliable endpoint.

One :class:`Scoreboard` holds the outstanding :class:`Segment` list and what
the per-ACK machinery derives from it: the cumulative-ACK prefix drop, SACK
marking, SACK-based loss inference (RFC 6675-lite), the retransmission
queue and the flight-byte ledger.

Loss is judged, and flight booked, **per loss key**. The number of keys is
fixed at construction; a segment is filed under one when it is appended or
retransmitted. :class:`~repro.transport.connection.Connection` uses a single
key: a hole is lost relative to anything SACKed above it.
:class:`~repro.transport.multipath.MultipathConnection` keys by channel: a
hole is lost only relative to later deliveries *on its own channel*
(cross-channel reordering is normal there, not a loss signal), and a
reinjected segment moves its flight to the new subflow.

``segments`` is kept sorted by ``seq`` (equivalently ``end_seq``): new
segments carve contiguous ranges off the send stream and are appended in
order, and nothing ever reorders the list. The per-ACK scans lean on that —
each is O(affected segments) instead of O(outstanding window), which is
where fig1a-scale runs spend most of their transport time.

SACK marking is a delta scan too. A receiver repeats its highest ranges on
every ACK, and on a WAN-BDP window the top one spans most of the window, so
the scoreboard remembers the SACK blocks it has already walked and an
incoming range costs only the segments no remembered block inside it
covers: nothing when it repeats a block, the new tail when a block grew,
the filled hole when two blocks became one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import List, Optional, Tuple

#: RFC 6675-style reordering allowance: a hole is "lost" once data this many
#: bytes above it has been selectively acknowledged.
SACK_REORDER_BYTES_FACTOR = 3


@dataclass(slots=True)
class Segment:
    """Sender-side record of one transmitted segment."""

    seq: int
    end_seq: int
    sent_at: float
    delivered_at_send: int
    retransmitted: bool = False
    sacked: bool = False
    #: Declared lost (awaiting retransmission); excluded from the pipe.
    lost: bool = False
    #: Don't re-declare lost before this time (post-retransmit grace).
    no_remark_until: float = 0.0
    channel: Optional[int] = None
    message_id: Optional[int] = None
    message_priority: Optional[int] = None
    message_last: bool = False
    message_start: Optional[int] = None
    #: Total size of the message this segment belongs to (schedulers use it
    #: to recognize latency-bound small messages from their first segment).
    message_size: Optional[int] = None
    #: Loss key the scoreboard currently files this segment under.
    key: int = 0

    @property
    def size(self) -> int:
        return self.end_seq - self.seq


#: Sort keys of ``Scoreboard.segments`` for the C bisections.
_SEQ = attrgetter("seq")
_END_SEQ = attrgetter("end_seq")


class Scoreboard:
    """Outstanding segments, loss inference and flight bytes, per loss key."""

    def __init__(self, mss: int, keys: int = 1) -> None:
        self.segments: List[Segment] = []  # outstanding, ordered by seq
        self.retx_queue: List[Segment] = []  # declared lost, to resend first
        #: Bytes in the network per key (SACKed and lost bytes excluded).
        self.flight: List[int] = [0] * keys
        #: Per-key loss threshold: the highest SACKed ``end_seq`` minus the
        #: reordering allowance. Monotone, advanced by :meth:`ack`.
        self._reorder_slack = SACK_REORDER_BYTES_FACTOR * mss
        self._threshold: List[int] = [-self._reorder_slack] * keys
        #: Settled-prefix cursor: every segment below this index is sacked
        #: or already marked lost, so :meth:`first_unsettled` never re-reads
        #: it. Shrinks with prefix deletions; drops back to the segment whose
        #: ``lost`` flag a retransmission clears (the only way a settled
        #: segment becomes unsettled again).
        self._scan_lo = 0
        #: Per-key loss-sweep high-water mark: every unsacked segment of
        #: the key with ``end_seq <= _loss_swept[key]`` has already been
        #: examined against the key's threshold (thresholds are monotone,
        #: so each ACK only needs to sweep the newly uncovered span). The
        #: deferred leftovers — segments below the mark whose
        #: ``no_remark_until`` was still in the future — wait in
        #: ``_remark_heap`` instead of forcing a re-walk of the whole
        #: sacked scoreboard.
        self._loss_swept: List[float] = [float("-inf")] * keys
        #: Segments to re-examine once their remark holdoff expires, as
        #: ``(no_remark_until, order, segment)``, one entry per
        #: retransmission: an ACK pops only the entries that are due, so a
        #: mass retransmission (RTO) parks the whole window here without
        #: any ACK re-reading what is not yet due. An entry goes stale when
        #: its segment is SACKed, acked, marked lost or retransmitted
        #: again (which files a newer entry); the per-candidate tests in
        #: :meth:`detect_losses` skip it.
        self._remark_heap: List[Tuple[float, int, Segment]] = []
        self._remark_order = count()
        #: SACK ranges already walked, sorted and disjoint: every outstanding
        #: segment lying wholly inside one is ``sacked``. Blocks are the
        #: peer's ranges verbatim — two adjacent ones are never merged here,
        #: because a segment straddling their seam is inside neither and
        #: must stay unmarked until the peer reports the merged range. None
        #: lies wholly below the first outstanding segment.
        self._sack_blocks: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Transmission bookkeeping
    # ------------------------------------------------------------------
    def append(self, segment: Segment, key: int = 0) -> None:
        """File a newly carved segment (the next in sequence) under ``key``."""
        segment.key = key
        self.segments.append(segment)
        self.flight[key] += segment.end_seq - segment.seq

    def mark_lost(self, segment: Segment) -> None:
        """Declare a live segment lost: it leaves its key's pipe."""
        segment.lost = True
        self.flight[segment.key] -= segment.size

    def retransmit(self, segment: Segment, now: float, holdoff: float, key: int = 0) -> None:
        """Put a lost segment back in flight, under a ``key`` that may differ
        from the one it was lost on (multipath reinjection)."""
        segment.lost = False
        # The segment is unsettled again: the settled-prefix cursor may not
        # stay above its index.
        self._scan_lo = bisect_left(self.segments, segment.seq, 0, self._scan_lo, key=_SEQ)
        segment.retransmitted = True
        segment.sent_at = now
        segment.no_remark_until = now + holdoff
        segment.key = key
        # Its end_seq may be behind the key's sweep high-water mark, where
        # the delta sweep never revisits it — queue it for re-examination
        # once the remark holdoff expires.
        heappush(
            self._remark_heap,
            (segment.no_remark_until, next(self._remark_order), segment),
        )
        self.flight[key] += segment.size

    def first_unsacked(self) -> Optional[Segment]:
        """The lowest outstanding segment the peer has not reported."""
        return next((s for s in self.segments if not s.sacked), None)

    def first_unsettled(self) -> Optional[Segment]:
        """The lowest segment neither sacked nor lost."""
        segments = self.segments
        n = len(segments)
        lo = self._scan_lo
        while lo < n and (segments[lo].sacked or segments[lo].lost):
            lo += 1
        self._scan_lo = lo
        return segments[lo] if lo < n else None

    # ------------------------------------------------------------------
    # Per-ACK scans
    # ------------------------------------------------------------------
    def ack(self, ack_seq: int, sack: tuple) -> Optional[Segment]:
        """Absorb one ACK; return the newest RTT-eligible segment it covers.

        Cumulatively acked segments form a prefix of the sorted list, so
        this walks only that prefix and deletes it in one slice, then marks
        the SACKed ranges (whose newest segment, when there is one, is the
        better RTT sample: it was sent later).
        """
        newest: Optional[Segment] = None
        segments = self.segments
        flight = self.flight
        idx = 0
        for segment in segments:
            if segment.end_seq > ack_seq:
                break
            idx += 1
            if not segment.sacked and not segment.lost:
                flight[segment.key] -= segment.end_seq - segment.seq
            if not segment.retransmitted:
                newest = segment
        if idx:
            del segments[:idx]
            lo = self._scan_lo - idx
            self._scan_lo = lo if lo > 0 else 0
            blocks = self._sack_blocks
            if blocks:
                # Forget the blocks the cumulative point has passed.
                floor = segments[0].seq if segments else float("inf")
                passed = 0
                while passed < len(blocks) and blocks[passed][1] <= floor:
                    passed += 1
                del blocks[:passed]
        if sack:
            return self._apply_sack(sack) or newest
        return newest

    def _apply_sack(self, ranges: tuple) -> Optional[Segment]:
        """Mark SACKed segments; return the newest one for RTT sampling.

        Of each range, only the gaps between the remembered blocks lying
        wholly inside it are walked (binary search to the gap, walk until
        the next block or the end of the range); the range then replaces
        every block it overlaps. A range lying inside a remembered block —
        the peer repeating itself, or a stale ACK replayed — walks nothing.
        """
        segments = self.segments
        n = len(segments)
        if not n:
            return None
        floor = segments[0].seq
        top = segments[-1].end_seq
        blocks = self._sack_blocks
        flight = self.flight
        threshold = self._threshold
        slack = self._reorder_slack
        newest_idx = -1
        for lo, hi in ranges:
            # Remember a range only where it can cover outstanding segments:
            # not bytes yet to be sent, nor one the cumulative point passed.
            if hi > top:
                hi = top
            if hi <= floor or hi <= lo:
                continue
            # blocks[first:last] are the remembered blocks overlapping the range.
            first = bisect_left(blocks, (lo,))
            if first and blocks[first - 1][1] > lo:
                first -= 1
            last = first
            nb = len(blocks)
            if first < nb:
                blo, bhi = blocks[first]
                if blo <= lo and hi <= bhi:
                    continue
            # Every segment wholly inside [lo, pos) is already marked.
            gaps = []
            pos = lo
            while last < nb:
                blo, bhi = blocks[last]
                if blo >= hi:
                    break
                last += 1
                if lo <= blo and bhi <= hi:
                    # Even an empty gap between two adjacent blocks can hold
                    # a segment straddling their seam; only one at ``lo``
                    # itself cannot.
                    if blo > lo:
                        gaps.append((pos, blo))
                    pos = bhi
            gaps.append((pos, hi))
            blocks[first:last] = [(lo, hi)]
            for pos, stop in gaps:
                # The first segment ending above ``pos``: the ones below it
                # are inside the block that ends there, or below the range.
                i = bisect_right(segments, pos, key=_END_SEQ)
                if i < n and segments[i].seq < lo:
                    i += 1  # straddles the range's lower edge
                while i < n:
                    segment = segments[i]
                    if segment.seq >= stop or segment.end_seq > hi:
                        break
                    if not segment.sacked:
                        segment.sacked = True
                        key = segment.key
                        if segment.lost:
                            segment.lost = False
                        else:
                            flight[key] -= segment.end_seq - segment.seq
                        if segment.end_seq - slack > threshold[key]:
                            threshold[key] = segment.end_seq - slack
                        if not segment.retransmitted and i > newest_idx:
                            newest_idx = i
                    i += 1
        return segments[newest_idx] if newest_idx >= 0 else None

    def detect_losses(self, now: float, snd_una: int) -> List[Segment]:
        """SACK-based loss inference; queue and return the newly lost.

        Each key's threshold is monotone, so each call sweeps only the span
        of segments the threshold newly uncovered since the previous call
        — not the whole sub-threshold scoreboard, which is mostly SACKed
        holes' neighbours that a full walk re-read on every ACK. Segments
        examined while their remark holdoff was still running wait in
        ``_remark_heap`` until it expires; retransmissions re-enter through
        the same heap (see :meth:`retransmit`).
        """
        segments = self.segments
        thresholds = self._threshold
        n = len(segments)
        # Fresh candidates: per key, the span its threshold uncovered since
        # the last sweep, ``end_seq`` in (swept, threshold]. New segments
        # are created above every threshold (their seq exceeds the highest
        # SACK), so every segment is examined by exactly one delta sweep of
        # the key it was sent on; one that changes key re-enters through
        # ``_remark_heap``.
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
        # Deferred candidates whose holdoff has expired.
        pending = self._remark_heap
        while pending and pending[0][0] <= now:
            candidates.append(heappop(pending)[2])
        newly_lost: List[Segment] = []
        for segment in candidates:
            if segment.sacked or segment.lost:
                continue
            # A cumulatively acked entry left ``segments`` entirely and must
            # not be remarked through the retained reference. One still above
            # its key's threshold is above the key's sweep mark too, so the
            # delta sweep will come to it.
            key = segment.key
            if not snd_una < segment.end_seq <= thresholds[key]:
                continue
            if now < segment.no_remark_until:
                # Still in its holdoff: the entry its last retransmission
                # filed, due at exactly this ``no_remark_until``, brings
                # it back.
                continue
            self.mark_lost(segment)
            newly_lost.append(segment)
        if len(newly_lost) > 1:
            # Several sources feed the retransmission queue; keep the
            # sequence order a single full walk would produce.
            newly_lost.sort(key=lambda s: s.seq)
        self.retx_queue.extend(newly_lost)
        return newly_lost

    def audit(self) -> dict:
        """Ledger snapshot for the invariant monitor: the per-key flight
        ledger next to its recomputation from the segment list, and the
        remembered SACK blocks next to the segments still unsacked."""
        recomputed = [0] * len(self.flight)
        for segment in self.segments:
            if not segment.sacked and not segment.lost:
                recomputed[segment.key] += segment.size
        return {
            "flight_bytes": list(self.flight),
            "segment_flight": recomputed,
            "segments": [(s.seq, s.end_seq) for s in self.segments],
            "sack_blocks": list(self._sack_blocks),
            "unsacked": [(s.seq, s.end_seq) for s in self.segments if not s.sacked],
            "retx_queued": len(self.retx_queue),
        }
