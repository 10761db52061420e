"""The keyed :class:`Scoreboard` against the full-walk algorithm it replaced.

``NaiveBoard`` below is the only surviving copy of the old per-ACK scans
(full-list rebuild, every-range SACK walk, full-tail loss walk — what
``MultipathConnection`` ran before it shared ``Connection``'s machinery).
Both boards are driven through the same random interleaving of sends,
ACKs (cumulative point + SACK blocks), clock advances, queue
retransmissions — onto the same or a *different* loss key, i.e. multipath
reinjection — and timeouts, and must agree step for step on the newly-lost
list (in order), the RTT-eligible ``newest`` segment, every segment's
flags and the per-key flight ledger.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.scoreboard import SACK_REORDER_BYTES_FACTOR, Scoreboard, Segment

MSS = 2  # small, so sizes and thresholds collide on exact boundaries


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


def random_ops(seed, steps=200):
    """A dense, loss-prone interleaving drawn from ``seed``.

    Hypothesis supplies the seed rather than the op list: its list
    strategies favour short, small-valued examples, in which a hole with
    more than the reordering allowance SACKed above it almost never forms.
    SACK blocks here mostly start past the head and run long, so losses,
    re-losses after a retransmission and reinjection are all common.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.30:  # a burst of segments (sizes), all on one key
            ops.append(("send", [rng.randint(1, MSS) for _ in range(rng.randint(2, 8))], rng.randrange(12)))
        elif roll < 0.65:
            # Cumulative point (a count of segments; 0 = a pure dup-ACK) plus
            # up to three SACK blocks, each a (first, length) run of segments.
            blocks = [(rng.randint(0, 6), rng.randint(1, 10)) for _ in range(rng.randint(0, 3))]
            ops.append(("ack", rng.choice([0, 0, 0, 1, 3]), blocks))
        elif roll < 0.80:
            ops.append(("tick", rng.choice([0.01, 0.05, 0.2, 0.2])))
        elif roll < 0.92:
            ops.append(("retx", rng.randrange(12), rng.randrange(12)))
        else:
            ops.append(("rto", rng.randrange(12)))
    return ops


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _flags(board):
    return [
        (s.seq, s.end_seq, s.sacked, s.lost, s.retransmitted, s.key, s.no_remark_until)
        for s in board.segments
    ]


def _seqs(segments):
    return [s.seq for s in segments]


def drive(ops, keys, fast_cls=Scoreboard):
    """Apply ``ops`` to both boards, asserting agreement after each."""
    fast, naive = fast_cls(MSS, keys), NaiveBoard(MSS, keys)
    boards = (fast, naive)
    now, snd_una, snd_nxt = 0.0, 0, 0
    for op in ops:
        kind = op[0]
        if kind == "send":
            for size in op[1]:
                for board in boards:
                    board.append(Segment(snd_nxt, snd_nxt + size, now, 0), op[2] % keys)
                snd_nxt += size
        elif kind == "tick":
            now += op[1]
        elif kind == "ack" and naive.segments:
            outstanding = naive.segments
            if op[1]:
                snd_una = outstanding[min(op[1], len(outstanding)) - 1].end_seq
            ranges = tuple(
                (outstanding[first % len(outstanding)].seq,
                 outstanding[min(first % len(outstanding) + length, len(outstanding)) - 1].end_seq)
                for first, length in op[2]
            )
            newest = [board.ack(snd_una, ranges) for board in boards]
            assert (newest[0] and newest[0].seq) == (newest[1] and newest[1].seq)
            lost = [board.detect_losses(now, snd_una) for board in boards]
            assert _seqs(lost[0]) == _seqs(lost[1])
        elif kind == "retx" and naive.retx_queue:
            # Like the endpoints: pop a queue entry, drop it if it was
            # acknowledged meanwhile, else resend — on any key.
            at = op[1] % len(naive.retx_queue)
            for board in boards:
                seg = board.retx_queue.pop(at)
                if seg.lost and not seg.sacked and seg.end_seq > snd_una:
                    board.retransmit(seg, now, 0.05, op[2] % keys)
        elif kind == "rto":
            for board in boards:
                seg = board.first_unsacked()
                if seg is not None:
                    if not seg.lost:
                        board.mark_lost(seg)
                    board.retransmit(seg, now, 0.05, op[1] % keys)
        assert _flags(fast) == _flags(naive)
        unsettled = [s.seq for s in naive.segments if not s.sacked and not s.lost]
        first = fast.first_unsettled()
        assert (first and first.seq) == (unsettled[0] if unsettled else None)
        assert fast.flight == naive.flight
        assert _seqs(fast.retx_queue) == _seqs(naive.retx_queue)
        audit = fast.audit()
        assert audit["flight_bytes"] == audit["segment_flight"]
        spans = audit["segments"]
        assert all(lo < hi for lo, hi in spans)
        assert all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


class TestScoreboardMatchesFullWalk:
    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_one_key(self, seed):
        drive(random_ops(seed), keys=1)

    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_per_channel_keys(self, seed):
        drive(random_ops(seed), keys=3)


class SweepBoundOffByOne(Scoreboard):
    """Planted defect: the sweep high-water mark lands one byte too high,
    so a hole ending exactly there is never examined."""

    def detect_losses(self, now, snd_una):
        lost = super().detect_losses(now, snd_una)
        self._loss_swept = [swept + 1 for swept in self._loss_swept]
        return lost


@pytest.mark.parametrize("keys", [1, 3])
def test_planted_sweep_off_by_one_is_caught(keys):
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_seeds)
    def run(seed):
        drive(random_ops(seed), keys, fast_cls=SweepBoundOffByOne)

    with pytest.raises(AssertionError):
        run()
