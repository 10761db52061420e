"""The keyed :class:`Scoreboard` against the full-walk algorithm it replaced.

``NaiveBoard`` (:mod:`tests.oracles.scoreboard`) is the only surviving copy of the old per-ACK scans
(full-list rebuild, every-range SACK walk, full-tail loss walk — what
``MultipathConnection`` ran before it shared ``Connection``'s machinery).
Both boards are driven through the same random interleaving of sends,
ACKs (cumulative point + SACK blocks), clock advances, queue
retransmissions — onto the same or a *different* loss key, i.e. multipath
reinjection — and timeouts, and must agree step for step on the newly-lost
list (in order), the RTT-eligible ``newest`` segment, every segment's
flags and the per-key flight ledger.

``random_ops`` draws independent SACK blocks on segment edges;
``receiver_ops`` draws the ACK stream a real receiver emits (its highest
three out-of-order ranges, repeated and grown ACK after ACK) plus the
distortions the remembered-block list has to survive. ``NaiveBoard``'s
walk over every segment and every range is the only copy of the old SACK
marking.
"""

import math
import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.transport.scoreboard import (
    _END_SEQ,
    _SEQ,
    Scoreboard,
    Segment,
)

from tests.oracles.scoreboard import NaiveBoard

MSS = 2  # small, so sizes and thresholds collide on exact boundaries


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


def receiver_ops(seed, steps=250):
    """ACK shapes the receiver emits, and the remembered blocks must get right.

    A model receiver takes the sent segments mostly in order, a fifth of
    them late (a lost head keeps the cumulative point still: one block with
    a fixed ``lo`` and an advancing ``hi``; many lost segments rotate the
    highest three of many holes through the SACK option), and answers each
    with ``(rcv_nxt, highest three ranges)`` like ``Endpoint._receive``.
    Some ACKs are then distorted: a range reported as two adjacent blocks
    split at any byte (so the seam, and a later whole report, can fall
    mid-segment), a range edge nudged off its segment edge, a cumulative
    point that lands inside a reported range. Older ACKs are replayed after
    newer ones.
    """
    rng = random.Random(seed)
    ops, history = [], []
    edges = [0]  # segment i spans edges[i]:edges[i + 1]
    in_order, late = [], []  # sent segment indices the receiver has not seen
    rcv_nxt, ooo = 0, []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25:
            sizes = [rng.randint(1, MSS) for _ in range(rng.randint(2, 8))]
            in_order += range(len(edges) - 1, len(edges) - 1 + len(sizes))
            for size in sizes:
                edges.append(edges[-1] + size)
            ops.append(("send", sizes, rng.randrange(12)))
        elif roll < 0.70 and (in_order or late):
            if in_order and rng.random() < 0.2:
                late.append(in_order.pop(0))
                continue
            arrivals = in_order if in_order and (not late or rng.random() < 0.8) else late
            index = arrivals.pop(0 if arrivals is in_order else rng.randrange(len(late)))
            ooo = sorted(ooo + [(max(edges[index], rcv_nxt), edges[index + 1])])
            merged = []
            for lo, hi in ooo:
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            while merged and merged[0][0] <= rcv_nxt:
                rcv_nxt = max(rcv_nxt, merged.pop(0)[1])
            ooo = merged
            ack_seq, ranges = rcv_nxt, ooo[-3:]
            distort = rng.random()
            if ranges and distort < 0.15:
                lo, hi = ranges[-1]
                if hi - lo > 1:
                    seam = rng.randrange(lo + 1, hi)
                    ranges = ranges[:-1] + [(lo, seam), (seam, hi)]
            elif ranges and distort < 0.25:
                at = rng.randrange(len(ranges))
                lo, hi = ranges[at]
                lo, hi = lo + rng.choice([-1, 0, 1]), hi + rng.choice([-1, 0, 1])
                if 0 <= lo < hi:
                    ranges = ranges[:at] + [(lo, hi)] + ranges[at + 1:]
            elif ranges and distort < 0.30:
                inside = [e for e in edges if ranges[0][0] < e < ranges[0][1]]
                if inside:
                    ack_seq = rng.choice(inside)
            ack = ("rawack", ack_seq, tuple(ranges))
            history.append(ack)
            ops.append(ack)
        elif roll < 0.78 and history:
            ops.append(rng.choice(history))
        elif roll < 0.88:
            ops.append(("tick", rng.choice([0.01, 0.05, 0.2, 0.2])))
        elif roll < 0.96:
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
        elif kind == "rawack":
            # Absolute byte values, as an endpoint gets them off the wire:
            # the cumulative point may be stale, the ranges anywhere.
            snd_una = max(snd_una, op[1])
            newest = [board.ack(op[1], op[2]) for board in boards]
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
        # The remembered SACK blocks: sorted and disjoint, none left behind
        # the outstanding window, no unsacked segment wholly inside one.
        blocks = audit["sack_blocks"]
        assert all(lo < hi for lo, hi in blocks)
        assert all(blocks[i][1] <= blocks[i + 1][0] for i in range(len(blocks) - 1))
        assert all(hi > spans[0][0] for _, hi in blocks) if spans else not blocks
        assert not [
            seg for seg in audit["unsacked"]
            if any(lo <= seg[0] and seg[1] <= hi for lo, hi in blocks)
        ]


class TestScoreboardMatchesFullWalk:
    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_one_key(self, seed):
        drive(random_ops(seed), keys=1)

    @settings(max_examples=200, deadline=None)
    @given(_seeds)
    def test_per_channel_keys(self, seed):
        drive(random_ops(seed), keys=3)

    @pytest.mark.parametrize("keys", [1, 3])
    def test_receiver_shaped_acks(self, keys):
        @settings(max_examples=200, deadline=None)
        @given(_seeds)
        def run(seed):
            drive(receiver_ops(seed), keys)

        run()


def _scenario(*acks, segments=10):
    """``segments`` two-byte segments, then the given ``(ack_seq, ranges)``."""
    return [("send", [2] * segments, 0)] + [("rawack", ack, ranges) for ack, ranges in acks]


@pytest.mark.parametrize("ops", [
    # One block, fixed lo, advancing hi; then the same ACK again.
    _scenario((0, ((2, 4),)), (0, ((2, 6),)), (0, ((2, 12),)), (0, ((2, 12),))),
    # Highest three of many holes: the window of reported ranges rotates.
    _scenario(
        (0, ((2, 4),)), (0, ((2, 4), (6, 8))), (0, ((2, 4), (6, 8), (10, 12))),
        (0, ((6, 8), (10, 12), (14, 16))), (0, ((10, 12), (14, 16), (18, 20))),
        (0, ((2, 8), (10, 12), (14, 20))),
    ),
    # A stale, smaller ACK replayed after the newer one, then progress.
    _scenario((0, ((4, 8),)), (0, ((4, 16),)), (0, ((4, 8),)), (0, ((4, 18),))),
    # Two adjacent blocks with the seam inside segment 8:10, then reported
    # as one: only then is the straddling segment acknowledged.
    _scenario((0, ((4, 9), (9, 14))), (0, ((4, 14),))),
    # The cumulative point lands inside a remembered block, which then grows.
    _scenario((0, ((4, 12),)), (8, ((4, 12),)), (8, ((4, 16),)), (20, ())),
    # Edges mid-segment at both ends, then widened onto the segment edges.
    _scenario((0, ((5, 11),)), (0, ((4, 11),)), (0, ((4, 12),)), (0, ((3, 13),))),
    # A range partly overlapping remembered blocks on both sides.
    _scenario((0, ((2, 8), (12, 18))), (0, ((6, 14),)), (0, ((2, 18),))),
    # SACK ranges wholly below the window, from an ACK older than snd_una.
    _scenario((0, ((2, 6),)), (10, ()), (0, ((2, 6),)), (10, ((12, 16),))),
])
def test_remembered_block_shapes(ops):
    drive(ops, keys=1)


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


class MergesAdjacentBlocks(Scoreboard):
    """Planted defect: two remembered blocks that touch are fused sender-side,
    so a segment straddling their seam counts as covered and a later report
    of the whole range never marks it."""

    def _apply_sack(self, ranges):
        newest = super()._apply_sack(ranges)
        blocks = self._sack_blocks
        for i in range(len(blocks) - 1, 0, -1):
            if blocks[i - 1][1] == blocks[i][0]:
                blocks[i - 1:i + 1] = [(blocks[i - 1][0], blocks[i][1])]
        return newest


class _Unprunable(list):
    def __delitem__(self, index):
        pass


class NeverPrunesBlocks(Scoreboard):
    """Planted defect: blocks the cumulative ACK has passed are kept, so the
    list grows with the transfer instead of with the holes in one window."""

    def __init__(self, mss, keys):
        super().__init__(mss, keys)
        self._sack_blocks = _Unprunable()


@pytest.mark.parametrize("keys", [1, 3])
@pytest.mark.parametrize("planted", [MergesAdjacentBlocks, NeverPrunesBlocks])
def test_planted_block_defect_is_caught(planted, keys):
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_seeds)
    def run(seed):
        drive(receiver_ops(seed), keys, fast_cls=planted)

    with pytest.raises(AssertionError):
        run()


def loop_first_seq_at_least(segments, seq, hi):
    """Reference: the search ``retransmit`` wrote out by hand."""
    i, j = 0, hi
    while i < j:
        mid = (i + j) // 2
        if segments[mid].seq < seq:
            i = mid + 1
        else:
            j = mid
    return i


def loop_first_ending_above(segments, pos):
    """Reference: the search ``_apply_sack`` and ``detect_losses`` wrote out."""
    i, j = 0, len(segments)
    while i < j:
        mid = (i + j) // 2
        if segments[mid].end_seq <= pos:
            i = mid + 1
        else:
            j = mid
    return i


@pytest.mark.parametrize("seed", range(8))
def test_keyed_bisections_find_the_indices_the_loops_found(seed):
    rng = random.Random(seed)
    segments, seq = [], rng.randint(0, 5)
    for _ in range(rng.choice([0, 1, 2, 7, 64, 65])):
        size = rng.randint(1, 3)
        segments.append(Segment(seq, seq + size, 0.0, 0))
        seq += size
    # Every edge, one byte either side of the window, and the loss sweep's
    # initial high-water mark.
    probes = [float("-inf"), -1, seq + 1, *range(seq + 1)]
    for pos in probes:
        assert bisect_right(segments, pos, key=_END_SEQ) == loop_first_ending_above(segments, pos)
        for hi in {0, len(segments) // 2, len(segments)}:  # ``_scan_lo``
            got = bisect_left(segments, pos, 0, hi, key=_SEQ)
            assert got == loop_first_seq_at_least(segments, pos, hi)


class CountingList(list):
    """``list`` that counts indexed reads (iteration and slicing are free)."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_sack_marking_work_is_bounded_by_what_each_ack_newly_reports():
    """A 4,000-segment window acknowledged one segment at a time, 1% of it
    lost: the top SACK block grows by one segment per ACK and the two below
    it are repeated verbatim. Marking reads each segment a bounded number of
    times plus one binary search per ACK — not the whole block again."""
    window, hole_every = 4000, 100
    board = Scoreboard(MSS, 1)
    board.segments = CountingList()
    for i in range(window):
        board.append(Segment(i * MSS, (i + 1) * MSS, 0.0, 0))
    holes = range(0, window, hole_every)
    ranges, acks = [], 0
    for i in range(window):
        if i in holes:
            continue
        if ranges and ranges[-1][1] == i * MSS:
            ranges[-1] = (ranges[-1][0], (i + 1) * MSS)
        else:
            ranges.append((i * MSS, (i + 1) * MSS))
        board.ack(0, tuple(ranges[-3:]))
        acks += 1
    assert [i for i, s in enumerate(board.segments) if not s.sacked] == list(holes)
    # The holes arrive lowest first; each moves the cumulative point to the next.
    for i in holes:
        rcv_nxt = ranges.pop(0)[1]
        board.ack(rcv_nxt, ((i * MSS, rcv_nxt),) + tuple(ranges[-3:]))
        acks += 1
    assert not board.segments and board.flight == [0]
    assert board.segments.reads <= 3 * window + acks * (math.log2(window) + 6)


# ----------------------------------------------------------------------
# The wake-ordered remark heap against the list it replaced
# ----------------------------------------------------------------------
class RecordingScoreboard(Scoreboard):
    """The production board, logging every call an endpoint makes on it as
    plain values (segments by ``seq``), so the run can be replayed."""

    script = None  # the list the current test records into

    def __init__(self, mss, keys=1):
        super().__init__(mss, keys)
        self.log = RecordingScoreboard.script
        self.log.append(("new", mss, keys))
        self._detecting = False

    def append(self, segment, key=0):
        self.log.append(("append", segment.seq, segment.end_seq, segment.sent_at, key))
        super().append(segment, key)

    def ack(self, ack_seq, sack):
        self.log.append(("ack", ack_seq, tuple(sack)))
        return super().ack(ack_seq, sack)

    def retransmit(self, segment, now, holdoff, key=0):
        self.log.append(("retx", segment.seq, now, holdoff, key))
        super().retransmit(segment, now, holdoff, key)

    def mark_lost(self, segment):
        if not self._detecting:
            self.log.append(("lost", segment.seq))
        super().mark_lost(segment)

    def detect_losses(self, now, snd_una):
        self._detecting = True
        lost = super().detect_losses(now, snd_una)
        self._detecting = False
        self.log.append(("detect", now, snd_una, [s.seq for s in lost]))
        return lost


def record_script(monkeypatch, build, until):
    """Run the network ``build()`` returns with every endpoint's scoreboard
    recording; return the log."""
    import repro.transport.endpoint as endpoint_module

    script = []
    monkeypatch.setattr(RecordingScoreboard, "script", script)
    monkeypatch.setattr(endpoint_module, "Scoreboard", RecordingScoreboard)
    build().run(until=until)
    return script


def replay(script, board_cls):
    """Feed a recorded script to fresh boards of ``board_cls``; return every
    ``detect_losses`` verdict and the count of re-losses among them."""
    verdicts, relosses = [], 0
    boards, board, by_seq = [], None, None
    for op in script:
        kind = op[0]
        if kind == "new":
            board, by_seq = board_cls(op[1], op[2]), {}
            boards.append(board)
        elif kind == "append":
            by_seq[op[1]] = segment = Segment(op[1], op[2], op[3], 0)
            board.append(segment, op[4])
        elif kind == "ack":
            board.ack(op[1], op[2])
        elif kind == "retx":
            board.retransmit(by_seq[op[1]], op[2], op[3], op[4])
        elif kind == "lost":
            board.mark_lost(by_seq[op[1]])
        elif kind == "detect":
            lost = board.detect_losses(op[1], op[2])
            relosses += sum(s.retransmitted for s in lost)
            verdicts.append([s.seq for s in lost])
    return verdicts, relosses


def _cubic_over_dchannel():
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel", seed=0)
    BulkTransfer(net, cc="cubic")
    return net


def _reno_through_an_outage():
    from repro.apps.bulk import BulkTransfer
    from repro.core.api import HvcNetwork
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.net.hvc import fixed_embb_spec, urllc_spec

    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="round-robin", seed=1)
    schedule = (
        FaultSchedule()
        .outage(net.channels[0].name, start=0.3, duration=0.4)
        .loss_burst(net.channels[1].name, start=0.1, duration=0.6, loss=0.2)
    )
    FaultInjector(net, schedule).arm()
    BulkTransfer(net, cc="reno")
    return net


def _multipath_bulk():
    from tests.test_transport_multipath import dual_net, make_mp_pair

    net = dual_net(seed=0)
    make_mp_pair(net, "hvc")[0].send_message(10**9, message_id=1)
    return net


@pytest.mark.parametrize(
    "build, until, relost",
    [
        (_cubic_over_dchannel, 2.0, True),
        (_reno_through_an_outage, 1.5, True),
        # Reinjection onto the other subflow's key; nothing is lost twice.
        (_multipath_bulk, 1.5, False),
    ],
    ids=["cubic-dchannel", "reno-outage", "multipath-hvc"],
)
def test_remark_heap_matches_list_on_recorded_runs(monkeypatch, build, until, relost):
    """Each ``detect_losses`` verdict of a recorded run is what the list
    re-scan (``tests/oracles/remark_list.py``) returns on the same calls."""
    from tests.oracles.remark_list import ListRemarkScoreboard

    script = record_script(monkeypatch, build, until)
    recorded = [op[3] for op in script if op[0] == "detect"]
    heap, relosses = replay(script, Scoreboard)
    listed, _ = replay(script, ListRemarkScoreboard)
    assert heap == recorded
    assert listed == recorded
    assert sum(op[0] == "retx" for op in script) > 20
    # The single-path scripts reach the holdoff's expiry: retransmissions
    # are declared lost again.
    assert (relosses > 0) == relost


@pytest.mark.parametrize("keys", [1, 3])
def test_remark_list_oracle_matches_full_walk(keys):
    """The oracle itself agrees with the full-walk board."""
    from tests.oracles.remark_list import ListRemarkScoreboard

    @settings(max_examples=100, deadline=None)
    @given(_seeds)
    def run(seed):
        drive(random_ops(seed), keys, fast_cls=ListRemarkScoreboard)

    run()
