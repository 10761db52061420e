"""Receive-side reassembly against the full-rebuild algorithm it replaced.

``NaiveReassembly`` (:mod:`tests.oracles.reassembly`) is the only surviving copy of the old receiver
(append the packet's range, sort, rebuild the list tuple by tuple, pop the
prefix; scan every pending message end on every packet).
``Endpoint._receive`` — inherited unchanged by ``Connection`` and
``MultipathConnection`` — is driven through the same seeded packet
arrivals and must agree after every packet on the contiguous prefix, the
held out-of-order ranges (hence on the SACK option, their last three) and
the ``MessageReceipt`` sequence fired.

``arrivals`` cuts a byte stream into small segments grouped into messages
and delivers it window by window in the shapes a multipath receiver sees:
in order, shuffled, alternating holes that grow the held list into the
hundreds and are then filled, one packet bridging many held ranges, a
packet that starts below the prefix and ends above it, byte-granular
packets one byte short of / exactly touching / one byte into a neighbour,
and duplicates of anything seen before.
"""

import math
import random

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.net.packet import Packet, PacketType
from repro.transport import next_flow_id
from repro.transport.connection import Connection
from repro.transport.endpoint import MAX_SACK_RANGES
from repro.transport.multipath import MultipathConnection
from tests.oracles.reassembly import NaiveReassembly

MSS = 3  # small, so byte-granular packets land on and next to range edges
SEEDS = range(40)


def data_packet(seq, end_seq, tag=None):
    """A DATA packet; ``tag`` is ``(message_id, priority, message_start)``
    when the packet carries its message's last byte."""
    packet = Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=end_seq - seq)
    packet.seq, packet.end_seq = seq, end_seq
    if tag is not None:
        packet.message_last = True
        packet.message_id, packet.message_priority, packet.message_start = tag
    return packet


def carve(rng, segments):
    """``segments`` consecutive ``(seq, end_seq, tag)`` from byte 0, grouped
    into messages of 1-6 segments; the last segment of each carries the tag."""
    out, seq, message_id = [], 0, 0
    while len(out) < segments:
        start = seq
        count = min(rng.randint(1, 6), segments - len(out))
        for i in range(count):
            end = seq + rng.randint(1, MSS)
            tag = (message_id, rng.choice([None, 0, 1, 2]), start) if i == count - 1 else None
            out.append((seq, end, tag))
            seq = end
        message_id += 1
    return out


def span(window, first, last):
    """One packet covering segments ``first..last`` of ``window``."""
    return (window[first][0], window[last][1], window[last][2])


def arrivals(seed, segments=1200):
    """The packets one receiver sees, as ``(seq, end_seq, tag)`` tuples."""
    rng = random.Random(seed)
    stream = carve(rng, segments)
    out, at = [], 0
    while at < len(stream):
        window = stream[at:at + rng.choice([1, 4, 30, 200, 600])]
        at += len(window)
        n = len(window)
        shape = rng.choice(
            ["in-order", "shuffle", "alternate", "bridge", "straddle", "bytes"]
        )
        if shape == "in-order":
            batch = list(window)
        elif shape == "shuffle":
            batch = rng.sample(window, n)
        elif shape == "alternate":
            # Every other segment first: n/2 single-segment ranges, each one
            # hole from its neighbours. Then the holes, three ways.
            holes = window[0::2]
            fill = rng.choice(["forward", "backward", "random"])
            if fill == "backward":
                holes = holes[::-1]
            elif fill == "random":
                holes = rng.sample(holes, len(holes))
            batch = window[1::2] + holes
        elif shape == "bridge":
            # Scattered segments, then one packet over a run of them.
            batch = rng.sample(window, n // 2)
            first = rng.randrange(n)
            batch.append(span(window, first, rng.randrange(first, n)))
            batch += rng.sample(window, n)
        elif shape == "straddle":
            # The prefix advances a few segments, then a packet that starts
            # below it (at the window's first byte) and ends above it.
            head = rng.randint(1, n)
            batch = window[:head] + [span(window, 0, rng.randrange(n))] + window[head:]
        else:
            # Byte-granular packets around segment edges: one byte short of
            # a neighbour, exactly touching it, one byte into it.
            lo, hi = window[0][0], window[-1][1]
            batch = []
            for _ in range(2 * n):
                seq = max(lo, rng.choice(window)[0] + rng.randint(-1, 1))
                end = min(hi, rng.choice(window)[1] + rng.randint(-1, 1))
                if seq < end and end - seq <= 6 * MSS:
                    batch.append((seq, end, None))
            batch += window
        for packet in batch:
            out.append(packet)
            if rng.random() < 0.1:
                out.append(rng.choice(out))  # a duplicate of anything earlier
        if rng.random() < 0.7:
            out += window  # close the window; otherwise its holes stay held
    return out + stream


def make_endpoint(cls, receipts):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single")
    return cls(net.sim, net.client, next_flow_id(), on_message=receipts.append)


def drive(packets, cls):
    """Feed ``packets`` to a ``cls`` endpoint and the reference, asserting
    agreement after each."""
    receipts = []
    endpoint, naive = make_endpoint(cls, receipts), NaiveReassembly()
    for seq, end_seq, tag in packets:
        del receipts[:]
        endpoint._receive(data_packet(seq, end_seq, tag))
        expected = naive.receive(data_packet(seq, end_seq, tag))
        assert endpoint._rcv_nxt == naive.rcv_nxt
        assert endpoint._ooo_ranges == naive.ranges
        assert [(r.message_id, r.priority, r.size) for r in receipts] == expected
        assert endpoint._message_ends == naive.message_ends
        state = endpoint.audit_state()
        assert tuple(state["ooo_ranges"][-MAX_SACK_RANGES:]) == tuple(
            naive.ranges[-MAX_SACK_RANGES:]
        )
    # Every generated stream is delivered whole by its end.
    assert endpoint._rcv_nxt == max(end_seq for _, end_seq, _ in packets)
    assert not endpoint._ooo_ranges
    assert not endpoint._message_ends


@pytest.mark.parametrize("cls", [Connection, MultipathConnection])
class TestReceiveMatchesFullRebuild:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_arrivals(self, cls, seed):
        drive(arrivals(seed), cls)

    @pytest.mark.parametrize(
        "packets",
        [
            pytest.param([(5, 8, None), (8, 9, None), (0, 5, None)], id="touch-above"),
            pytest.param([(8, 9, None), (5, 8, None), (0, 5, None)], id="touch-below"),
            pytest.param([(5, 8, None), (9, 12, None), (8, 9, None), (0, 12, None)],
                         id="one-byte-hole-filled"),
            pytest.param([(5, 8, None), (10, 12, None), (8, 9, None), (0, 12, None)],
                         id="one-byte-hole-left"),
            pytest.param([(2, 4, None), (6, 8, None), (10, 12, None), (1, 11, None),
                          (0, 12, None)], id="bridge-all"),
            pytest.param([(2, 4, None), (6, 8, None), (10, 12, None), (4, 6, None),
                          (0, 12, None)], id="bridge-two-exactly"),
            pytest.param([(4, 6, None), (0, 4, None)], id="prefix-touches-held"),
            pytest.param([(4, 6, None), (0, 3, None), (0, 6, None)], id="prefix-stops-short"),
            pytest.param([(4, 6, None), (9, 11, None), (0, 4, None), (0, 11, None)],
                         id="prefix-swallows-one-of-two"),
            pytest.param([(0, 4, None), (6, 9, None), (2, 7, None)], id="straddles-prefix"),
            pytest.param([(3, 6, (7, None, 3)), (0, 3, (6, 1, 0)), (0, 6, (7, None, 3))],
                         id="two-messages-one-advance"),
        ],
    )
    def test_edge_shapes(self, cls, packets):
        drive(packets, cls)


def test_arrivals_hold_hundreds_of_ranges():
    peaks = []
    for seed in SEEDS:
        naive, peak = NaiveReassembly(), 0
        for seq, end_seq, tag in arrivals(seed):
            naive.receive(data_packet(seq, end_seq, tag))
            peak = max(peak, len(naive.ranges))
        peaks.append(peak)
    assert sum(1 for peak in peaks if peak >= 100) >= len(SEEDS) // 2
    assert max(peaks) >= 300


class NeverMergesTouching(Connection):
    """Planted defect: a packet ending exactly where a held range begins
    (or beginning where one ends) is held beside it, not merged into it —
    a seam inside what the SACK option should report as one block."""

    def _merge_range(self, start, end):
        seams = [hi for _, hi in self._ooo_ranges if hi == start]
        seams += [lo for lo, _ in self._ooo_ranges if lo == end]
        super()._merge_range(start, end)
        for seam in seams:
            for i, (lo, hi) in enumerate(self._ooo_ranges):
                if lo < seam < hi:
                    self._ooo_ranges[i:i + 1] = [(lo, seam), (seam, hi)]


class DropsOneTooManyOnAdvance(Connection):
    """Planted defect: when the advancing prefix swallows held ranges, the
    slice delete runs one range too far — data the sender will be told it
    still has to resend, and a message that then never completes."""

    def _merge_range(self, start, end):
        held = len(self._ooo_ranges)
        advancing = start <= self._rcv_nxt
        super()._merge_range(start, end)
        if advancing and len(self._ooo_ranges) < held:
            del self._ooo_ranges[:1]


@pytest.mark.parametrize("planted", [NeverMergesTouching, DropsOneTooManyOnAdvance])
def test_planted_reassembly_defect_is_caught(planted):
    caught = 0
    for seed in SEEDS:
        try:
            drive(arrivals(seed), planted)
        except AssertionError:
            caught += 1
    # A few seeds draw almost nothing but in-order windows.
    assert caught >= len(SEEDS) * 3 // 4


class CountedReads(list):
    """``list`` that counts every element handed out: indexing, slicing,
    iteration and ``sort`` (which reads each element at least once)."""

    def __init__(self, items, counter):
        super().__init__(items)
        self.counter = counter

    def __getitem__(self, index):
        result = super().__getitem__(index)
        self.counter[0] += len(result) if isinstance(index, slice) else 1
        return result

    def __iter__(self):
        for item in super().__iter__():
            self.counter[0] += 1
            yield item

    def sort(self, **kwargs):
        self.counter[0] += len(self)
        super().sort(**kwargs)


def test_reassembly_work_is_bounded_by_what_each_packet_changes():
    """2,000 single-segment ranges held behind a missing first segment, then
    2,000 more packets against them — duplicates of held ranges, holes
    filled (two ranges bridged), new ranges above — and at last the first
    segment. Each packet costs two binary searches and a handful of reads,
    not a pass over what is held. Counted, not timed."""
    held, further = 2000, 2000
    rng = random.Random(7)

    def segment(i):
        return (i * MSS, (i + 1) * MSS, None)

    packets = [segment(i) for i in range(1, 2 * held, 2)]
    holes = list(range(2, 2 * held, 2))
    rng.shuffle(holes)
    top = 2 * held
    for _ in range(further - 1):
        roll = rng.random()
        if roll < 0.40:
            packets.append(rng.choice(packets))
        elif roll < 0.75:
            packets.append(segment(holes.pop()))
        else:
            top += 2
            packets.append(segment(top - 1))
    packets.append(segment(0))

    receipts, counter = [], [0]
    endpoint, naive = make_endpoint(Connection, receipts), NaiveReassembly()
    counted, shortest = None, held
    for n, (seq, end_seq, tag) in enumerate(packets):
        if n == held:
            assert len(endpoint._ooo_ranges) == held
            counter[0] = 0
        if endpoint._ooo_ranges is not counted:
            # An implementation that rebuilds the list is counted all the same.
            counted = endpoint._ooo_ranges = CountedReads(endpoint._ooo_ranges, counter)
        if n >= held:
            shortest = min(shortest, len(naive.ranges))
        endpoint._receive(data_packet(seq, end_seq, tag))
        naive.receive(data_packet(seq, end_seq, tag))
    reads = counter[0]
    assert endpoint._rcv_nxt == naive.rcv_nxt
    assert endpoint._ooo_ranges == naive.ranges
    assert shortest >= held // 2  # every counted packet met a long list
    assert reads <= further * (2 * math.log2(held) + 4)
