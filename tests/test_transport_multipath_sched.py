"""Multipath scheduling decisions, and the send path against the code it
replaced.

The scheduler now answers from ``(size, urgent)`` read off the head of the
queue and from channel roles computed once per send opportunity; a
``Segment`` is built only for a send that happens. The bodies this replaced
survive only as ``NaiveScheduler`` (:mod:`tests.oracles.scheduler`): a probe segment carved for every
question (through a list-slicing ``_message_for_offset``), and the live /
lowest-delay / highest-rate subflows rebuilt by three list and lambda passes
per pick. The real ``_try_send`` loop is driven step for step against it.
"""

import dataclasses
import random

import pytest

from repro.core.api import HvcNetwork
from repro.errors import TransportError
from repro.net.channel import END_A, ChannelSpec, DirectionSpec
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.traces.model import NetworkTrace
from repro.transport import endpoint as endpoint_module
from repro.transport import next_flow_id
from repro.transport.cc.base import CongestionControl
from repro.transport.connection import Segment
from repro.transport.multipath import (
    SMALL_MESSAGE_BYTES,
    MultipathConnection,
    _urgent,
)
from repro.transport.scoreboard import Scoreboard
from repro.units import DEFAULT_MSS, mbps, ms
from tests.conftest import make_pair
from tests.oracles.scheduler import NaiveScheduler
from tests.test_transport_multipath import dual_net, make_mp_pair


def make_conn(scheduler="hvc"):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="single")
    conn = MultipathConnection(
        net.sim, net.client, next_flow_id(), scheduler=scheduler
    )
    return net, conn


def segment(size=1460, last=False, retx=False, message_size=10**9):
    seg = Segment(
        seq=0,
        end_seq=size,
        sent_at=0.0,
        delivered_at_send=0,
        message_last=last,
        message_start=0,
        message_size=message_size,
    )
    seg.retransmitted = retx
    return seg


def pick(conn, seg):
    """What the send loop asks about a queue head shaped like ``seg``."""
    conn._open_burst()
    return conn._pick(seg.size, _urgent(seg), conn._roles())


class TestHvcScheduler:
    def test_bulk_goes_to_hb(self):
        net, conn = make_conn()
        chosen = pick(conn, segment())
        assert chosen.key == 0  # eMBB

    def test_message_tail_goes_to_ll(self):
        net, conn = make_conn()
        chosen = pick(conn, segment(last=True))
        assert chosen.key == 1  # URLLC

    def test_small_message_goes_to_ll_from_first_segment(self):
        net, conn = make_conn()
        chosen = pick(conn, segment(message_size=SMALL_MESSAGE_BYTES))
        assert chosen.key == 1

    def test_retransmission_goes_to_ll(self):
        net, conn = make_conn()
        chosen = pick(conn, segment(retx=True))
        assert chosen.key == 1

    def test_urgent_falls_back_to_hb_when_ll_window_full(self):
        net, conn = make_conn()
        ll = conn.subflows[1]
        conn._sb.flight[1] = int(ll.cc.cwnd_bytes)  # no room
        chosen = pick(conn, segment(last=True))
        assert chosen.key == 0

    def test_bulk_waits_when_hb_window_full(self):
        net, conn = make_conn()
        hb = conn.subflows[0]
        conn._sb.flight[0] = int(hb.cc.cwnd_bytes)
        assert pick(conn, segment()) is None

    def test_single_channel_everything_on_it(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        conn = MultipathConnection(net.sim, net.client, next_flow_id())
        assert pick(conn, segment(last=True)).key == 0
        assert pick(conn, segment()).key == 0


class TestMinRttScheduler:
    def test_prefers_lowest_srtt_with_room(self):
        net, conn = make_conn(scheduler="minrtt")
        conn.subflows[0].rtt.on_sample(0.050)
        conn.subflows[1].rtt.on_sample(0.005)
        assert pick(conn, segment()).key == 1

    def test_spills_when_preferred_full(self):
        net, conn = make_conn(scheduler="minrtt")
        conn.subflows[0].rtt.on_sample(0.050)
        conn.subflows[1].rtt.on_sample(0.005)
        conn._sb.flight[1] = int(conn.subflows[1].cc.cwnd_bytes)
        assert pick(conn, segment()).key == 0

    def test_none_when_all_full(self):
        net, conn = make_conn(scheduler="minrtt")
        for subflow in conn.subflows:
            conn._sb.flight[subflow.key] = int(subflow.cc.cwnd_bytes)
        assert pick(conn, segment()) is None


class SettableCc(CongestionControl):
    """A controller whose window the test sets; never paces."""

    def __init__(self, mss):
        super().__init__(mss)
        self.window = 10.0 * mss

    @property
    def cwnd_bytes(self):
        return self.window


#: One step per second: rates and delays from the same short menus as the
#: static channels (so they tie with them), an outage included.
TRACE = NetworkTrace(
    times=[0.0, 1.0, 2.0, 3.0],
    rates_bps=[mbps(60), mbps(2), 0.0, mbps(100)],
    delays=[ms(25), ms(2.5), ms(25), ms(6)],
)

MSS = DEFAULT_MSS
#: Message sizes that put boundaries exactly at the MSS and at the
#: small-message limit, one byte either side, and well clear of both.
MESSAGE_BYTES = (
    1, MSS - 1, MSS, MSS + 1, 2 * MSS,
    SMALL_MESSAGE_BYTES - 1, SMALL_MESSAGE_BYTES, SMALL_MESSAGE_BYTES + 1,
    SMALL_MESSAGE_BYTES + MSS, 7 * MSS + 13,
)


def scheduler_rig(rng, scheduler):
    """A sender over 1-4 channels (some trace-driven) whose ``_transmit``
    records instead of sending, so the send loop can be stepped by hand."""
    sim = Simulator()
    specs = []
    for index in range(rng.randint(1, 4)):
        traced = rng.random() < 0.3
        up = DirectionSpec(
            rate_bps=0.0 if traced else mbps(rng.choice([2, 60, 60, 100])),
            delay=ms(rng.choice([2.5, 2.5, 25, 6])),
            trace=TRACE if traced else None,
        )
        down = DirectionSpec(rate_bps=mbps(10), delay=ms(5))
        specs.append(ChannelSpec(f"ch{index}", up=up, down=down))
    client, _, channels = make_pair(sim, specs)
    conn = MultipathConnection(sim, client, next_flow_id(), scheduler=scheduler)
    for subflow in conn.subflows:
        subflow.cc = SettableCc(conn.mss)
    return sim, channels, conn


def set_channel_up(channel, up):
    """Take a channel down with one fault hold, or release it."""
    if up and channel.fault_holds:
        channel.restore()
    elif not up and not channel.fault_holds:
        channel.fail()


def mutate(rng, sim, channels, conn):
    """One random change to what a scheduling decision reads."""
    sb = conn._sb
    roll = rng.random()
    if roll < 0.12:
        set_channel_up(rng.choice(channels), rng.random() < 0.5)
    elif roll < 0.15:
        for channel in channels:
            set_channel_up(channel, False)
    elif roll < 0.19:
        for channel in channels:
            set_channel_up(channel, True)
    elif roll < 0.29:  # what a fault injector writes
        link = rng.choice(channels).out_link(END_A)
        link.delay_offset = rng.choice([0.0, 0.0, ms(22.5), ms(3.5)])
        link.rate_factor = rng.choice([1.0, 1.0, 0.5, 1 / 30, 0.0])
    elif roll < 0.37:  # trace-driven rates and delays move with the clock
        sim.run(until=sim.now + rng.choice([0.05, 0.4, 1.0]))
    elif roll < 0.47:
        rng.choice(conn.subflows).rtt.on_sample(rng.choice([0.005, 0.05, 0.05, 0.2]))
    elif roll < 0.62:
        conn.send_message(rng.choice(MESSAGE_BYTES))
    elif roll < 0.72 and sb.segments:  # a loss: a first one, or a repair's
        candidate = rng.choice(sb.segments)
        if not (candidate.lost or candidate.sacked or candidate in sb.retx_queue):
            sb.mark_lost(candidate)
            sb.retx_queue.append(candidate)
    elif roll < 0.80 and sb.segments:  # a cumulative ACK, maybe past queued repairs
        ack_seq = rng.choice(sb.segments).end_seq
        sb.ack(ack_seq, ())
        conn._snd_una = ack_seq
    for subflow in conn.subflows:  # windows at, one byte off and clear of the edge
        room = rng.choice([0, 1, MSS - 1, MSS, MSS + 1, 4 * MSS, 40 * MSS])
        subflow.cc.window = float(subflow.in_flight + room)


@pytest.mark.parametrize("scheduler", ["hvc", "minrtt"])
@pytest.mark.parametrize("seed", range(10))
def test_send_loop_matches_naive_scheduler(seed, scheduler):
    rng = random.Random(seed)
    sim, channels, conn = scheduler_rig(rng, scheduler)
    naive = NaiveScheduler(conn)
    sent, waits, probes = [], [], []
    seen = {"down": 0, "all_down": 0, "retx_head": 0, "repaired_head": 0, "ll": 0}
    real_pick, real_carve = conn._pick, conn._carve_segment

    def checked_roles():
        live, ll, hb = roles = MultipathConnection._roles(conn)
        want = naive._live_subflows()
        assert live == want
        assert ll is naive._ll_subflow(want) and hb is naive._hb_subflow(want)
        up = [conn.device.views[s.key].up for s in conn.subflows]
        seen["down"] += not all(up)
        seen["all_down"] += not any(up)
        return roles

    def checked_pick(size, urgent, roles):
        # What the old loop would have asked about: the repair at the head
        # of the queue, else a probe carved off the unsent stream.
        queue = conn._sb.retx_queue
        probe = queue[0] if queue else naive._carve_segment()
        if queue:
            seen["retx_head"] += not probe.retransmitted
            seen["repaired_head"] += probe.retransmitted
        assert size == probe.size
        got = real_pick(size, urgent, roles)
        assert got is naive._pick_subflow(probe), (size, urgent, probe)
        probes.append(probe)
        if got is None:
            waits.append(probe)
        else:
            seen["ll"] += got is roles[1] and roles[1] is not roles[2]
        return got

    def checked_carve(message, size, key):
        assert message is naive._message_for_offset(conn._snd_nxt)
        carved = real_carve(message, size, key)
        assert carved == dataclasses.replace(probes[-1], key=key)
        assert conn._snd_nxt == carved.end_seq and conn._sb.segments[-1] is carved
        return carved

    conn._roles = checked_roles
    conn._pick = checked_pick
    conn._carve_segment = checked_carve
    conn._transmit = lambda seg, subflow, retransmission: sent.append(
        (seg.seq, subflow.key, retransmission)
    )
    for _ in range(400):
        mutate(rng, sim, channels, conn)
        conn._try_send()
    assert len(sent) > 100 and len(waits) > 20
    assert any(retransmission for _, _, retransmission in sent)
    assert seen["ll"] or len(channels) == 1 or scheduler == "minrtt"
    if seed == 0:  # the seeds together reach every kind of state
        assert min(seen.values()) > 0, seen


def test_head_message_cursor_rejects_a_send_with_no_covering_message():
    net, conn = make_conn()
    with pytest.raises(TransportError, match="no message covers offset 0"):
        conn._head_message()
    conn._try_send = lambda: None  # queue without sending
    first = conn.send_message(MSS)
    second = conn.send_message(1)
    assert conn._head_message() is first
    conn._snd_nxt = MSS - 1
    assert conn._head_message() is first
    conn._snd_nxt = MSS  # exactly on the boundary: the next message's byte
    assert conn._head_message() is second
    conn._snd_nxt = MSS + 1
    with pytest.raises(TransportError, match=f"no message covers offset {MSS + 1}"):
        conn._head_message()


# ----------------------------------------------------------------------
# A segment is built only for a send that happens
# ----------------------------------------------------------------------
def test_segments_are_built_only_for_sends(monkeypatch):
    """The multipath-rpc scenario (backlogged bulk + 4 Hz RPCs, both
    schedulers): every ``Segment`` constructed is filed on a scoreboard.
    The probing loop built 24,813 for 14,509 sent on 1.5 s of it."""
    built = appended = 0

    def counting_segment(*args, **kwargs):
        nonlocal built
        built += 1
        return Segment(*args, **kwargs)

    real_append = Scoreboard.append

    def counting_append(self, segment, key=0):
        nonlocal appended
        appended += 1
        real_append(self, segment, key)

    monkeypatch.setattr(endpoint_module, "Segment", counting_segment)
    monkeypatch.setattr(Scoreboard, "append", counting_append)
    for scheduler in ("hvc", "minrtt"):
        net = dual_net(seed=0)
        make_mp_pair(net, scheduler)[0].send_message(10**9, message_id=1)
        rpc, _ = make_mp_pair(net, scheduler)
        PeriodicTimer(net.sim, 0.25, lambda: rpc.send_message(2_000))
        net.run(until=0.6)
    assert built == appended > 4_000
