"""The per-packet hop against the code it replaced.

Every packet crosses ``Device.send -> Steerer.choose -> ChannelView ->
Link.send`` and ``Link._deliver -> Device._on_link_deliver ->
Resequencer.push -> dispatch``. The hop now does one fused channel read
per view, keeps one record per flow, and answers ``any_channel_up()`` from
a count; min-rtt, ECF, message priority and flow priority make one pass
over the views; a view's ``up`` is a slot its channel writes, and fixed
and traced links share one read path. The bodies it replaced live in
:mod:`tests.oracles` as references:

* ``NaiveDChannel`` — the old ``DChannelSteerer.choose`` (separate
  ``base_delay``/``rate_bps``/``risk_adjusted_delay``/``queueing_delay``
  reads) on top of the old list-building ``ChannelHealth.usable``;
* ``NaiveMinRtt``, ``NaiveEcf``, ``NaivePriority`` and
  ``NaiveFlowPriority`` — ``min()``/``max()`` with a key over lists of up
  views;
* ``NaiveView`` — the old ``ChannelView``: ``up`` derived from the channel
  on every read, a precomputed static path for fixed links and
  ``Link.current_rate()``/``current_delay()`` for traced ones;
* ``NaiveResequencer`` — the old five-parallel-dict resequencer with
  ``min()`` over every held deadline.

Each is driven step for step against the shipped class over seeded or
generated inputs and must agree on everything observable. The last tests
bound the cost of the hop, and of the transport above it, by a count
(Python-level calls per simulated event), not a time.
"""

import collections
import itertools
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.bulk import BulkTransfer
from repro.core.api import HvcNetwork
from repro.errors import SteeringError
from repro.net import resequencer as resequencer_module
from repro.net.channel import END_A, Channel, ChannelSpec, DirectionSpec
from repro.net.hvc import fiber_wan_spec, fixed_embb_spec, leo_spec, urllc_spec
from repro.net.loss import LossModel
from repro.net.node import DEDUP_WINDOW, ChannelView, Device
from repro.net.packet import Packet, PacketType
from repro.net.resequencer import Resequencer
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.steering.base import ChannelHealth, risk_adjusted_delay
from repro.steering.dchannel import DChannelSteerer
from repro.steering.flow_priority import FlowPriorityFilter
from repro.steering.mptcp import EcfSteerer, MinRttSteerer
from repro.steering.priority import MessagePrioritySteerer
from repro.traces.model import NetworkTrace
from repro.units import mbps, ms
from tests.oracles.resequencer import NaiveResequencer
from tests.oracles.steering import (
    NaiveDChannel,
    NaiveEcf,
    NaiveFlowPriority,
    NaiveMinRtt,
    NaivePriority,
)
from tests.oracles.view import NaiveView
from tests.test_steering import FakeView
from tests.test_transport_multipath import dual_net, make_mp_pair

SEEDS = range(12)


# ----------------------------------------------------------------------
# (a) the fused view read == the accessors it fuses
# ----------------------------------------------------------------------
class FixedLoss(LossModel):
    """A loss model that only advertises a rate (1.0 included)."""

    def __init__(self, rate):
        self.rate = rate

    def should_drop(self, rng, now):
        return False

    @property
    def long_run_rate(self):
        return self.rate


#: One trace step per second: full rate, a halved rate with a longer
#: delay, an outage (rate 0), a trickle.
TRACE = NetworkTrace(
    times=[0.0, 1.0, 2.0, 3.0],
    rates_bps=[mbps(40), mbps(20), 0.0, mbps(0.3)],
    delays=[ms(20), ms(35), ms(20), ms(50)],
)


def bits(values):
    """Floats as exact bit patterns (``inf`` and ``-0.0`` included)."""
    return [float(value).hex() for value in values]


def view_in_state(rng, traced, rate_factor, delay_offset, load_frac, loss, backlog):
    """A real ``ChannelView`` whose link sits in the requested state."""
    sim = Simulator()
    rate = mbps(rng.choice([2, 60, 333.3]))
    direction = DirectionSpec(
        rate_bps=0.0 if traced else rate,
        delay=ms(rng.choice([2.5, 25, 0])),
        loss=FixedLoss(loss),
        trace=TRACE if traced else None,
    )
    channel = Channel(sim, ChannelSpec("ch", up=direction, down=DirectionSpec(rate_bps=mbps(1))))
    if traced:
        sim.run(until=rng.choice([0.0, 0.4, 1.7, 2.5, 3.2, 4.1]))  # 4.1 wraps
        rate = TRACE.rate_at(sim.now)
    link = channel.uplink
    link.rate_factor = rate_factor
    link.delay_offset = delay_offset
    link.set_background_load(load_frac * rate)
    for _ in range(backlog):  # the first goes into service, the rest queue
        link.send(Packet(1, PacketType.DATA, payload_bytes=rng.randint(0, 1460)))
    assert (link._serving is not None) == (backlog > 0)
    assert len(link.queue) == max(0, backlog - 1)
    return ChannelView(channel, END_A)


@pytest.mark.parametrize("traced", [False, True], ids=["static", "traced"])
def test_fused_read_equals_separate_accessors(traced):
    rng = random.Random(7)
    grid = itertools.product(
        [1.0, 0.3, 0.0],  # rate_factor
        [0.0, ms(13)],  # delay_offset
        [0.0, 0.4, 1.0, 2.5],  # background load / capacity
        [0.0, 0.3, 1.0],  # advertised loss
        [0, 1, 6],  # packets in service + queued
    )
    infinite = finite = 0
    for rate_factor, delay_offset, load_frac, loss, backlog in grid:
        view = view_in_state(rng, traced, rate_factor, delay_offset, load_frac, loss, backlog)
        for size in (40, rng.randint(41, 1499), 1500):
            separate = (
                view.base_delay,
                view.rate_bps,
                risk_adjusted_delay(view, size),
                view.queueing_delay(size),
            )
            fused = view.steering_read(size)
            assert bits(fused) == bits(separate), (
                rate_factor, delay_offset, load_frac, loss, backlog, size,
            )
            assert bits(view.delay_rate()) == bits(separate[:2])
            assert bits(view.delay_estimate(size)) == bits(
                (view.base_delay, view.estimated_delivery_delay(size))
            )
            infinite += fused[2:].count(float("inf"))
            finite += sum(1 for value in fused[2:] if value != float("inf"))
    assert infinite > 100 and finite > 100


def view_reads(view, size):
    """Everything a steering policy may read off one view, as bit patterns."""
    return [view.up] + bits(
        [
            view.rate_bps,
            view.base_delay,
            view.base_rtt,
            view.capacity_bps,
            view.loss_rate,
            view.queueing_delay(size),
            view.estimated_delivery_delay(size),
            *view.steering_read(size),
            *view.delay_rate(),
            *view.delay_estimate(size),
        ]
    )


@pytest.mark.parametrize("traced", [False, True], ids=["static", "traced"])
def test_view_reads_equal_the_naive_view(traced):
    """One read path for fixed and traced links == the two it replaced,
    under fault overlays, background load up to 2.5x capacity and a trace
    outage, read first and read after the other view, and (traced) again
    as the clock crosses trace steps."""
    rng = random.Random(11)
    grid = itertools.product(
        [1.0, 0.3, 0.0],  # rate_factor
        [0.0, ms(13)],  # delay_offset
        [0.0, 0.4, 1.0, 2.5],  # background load / capacity
        [0, 1, 6],  # packets in service + queued
    )
    zero_rate = 0
    for rate_factor, delay_offset, load_frac, backlog in grid:
        view = view_in_state(rng, traced, rate_factor, delay_offset, load_frac, 0.3, backlog)
        naive = NaiveView(view._channel, END_A)
        sim = view._out.sim
        view._out.connect(lambda packet: None)  # the queue drains as the clock moves
        for step in (0.0, 0.35, 0.9, 1.3) if traced else (0.0,):
            sim.run(until=sim.now + step)
            for size in (40, rng.randint(41, 1499), 1500):
                first = view_reads(view, size)
                assert view_reads(naive, size) == first
                assert view_reads(view, size) == first
                zero_rate += view.rate_bps == 0.0
    assert zero_rate > 20


def test_static_delivery_estimate_ignores_background_load():
    """The trap the fused read must reproduce: on a static link the
    delivery estimate divides by the rate *before* background load while
    ``rate_bps``/``queueing_delay`` subtract it."""
    view = view_in_state(random.Random(0), False, 1.0, 0.0, 2.5, 0.0, 3)
    _, rate, risk, queueing = view.steering_read(1500)
    assert rate == 0.0 and queueing == float("inf")
    assert risk < float("inf")


# ----------------------------------------------------------------------
# (b) DChannel verdicts and channel health
# ----------------------------------------------------------------------
def steering_stream(seed, steps=500):
    """``(now, packet)`` steps over 2-4 mutating ``FakeView``s.

    Delays and rates come from short menus so ties are common; rates drop
    to zero; loss reaches 1.0; channels flap with down/up gaps both shorter
    and longer than the 0.5 s hysteresis, occasionally all at once.
    """
    rng = random.Random(seed)
    views = [
        FakeView(
            index,
            rate_bps=mbps(rng.choice([2, 60, 60, 100])),
            base_delay=ms(rng.choice([2.5, 2.5, 25, 6])),
        )
        for index in range(rng.randint(2, 4))
    ]
    now = 0.0
    for _ in range(steps):
        now += rng.choice([0.0, 0.001, 0.02, 0.2, 0.7])
        for view in views:
            roll = rng.random()
            if roll < 0.08:
                view.up = not view.up
            elif roll < 0.12:
                view.rate_bps = rng.choice([0.0, mbps(2), mbps(60)])
            elif roll < 0.16:
                view.loss_rate = rng.choice([0.0, 0.3, 1.0])
            elif roll < 0.5:
                view.backlog_bytes = rng.choice([0, 1500, 40_000, 600_000])
        if rng.random() < 0.03:
            for view in views:
                view.up = False
        ptype = rng.choice([PacketType.DATA, PacketType.DATA, PacketType.ACK, PacketType.SYN])
        payload = rng.randint(1, 1460) if ptype == PacketType.DATA else 0
        yield now, views, Packet(rng.randint(1, 3), ptype, payload_bytes=payload)


def verdict(steerer, packet, views, now):
    try:
        return steerer.choose(packet, views, now)
    except SteeringError as error:
        return str(error)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("accelerate_control", [True, False])
def test_dchannel_matches_naive(seed, accelerate_control):
    options = dict(accelerate_control=accelerate_control, savings_threshold=ms(seed % 3))
    new, naive = DChannelSteerer(**options), NaiveDChannel(**options)
    verdicts = set()
    for now, views, packet in steering_stream(seed):
        got = verdict(new, packet, views, now)
        assert got == verdict(naive, packet, views, now)
        assert new._hb_arrival == naive._hb_arrival
        assert new.health.transitions == naive.health.transitions
        assert new.health._was_up == naive.health._was_up
        # The shipped tracker forgets a failback once its window is served;
        # the reference keeps every one.
        pending, kept = new.health._reup_at, naive.health._reup_at
        assert pending.items() <= kept.items()
        assert all(
            now - at >= new.health.hysteresis
            for index, at in kept.items()
            if index not in pending
        )
        verdicts.add(got)
    assert "no channel is up" in verdicts and len(verdicts) >= 3
    assert new.health.transitions > 10


def test_usable_returns_the_views_in_steady_state():
    """No failback inside its window and everything is up: no list is built."""
    health = ChannelHealth()
    views = [FakeView(0), FakeView(1)]
    assert list(health.usable(views, 0.0)) == views  # first sight: recorded
    assert health.usable(views, 0.1) is views
    views[1].up = False
    assert health.usable(views, 0.2) == [views[0]]
    views[1].up = True
    assert health.usable(views, 0.3) == [views[0]]  # inside the hysteresis
    assert health.usable(views, 0.9) == views and health.transitions == 2
    assert health.usable(views, 1.0) is views  # window served: steady again
    with pytest.raises(SteeringError):
        health.usable([], 1.0)


def test_network_run_is_identical_under_the_naive_steerer():
    def run(steerer):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steerer, seed=3)
        bulk = BulkTransfer(net, cc="cubic")
        net.run(until=1.0)
        lowlat = net.channels[1].uplink.stats.bytes_delivered
        return net.sim.events_processed, bulk.pair.client.stats.bytes_acked, lowlat

    assert run(DChannelSteerer()) == run(NaiveDChannel())


def test_wan_network_run_is_identical_under_the_naive_min_rtt():
    """The ``cc-matrix`` WAN cell (fiber + LEO, bbr vs bbr2+) under min-rtt."""

    def run(steerer):
        net = HvcNetwork([fiber_wan_spec(), leo_spec()], steering=steerer, seed=0)
        flows = [BulkTransfer(net, cc=cc) for cc in ("bbr", "bbr2+")]
        net.run(until=0.6)
        leo = net.channels[1].uplink.stats.bytes_delivered
        return net.sim.events_processed, [f.pair.client.stats.bytes_acked for f in flows], leo

    assert run(MinRttSteerer()) == run(NaiveMinRtt())


def test_network_run_is_identical_under_the_naive_ecf():
    def run(steerer):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steerer, seed=3)
        bulk = BulkTransfer(net, cc="cubic")
        net.run(until=1.0)
        lowlat = net.channels[1].uplink.stats.bytes_delivered
        return net.sim.events_processed, bulk.pair.client.stats.bytes_acked, lowlat

    assert run(EcfSteerer()) == run(NaiveEcf())


def naive_twin(net):
    """Put each device of ``net`` on the old views and the old bodies of
    its priority steerer (with an old DChannel inside)."""
    for device in (net.client, net.server):
        device.views = [NaiveView(channel, device.end) for channel in device.channels]
        steerer = device.steerer
        if isinstance(steerer, MessagePrioritySteerer):
            twin = NaivePriority(steerer.cutoff, NaiveDChannel())
        else:
            assert isinstance(steerer, FlowPriorityFilter)
            twin = NaiveFlowPriority(NaiveDChannel(), steerer.cutoff)
        device.set_steerer(twin)
    return net


def test_fig2_priority_cell_is_identical_under_the_naive_view_and_steerer():
    from repro.apps.video.session import run_video_session
    from repro.experiments.fig2 import video_network

    def run(naive):
        net = video_network("5g-lowband-driving", "priority", seed=0)
        if naive:
            naive_twin(net)
        result = run_video_session(net, duration=3.0)
        lowlat = net.channels[1].uplink.stats.bytes_delivered
        return net.sim.events_processed, result, lowlat

    shipped = run(False)
    assert shipped[0] > 5_000
    assert run(True) == shipped


def test_table1_flow_priority_page_is_identical_under_the_naive_view_and_steerer():
    from repro.apps.web.corpus import generate_corpus
    from repro.experiments.table1 import TRACES, corpus_plts, web_network

    page = generate_corpus(count=1, seed=0)

    def run(naive):
        nets = []

        def build(index):
            net = web_network(TRACES["stationary"], "dchannel+flowprio", seed=index)
            nets.append(naive_twin(net) if naive else net)
            return net

        plts, events = corpus_plts(page, build)
        lowlat = nets[0].channels[1].uplink.stats.bytes_delivered
        return plts, events, lowlat

    assert run(True) == run(False)


# ----------------------------------------------------------------------
# (b2) min-rtt, ECF, priority and flow-priority verdicts over generated
# view sets
# ----------------------------------------------------------------------
#: Short menus, so equal base delays and equal estimates are common; a
#: zero rate makes a view's estimate ``inf``.
view_sets = st.lists(
    st.tuples(
        st.sampled_from([0.0, mbps(2), mbps(60), mbps(60), mbps(100)]),
        st.sampled_from([ms(2.5), ms(2.5), ms(6), ms(25)]),
        st.sampled_from([0, 0, 1500, 40_000]),
        st.booleans(),  # up
    ),
    min_size=1,
    max_size=5,
)


def fake_views(spec):
    return [
        FakeView(index, rate_bps=rate, base_delay=delay, backlog_bytes=backlog, up=up)
        for index, (rate, delay, backlog, up) in enumerate(spec)
    ]


@given(
    spec=view_sets,
    payload=st.sampled_from([0, 40, 1460]),
    beta=st.sampled_from([1.0, 1.5, 4.0]),
)
@settings(max_examples=400, deadline=None)
def test_min_rtt_and_ecf_match_naive(spec, payload, beta):
    views = fake_views(spec)
    packet = Packet(1, PacketType.DATA, payload_bytes=payload)
    pairs = ((MinRttSteerer(), NaiveMinRtt()), (EcfSteerer(beta), NaiveEcf(beta)))
    for new, naive in pairs:
        assert verdict(new, packet, views, 0.0) == verdict(naive, packet, views, 0.0)


class Inner:
    """A wrapped policy that reports the views it was handed."""

    name = "inner"

    def choose(self, packet, views, now):
        return ("inner",) + tuple(view.index for view in views)


@given(
    spec=view_sets,
    payload=st.sampled_from([0, 40, 1460]),
    priority=st.sampled_from([None, 0, 1, 2]),
    cutoff=st.sampled_from([0, 1]),
)
@settings(max_examples=400, deadline=None)
def test_priority_and_flow_priority_match_naive(spec, payload, priority, cutoff):
    views = fake_views(spec)
    by_message = Packet(1, PacketType.DATA, payload_bytes=payload, message_priority=priority)
    by_flow = Packet(1, PacketType.DATA, payload_bytes=payload, flow_priority=priority)
    pairs = (
        (MessagePrioritySteerer(cutoff, Inner()), NaivePriority(cutoff, Inner()), by_message),
        (FlowPriorityFilter(Inner(), cutoff), NaiveFlowPriority(Inner(), cutoff), by_flow),
    )
    for new, naive, packet in pairs:
        assert verdict(new, packet, views, 0.0) == verdict(naive, packet, views, 0.0)


@pytest.mark.parametrize("naive", [False, True], ids=["shipped", "naive"])
def test_priority_edge_cases(naive):
    """The cases the generated sets must not leave to chance, for both
    priority steerers: the bulk / background role must skip the
    low-latency view wherever it sits, and ties go to the first view."""
    message, flow = (NaivePriority, NaiveFlowPriority) if naive else (
        MessagePrioritySteerer, FlowPriorityFilter,
    )
    by_message, by_flow = message(0, Inner()), flow(Inner(), 0)

    def tagged(priority):
        return (
            Packet(1, PacketType.DATA, payload_bytes=1000, message_priority=priority),
            Packet(1, PacketType.DATA, payload_bytes=1000, flow_priority=priority),
        )

    def both(views, priority):
        low, background = tagged(priority)
        return by_message.choose(low, views, 0.0), by_flow.choose(background, views, 0.0)

    # The low-latency view is also the fastest and the emptiest.
    views = [
        FakeView(0, rate_bps=mbps(10), base_delay=ms(25)),
        FakeView(1, rate_bps=mbps(90), base_delay=ms(2)),
        FakeView(2, rate_bps=mbps(60), base_delay=ms(25), backlog_bytes=9000),
    ]
    assert both(views, 0) == ((1,), ("inner", 0, 1, 2))
    assert both(views, 1) == ((2,), (0,))
    # Equal delays: the first is low-latency; equal rates / estimates: the
    # first of the rest wins.
    same = [FakeView(0), FakeView(1), FakeView(2)]
    assert both(same, 0) == ((0,), ("inner", 0, 1, 2))
    assert both(same, 1) == ((1,), (1,))
    same[1].rate_bps = 0.0  # an infinite estimate loses, a zero rate too
    assert both(same, 1) == ((2,), (2,))
    # One live view: its index, whatever the tags; untagged goes inside.
    same[0].up = same[2].up = False
    assert both(same, 1) == ((1,), (1,))
    assert both(same, None) == ((1,), (1,))
    same[1].up = False
    for packet in tagged(None) + tagged(0) + tagged(1):
        for steerer in (by_message, by_flow):
            with pytest.raises(SteeringError, match="no channel is up"):
                steerer.choose(packet, same, 0.0)


@pytest.mark.parametrize(
    "steerer", [MinRttSteerer(), NaiveMinRtt(), EcfSteerer(), NaiveEcf()],
    ids=["min-rtt", "naive-min-rtt", "ecf", "naive-ecf"],
)
def test_single_pass_edge_cases(steerer):
    """The cases the generated sets must not leave to chance."""
    packet = Packet(1, PacketType.DATA, payload_bytes=1000)
    same = [FakeView(0), FakeView(1), FakeView(2)]
    assert steerer.choose(packet, same, 0.0) == (0,)  # ties: the first wins
    same[0].up = False
    assert steerer.choose(packet, same, 0.0) == (1,)
    stalled = [FakeView(0, rate_bps=0.0, base_delay=ms(1)), FakeView(1)]
    assert steerer.choose(packet, stalled, 0.0) == (1,)  # inf loses
    everything_stalled = [FakeView(0, rate_bps=0.0), FakeView(1, rate_bps=0.0)]
    assert steerer.choose(packet, everything_stalled, 0.0) == (0,)
    for view in same:
        view.up = False
    with pytest.raises(SteeringError, match="no channel is up"):
        steerer.choose(packet, same, 0.0)


# ----------------------------------------------------------------------
# (c) the resequencer
# ----------------------------------------------------------------------
class TimedResequencer(Resequencer):
    """The shipped resequencer, logging when its flush timer fires."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timer_instants = []

    def _on_flush_timer(self, state):
        self.timer_instants.append(self.sim.now)
        super()._on_flush_timer(state)


#: Hold timeout of both resequencers under test.
TIMEOUT = 0.08

#: ``(send gap, per-channel one-way delays, loss, duplicate copies)``:
#: mild reordering; a slow channel inside the timeout; one beyond it, so
#: holes time out before the straggler lands; a burst that parks far more
#: than ``MAX_HELD_PACKETS`` (patched to 16) behind one slow packet; and
#: heavy loss with redundant copies, so holes are real and duplicates of
#: held, delivered and flushed packets all occur.
SHAPES = (
    (0.004, (0.002, 0.012), 0.0, 0.0),
    (0.003, (0.002, 0.060, 0.020), 0.05, 0.1),
    (0.010, (0.001, 0.200), 0.05, 0.0),
    (0.0005, (0.001, 0.070), 0.02, 0.05),
    (0.006, (0.003, 0.040, 0.150), 0.3, 0.4),
)


def resequencer_arrivals(seed, per_flow=160):
    """Time-ordered ``(arrival, packet)`` for three flows, each stamped by
    a sending shim (``shim_seq``, distinct channels used so far) and carried
    over FIFO channels that differ in delay, drop packets and carry
    redundant copies; plus the odd unstamped packet."""
    rng = random.Random(seed)
    out = []
    order = itertools.count()
    for flow in (1, 2, 3):
        gap, delays, loss, copies = SHAPES[(seed + flow) % len(SHAPES)]
        used = set()
        sent = rng.random() * 0.01
        for seq in range(per_flow):
            sent += gap * rng.choice([0.2, 1.0, 1.0, 3.0])
            channels = [rng.randrange(len(delays)) if rng.random() < 0.4 else 0]
            if rng.random() < copies:
                channels.append((channels[0] + 1) % len(delays))
            used.update(channels)
            for channel in channels:
                if rng.random() < loss:
                    continue
                packet = Packet(flow, PacketType.DATA, payload_bytes=100)
                packet.shim_seq = seq
                packet.shim_channel_count = len(used)
                packet.channel_index = channel if rng.random() < 0.97 else None
                out.append((sent + delays[channel], next(order), packet))
            if rng.random() < 0.02:
                out.append((sent, next(order), Packet(flow, PacketType.DATA)))
    out.sort(key=lambda item: item[:2])
    return [(arrival, packet) for arrival, _, packet in out]


@pytest.mark.parametrize("seed", SEEDS)
def test_resequencer_matches_naive(seed, monkeypatch):
    monkeypatch.setattr(resequencer_module, "MAX_HELD_PACKETS", 16)
    cancels = collections.Counter()
    cancel = Event.cancel

    def counted_cancel(event):
        cancels[event._sim] += 1
        cancel(event)

    monkeypatch.setattr(Event, "cancel", counted_cancel)
    rigs = []
    for cls in (TimedResequencer, NaiveResequencer):
        sim, delivered = Simulator(), []
        rigs.append((sim, cls(sim, delivered.append, timeout=TIMEOUT), delivered))
    (sim, new, got), (naive_sim, naive, want) = rigs

    def agree():
        assert len(got) == len(want) and got[-8:] == want[-8:]
        assert new.packets_held == naive.packets_held
        assert new.timeout_flushes == naive.timeout_flushes
        assert new.pending_count == naive.pending_count
        assert new.timer_instants == naive.timer_instants
        assert sim.events_processed == naive_sim.events_processed
        assert sim.pending_events == naive_sim.pending_events

    arrivals = resequencer_arrivals(seed)
    for arrival, packet in arrivals:
        sim.run(until=arrival)
        naive_sim.run(until=arrival)
        new.push(packet)
        naive.push(packet)
        agree()
    sim.run()
    naive_sim.run()
    agree()
    assert got == want
    assert new.pending_count == 0 and len(got) <= len(arrivals)
    # The flush timer is re-filed only when the earliest deadline moved;
    # the naive one re-files on every drain.
    assert cancels[sim] <= naive.deadline_moves < cancels[naive_sim]
    if seed == 0:  # the shapes together reach every branch
        assert new.packets_held > 100 and new.timeout_flushes > 0
        assert new.timer_instants and len(got) < len(arrivals)


def test_max_held_valve_opens(monkeypatch):
    monkeypatch.setattr(resequencer_module, "MAX_HELD_PACKETS", 4)
    sim, delivered = Simulator(), []
    reseq = Resequencer(sim, lambda p: delivered.append(p.shim_seq), timeout=TIMEOUT)
    for seq in (5, 3, 9, 7, 8):  # 0 never arrives; the fifth trips the valve
        packet = Packet(1, PacketType.DATA)
        packet.shim_seq, packet.channel_index, packet.shim_channel_count = seq, 0, 2
        reseq.push(packet)
    assert delivered == [3] and reseq.pending_count == 4


# ----------------------------------------------------------------------
# (d) the device: up-count and duplicate window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_any_channel_up_tracks_every_transition(seed, sim):
    rng = random.Random(seed)
    specs = [ChannelSpec.symmetric(f"ch{i}", mbps(10), ms(5)) for i in range(rng.randint(1, 3))]
    channels = [Channel(sim, spec, index=i) for i, spec in enumerate(specs)]
    # A channel observer registered before any device attached (a fault
    # injector's, a monitor's) must already see the new state on every
    # view: the channel writes its views before it calls its hooks.
    seen_by_early_hooks = []
    for channel in channels:
        channel.on_transition.append(
            lambda channel, up, now: seen_by_early_hooks.append(
                client.views[channel.index].up == up == server.views[channel.index].up
            )
        )
    client, server = Device(sim, "client"), Device(sim, "server")
    client.attach(channels, end=0)
    server.attach(channels, end=1)
    seen_in_hooks = []

    def check():
        truth = any(channel.up for channel in channels)
        assert client.any_channel_up() == truth
        assert server.any_channel_up() == truth
        for device in (client, server):
            assert [view.up for view in device.views] == [ch.up for ch in channels]
        return truth

    # Transports send from inside their own device's hook, so its count
    # must already be right when the hook runs.
    for device in (client, server):
        device.on_channel_transition_hooks.append(
            lambda *_, device=device: seen_in_hooks.append(
                device.any_channel_up() == any(channel.up for channel in channels)
            )
        )
    holds = [0] * len(channels)
    overlapped = False
    assert check()
    for _ in range(300):
        index = rng.randrange(len(channels))
        action = rng.choice(["fail", "fail", "restore", "restore", "restore"])
        if action == "fail":
            channels[index].fail()
            holds[index] += 1
            overlapped = overlapped or holds[index] > 1
        elif action == "restore" and holds[index]:
            channels[index].restore()
            holds[index] -= 1
        check()
    assert len(seen_in_hooks) >= 20 and all(seen_in_hooks)
    assert len(seen_by_early_hooks) == len(seen_in_hooks) // 2
    assert all(seen_by_early_hooks)
    assert overlapped


def test_device_attached_to_a_down_channel_counts_it_down(sim):
    specs = [ChannelSpec.symmetric(name, mbps(10), ms(5)) for name in "ab"]
    channels = [Channel(sim, spec, index=i) for i, spec in enumerate(specs)]
    channels[0].fail()
    device = Device(sim, "late")
    device.attach(channels, end=0)
    assert device.any_channel_up()
    assert [view.up for view in device.views] == [False, True]
    assert ChannelView(channels[0], END_A).up is False
    channels[1].fail()
    assert not device.any_channel_up()
    assert not any(view.up for view in device.views)
    device.send(Packet(1, PacketType.DATAGRAM, payload_bytes=10))
    assert device.stats.blackout_drops == 1
    channels[0].restore()
    assert device.any_channel_up()
    assert [view.up for view in device.views] == [True, False]


def test_dedup_window_discards_late_copies_then_forgets(sim):
    device = Device(sim, "rx", resequence=False)
    received = []
    device.set_default_handler(lambda packet: received.append(packet.packet_id))

    def deliver(packet_id, flow=1):
        device._on_link_deliver(
            Packet(flow, PacketType.DATAGRAM, payload_bytes=10, packet_id=packet_id)
        )

    deliver(0)
    for packet_id in range(1, DEDUP_WINDOW):
        deliver(packet_id)
    deliver(0)  # DEDUP_WINDOW - 1 ids later: still remembered
    deliver(0, flow=2)  # another flow's window is its own
    assert device.stats.duplicates_discarded == 1
    assert received.count(0) == 2
    deliver(DEDUP_WINDOW)  # pushes id 0 out of flow 1's window
    deliver(0)
    deliver(1)  # id 1 left with the re-admitted id 0's arrival
    deliver(DEDUP_WINDOW)
    assert device.stats.duplicates_discarded == 2
    assert received.count(0) == 3 and received.count(1) == 2
    assert device.stats.packets_received == len(received) == DEDUP_WINDOW + 4


# ----------------------------------------------------------------------
# (e) the cost of a hop and of the transport above it, counted
# ----------------------------------------------------------------------
def python_calls(run, *layers):
    """Python-level calls made inside ``repro/<layer>/`` while ``run()``
    executes, counted by function name: exact and repeatable, unlike a
    time."""
    package = os.path.dirname(repro.__file__)
    dirs = tuple(os.path.join(package, layer) + os.sep for layer in layers)
    calls = collections.Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(dirs):
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def python_calls_per_event(net, until, *layers):
    """:func:`python_calls` per simulated event while ``net`` runs to
    ``until``."""
    calls = python_calls(lambda: net.run(until=until), *layers)
    events = net.sim.events_processed
    assert events > 10_000
    return sum(calls.values()) / events


def test_hop_python_calls_per_event_bound():
    """``net/`` and ``steering/`` on 1 s of cubic over dchannel steering.
    The hop this file's oracles describe made 23.6; the fused one made
    13.07 while the link still called ``_start_next`` and ``_transmit``,
    11.85 without them, 10.13 with ``up`` a slot and the device's
    ``_transmit`` folded into its send loop, and makes 8.92 with loss
    rates stored and the resequencer's flush timer re-filed only when its
    deadline moves."""
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel", seed=0)
    BulkTransfer(net, cc="cubic")
    assert python_calls_per_event(net, 1.0, "net", "steering") <= 9.2


def test_cross_layer_cells_python_calls_per_event_bound():
    """``net/`` and ``steering/`` in the cells where cross-layer hints
    steer: the Fig. 2 priority video over the lowband driving trace (6 s)
    and a Table 1 ``dchannel+flowprio`` corpus of six stationary pages.
    With ``up_views``, ``min()``/``highest_bandwidth`` and the traced
    link's ``current_rate`` -> ``capacity_bps`` -> ``_follow_trace`` chain
    they made 15.41 and 15.49; one pass over the views, ``up`` a slot and
    one read path made 9.25 and 10.10; one fused (delay, rate) or (delay,
    estimate) read per view and stored loss rates make 7.85 and 8.86."""
    from repro.apps.video.session import run_video_session
    from repro.apps.web.corpus import generate_corpus
    from repro.experiments.fig2 import video_network
    from repro.experiments.table1 import TRACES, corpus_plts, web_network

    video = video_network("5g-lowband-driving", "priority", seed=0)
    calls = python_calls(lambda: run_video_session(video, duration=6.0), "net", "steering")
    assert video.sim.events_processed > 10_000
    assert sum(calls.values()) / video.sim.events_processed <= 8.1

    pages = generate_corpus(count=6, seed=0)
    web = {}

    def load():
        web["plts"], web["events"] = corpus_plts(
            pages,
            lambda index: web_network(TRACES["stationary"], "dchannel+flowprio", seed=index),
        )

    calls = python_calls(load, "net", "steering")
    assert web["events"] > 10_000
    assert sum(calls.values()) / web["events"] <= 9.1


def transport_cubic_over_dchannel():
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel", seed=0)
    BulkTransfer(net, cc="cubic")
    return net, 1.0


def transport_wan_coexistence():
    net = HvcNetwork([fiber_wan_spec(), leo_spec()], steering="min-rtt", seed=0)
    for cc in ("bbr", "bbr2+"):
        BulkTransfer(net, cc=cc)
    return net, 0.6


def transport_multipath_bulk(scheduler):
    """The ``ab-mp`` bulk flow: one backlogged multipath connection."""
    net = dual_net(seed=0)
    make_mp_pair(net, scheduler)[0].send_message(10**9, message_id=1)
    return net, 1.5


def test_wan_hop_python_calls_per_event_bound():
    """``net/`` and ``steering/`` in the ``cc-matrix`` WAN cell under
    min-rtt: 11.40 with ``min()`` over a list of up views and the link's
    two extra calls per packet, 8.47 with one pass and without them, 7.06
    with ``up`` a slot and one device send loop."""
    net, until = transport_wan_coexistence()
    assert python_calls_per_event(net, until, "net", "steering") <= 8.0


@pytest.mark.parametrize(
    "scenario",
    [transport_cubic_over_dchannel, transport_wan_coexistence],
    ids=["cubic-dchannel", "bbr-vs-bbr2+-wan"],
)
def test_sim_python_calls_per_event_bound(scenario):
    """``sim/``: the schedule, post and cancel calls an event's callback
    makes; dispatch itself is inline (1.01 and 1.08 measured with the
    links' handle-free ``post`` and the resequencer keeping a flush timer
    whose deadline did not move; 1.17 and 1.16 before; 3.58 and 3.55 with
    the timer wheel's ``pop_next`` and ``push``)."""
    net, until = scenario()
    assert python_calls_per_event(net, until, "sim") <= 1.15


def test_traces_python_calls_per_event_bound():
    """``traces/`` on the Fig. 2 priority video cell over the lowband
    driving trace: its links consult the trace once per 100 ms sample step
    (0.0095 measured), not twice per packet (3.82 with a bisect per read)."""
    from repro.apps.video.session import run_video_session
    from repro.experiments.fig2 import video_network

    net = video_network("5g-lowband-driving", "priority", seed=0)
    calls = python_calls(lambda: run_video_session(net, duration=5.0), "traces")
    events = net.sim.events_processed
    assert events > 10_000
    assert sum(calls.values()) / events <= 0.05


@pytest.mark.parametrize(
    "scenario, bound",
    [
        # Before the transport decided before it carved and stored what it
        # used to recompute: 13.3, 19.0, 23.9, 21.5. The WAN cell made 11.94
        # while BBR's filters computed ``value`` on read and evicted in a
        # second call; 8.91 since.
        (transport_cubic_over_dchannel, 9.0),
        (transport_wan_coexistence, 10.0),
        (lambda: transport_multipath_bulk("hvc"), 14.0),
        (lambda: transport_multipath_bulk("minrtt"), 14.0),
    ],
    ids=["cubic-dchannel", "bbr-vs-bbr2+-wan", "multipath-hvc", "multipath-minrtt"],
)
def test_transport_python_calls_per_event_bound(scenario, bound):
    """``transport/`` (connections, scoreboard, RTO, congestion control)."""
    net, until = scenario()
    assert python_calls_per_event(net, until, "transport") <= bound


def test_transport_cc_python_calls_per_event_bound():
    """``transport/cc/`` in the WAN cell: BBR and BBRv2+ made 6.01 calls
    per event through ``WindowedMax``'s ``value`` property, separate
    ``push``/``evict`` calls and the ``btlbw_bytes_per_s`` property; 2.98
    with ``value`` stored on change and eviction inside ``push``."""
    net, until = transport_wan_coexistence()
    assert python_calls_per_event(net, until, "transport/cc") <= 3.5
