"""Unit tests for the link pipeline (serialize → loss → propagate)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.link import Link, LinkSpec
from repro.net.loss import BernoulliLoss
from repro.net.packet import Packet, PacketType
from repro.sim.kernel import Simulator
from repro.traces.model import NetworkTrace
from repro.units import mbps, ms


def pkt(payload=1460):
    return Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=payload)


def make_link(sim, rate=mbps(12), delay=ms(10), **kwargs):
    link = Link(sim, LinkSpec(rate_bps=rate, delay=delay, **kwargs), name="test")
    arrivals = []
    link.connect(lambda p: arrivals.append((sim.now, p)))
    return link, arrivals


class TestLinkDelivery:
    def test_single_packet_timing(self):
        """1500 B at 12 Mbps = 1 ms serialization + 10 ms propagation."""
        sim = Simulator()
        link, arrivals = make_link(sim)
        link.send(pkt())
        sim.run()
        assert len(arrivals) == 1
        assert arrivals[0][0] == pytest.approx(0.011)

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        link, arrivals = make_link(sim)
        link.send(pkt())
        link.send(pkt())
        sim.run()
        times = [t for t, _ in arrivals]
        assert times[0] == pytest.approx(0.011)
        assert times[1] == pytest.approx(0.012)

    def test_fifo_even_when_delay_drops(self):
        """A mid-flight delay drop must not reorder deliveries."""
        sim = Simulator()
        trace = NetworkTrace([0.0, 0.0015], [mbps(12), mbps(12)], [ms(50), ms(1)])
        link = Link(sim, LinkSpec(trace=trace), name="vary")
        arrivals = []
        link.connect(lambda p: arrivals.append(p))
        first, second = pkt(), pkt()
        link.send(first)
        link.send(second)
        sim.run()
        assert arrivals == [first, second]

    def test_overflow_drops_counted(self):
        sim = Simulator()
        link, arrivals = make_link(sim, queue_bytes=1500)
        for _ in range(5):
            link.send(pkt())
        sim.run()
        # One in service immediately + one queued fit; rest dropped.
        assert link.stats.overflow_drops == 3
        assert len(arrivals) == 2

    def test_loss_model_applied(self):
        sim = Simulator()
        link, arrivals = make_link(sim, loss=BernoulliLoss(0.5), queue_bytes=1_000_000)
        for _ in range(400):
            link.send(pkt())
        sim.run()
        assert 120 < len(arrivals) < 280
        assert link.stats.lost == 400 - len(arrivals)

    def test_down_link_rejects(self):
        sim = Simulator()
        link, arrivals = make_link(sim)
        link.up = False
        assert not link.send(pkt())
        sim.run()
        assert arrivals == []

    def test_backlog_includes_in_service_packet(self):
        sim = Simulator()
        link, _ = make_link(sim)
        link.send(pkt())
        link.send(pkt())
        assert link.backlog_bytes == 3000
        sim.run(until=0.0015)
        assert link.backlog_bytes == 1500

    def test_no_receiver_raises(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(rate_bps=mbps(12), delay=ms(1)))
        link.send(pkt())
        with pytest.raises(NetworkError):
            sim.run()

    def test_outage_recovers(self):
        """A zero-rate trace span stalls the packet, then it goes through."""
        sim = Simulator()
        trace = NetworkTrace([0.0, 0.05], [0.0, mbps(12)], [ms(1), ms(1)])
        link = Link(sim, LinkSpec(trace=trace), name="outage")
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(pkt())
        sim.run(until=0.2)
        assert len(arrivals) == 1
        assert 0.05 <= arrivals[0] < 0.06

    def test_trace_driven_rate(self):
        """Doubled trace rate halves serialization time."""
        sim = Simulator()
        link = Link(sim, LinkSpec(trace=NetworkTrace([0.0], [mbps(24)], [ms(10)])))
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(pkt())
        sim.run()
        assert arrivals[0] == pytest.approx(0.0105)

    def test_stats_bytes_delivered(self):
        sim = Simulator()
        link, _ = make_link(sim)
        link.send(pkt())
        sim.run()
        assert link.stats.bytes_delivered == 1500
        assert link.stats.delivered == 1

    def test_spec_validation(self):
        with pytest.raises(NetworkError):
            LinkSpec(rate_bps=0).validate()
        with pytest.raises(NetworkError):
            LinkSpec(rate_bps=1e6, delay=-1).validate()
        with pytest.raises(NetworkError):
            LinkSpec(rate_bps=1e6, queue_bytes=0).validate()

    def test_on_depart_hook_fires(self):
        sim = Simulator()
        link, _ = make_link(sim)
        departures = []
        link.on_depart = lambda p, l: departures.append(sim.now)
        link.send(pkt())
        sim.run()
        assert departures == [pytest.approx(0.001)]


# ----------------------------------------------------------------------
# Serializer pins: closed-form instants, no second Link to compare with
# ----------------------------------------------------------------------
RATE = 8_000_000.0
DELAY = 0.01
BURST = 40
#: Mid-burst interference lands here: between the 2nd and 3rd departure
#: (1040 B at 8 Mbps = 1.04 ms each), so the 3rd packet is in service.
T_MUTATE = 0.003


def seq_pkt(i):
    return Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=1000, seq=i)


SIZE = seq_pkt(0).size_bytes


def run_burst(mutate=None, loss=None):
    """Offer the whole burst at t=0; return (link, [(arrival, seq)])."""
    sim = Simulator()
    link = Link(sim, LinkSpec(rate_bps=RATE, delay=DELAY, loss=loss), name="dut")
    record = []
    link.connect(lambda p: record.append((sim.now, p.seq)))
    for i in range(BURST):
        assert link.send(seq_pkt(i))
    if mutate is not None:
        sim.schedule(T_MUTATE, mutate, link)
    sim.run()
    return link, record


def departures(rate_after=RATE):
    """Departure instants by the serializer's own float chain.

    A packet's ``tx`` is fixed when it begins service (the previous
    departure instant), so one that begins before ``T_MUTATE`` keeps
    ``RATE`` and every later one serializes at ``rate_after``.
    """
    out, acc = [], 0.0
    for _ in range(BURST):
        acc += SIZE * 8 / (RATE if acc < T_MUTATE else rate_after)
        out.append(acc)
    return out


class TestSerializerPins:
    def test_burst_arrives_at_delay_plus_running_sum(self):
        link, record = run_burst()
        assert record == [(t + DELAY, i) for i, t in enumerate(departures())]
        busy = 0.0
        for _ in range(BURST):
            busy += SIZE * 8 / RATE
        assert link.stats.busy_time == busy

    def test_rate_factor_applies_from_the_next_packet(self):
        link, record = run_burst(lambda l: setattr(l, "rate_factor", 0.5))
        expected = departures(rate_after=RATE * 0.5)
        assert record == [(t + DELAY, i) for i, t in enumerate(expected)]
        # The packet in service at T_MUTATE kept its begin-time rate.
        assert expected[2] - expected[1] == pytest.approx(SIZE * 8 / RATE)
        assert expected[3] - expected[2] == pytest.approx(2 * SIZE * 8 / RATE)

    def test_background_load_applies_from_the_next_packet(self):
        link, record = run_burst(lambda l: l.set_background_load(2_000_000.0))
        expected = departures(rate_after=RATE - 2_000_000.0)
        assert record == [(t + DELAY, i) for i, t in enumerate(expected)]

    def test_flush_spares_the_packet_in_service(self):
        link, record = run_burst(lambda l: l.flush())
        # Two departed before T_MUTATE, the third was in the serializer.
        assert record == [(t + DELAY, i) for i, t in enumerate(departures()[:3])]
        assert link.stats.flushed == BURST - 3
        assert link.pending_packets == 0

    def test_loss_draws_happen_in_departure_order(self):
        link, record = run_burst(loss=BernoulliLoss(0.2))
        rng = random.Random(0)  # the link's default rng
        survivors = [i for i in range(BURST) if not rng.random() < 0.2]
        assert [seq for _, seq in record] == survivors
        assert link.stats.lost == BURST - len(survivors) > 0


#: One operation on a link under test: offer a packet (data or control),
#: flush the queue, scale the rate, load the link with fluid background,
#: or let the clock run.
link_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 1460), st.booleans()),
        st.tuples(st.just("flush")),
        st.tuples(st.just("rate"), st.sampled_from([0.0, 0.25, 1.0, 2.0])),
        st.tuples(st.just("load"), st.sampled_from([0.0, mbps(6), mbps(30)])),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.0004, 0.003, 0.02, 0.07])),
    ),
    max_size=80,
)


class TestIdleMeansEmpty:
    """``send`` begins service itself only when the link is idle, and a
    departure begins the next packet's; so ``_serving is None`` must imply
    an empty queue at every instant, under every mutation a link takes, and
    the packet that departs is always the one in service."""

    @given(ops=link_ops, priority=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_never_idle_with_packets_waiting(self, ops, priority):
        sim = Simulator()
        # A 20 ms outage inside every 100 ms loop of the trace.
        trace = NetworkTrace(
            [0.0, 0.03, 0.05], [mbps(12), 0.0, mbps(24)], [ms(5), ms(5), ms(2)]
        )
        spec = LinkSpec(trace=trace, queue_bytes=8_000, priority_queue=priority)
        link = Link(sim, spec, name="dut")
        delivered = []
        link.connect(delivered.append)

        def idle_means_empty(*_):
            assert link._serving is not None or len(link.queue) == 0

        def one_in_service(packet, link):
            assert packet is link._serving

        sim.attach_invariant_hook(idle_means_empty)
        link.on_depart = one_in_service
        accepted = 0
        for op in ops:
            if op[0] == "send":
                ptype = PacketType.ACK if op[2] else PacketType.DATA
                accepted += link.send(Packet(1, ptype, payload_bytes=op[1]))
            elif op[0] == "flush":
                link.flush()
            elif op[0] == "rate":
                link.rate_factor = op[1]
            elif op[0] == "load":
                link.set_background_load(op[1])
            else:
                sim.run(until=sim.now + op[1])
            idle_means_empty()
        link.rate_factor = 1.0
        link.set_background_load(0.0)
        sim.run(until=sim.now + 1.0)
        assert link.pending_packets == 0 and link._serving is None
        assert len(delivered) + link.stats.flushed == accepted
