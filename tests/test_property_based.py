"""Property-based tests (hypothesis) for core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.metrics import Cdf, percentile
from repro.net.channel import ChannelSpec
from repro.net.packet import Packet, PacketType
from repro.net.queue import DropTailQueue
from repro.sim.kernel import Simulator
from repro.steering import make_steerer, list_steerers
from repro.steering.util import TokenBucket
from repro.traces.model import NetworkTrace
from repro.transport.connection import Connection
from repro.units import mbps, ms

from tests.conftest import make_pair
from tests.test_steering import FakeView


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_pops_sorted(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(times)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=100),
        st.data(),
    )
    def test_cancellation_conserves_count(self, times, data):
        sim = Simulator()
        fired = []
        events = [sim.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
        to_cancel = data.draw(
            st.lists(st.integers(0, len(events) - 1), unique=True, max_size=len(events))
        )
        for index in to_cancel:
            events[index].cancel()
        assert sim.pending_events == len(events) - len(to_cancel)
        sim.run()
        assert len(fired) == len(events) - len(to_cancel)
        assert not set(fired) & set(to_cancel)


class TestQueueProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=100),
        st.integers(min_value=1500, max_value=20_000),
    )
    def test_conservation(self, sizes, capacity):
        """enqueued == dequeued + still-queued, and backlog matches."""
        queue = DropTailQueue(capacity)
        accepted = 0
        for size in sizes:
            packet = Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=size, header_bytes=0)
            if queue.try_enqueue(packet):
                accepted += 1
        assert queue.stats.enqueued == accepted
        assert queue.stats.dropped == len(sizes) - accepted
        drained = 0
        total_bytes = 0
        while True:
            packet = queue.dequeue()
            if packet is None:
                break
            drained += 1
            total_bytes += packet.size_bytes
        assert drained == accepted
        assert queue.backlog_bytes == 0
        assert total_bytes <= queue.capacity_bytes or accepted == 1


class TestPercentileProperties:
    @given(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=300),
        st.floats(min_value=0, max_value=100),
    )
    def test_bounded_by_min_max(self, samples, p):
        value = percentile(samples, p)
        assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
    def test_monotone_in_p(self, samples):
        values = [percentile(samples, p) for p in (0, 25, 50, 75, 100)]
        assert values == sorted(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_cdf_probability_monotone(self, samples):
        cdf = Cdf(samples)
        points = cdf.points(count=10)
        assert [v for v, _ in points] == sorted(v for v, _ in points)
        assert [p for _, p in points] == sorted(p for _, p in points)
        assert points[-1][1] == 1.0


class TestTraceProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=1e9),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0, max_value=10_000),
    )
    def test_lookup_matches_some_sample(self, pairs, query):
        times = [float(i) for i in range(len(pairs))]
        rates = [r for r, _ in pairs]
        delays = [d for _, d in pairs]
        trace = NetworkTrace(times, rates, delays)
        assert trace.rate_at(query) in rates
        assert trace.step_at(query)[3] in delays

    @given(st.integers(min_value=0, max_value=2**31))
    def test_synthetic_trace_always_valid(self, seed):
        from repro.traces.synthetic import lowband_driving

        trace = lowband_driving(seed=seed, duration=10.0)
        assert all(r > 0 for r in trace.rates_bps)
        assert all(d > 0 for d in trace.delays)


class TestSteeringProperties:
    @settings(max_examples=50)
    @given(
        st.sampled_from([n for n in list_steerers()]),
        st.integers(min_value=0, max_value=3),  # which channel is down
        st.sampled_from(list(PacketType)),
        st.integers(min_value=0, max_value=1460),
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_never_picks_a_down_channel(
        self, name, down_index, ptype, payload, msg_priority, flow_priority
    ):
        views = [
            FakeView(0, "embb", rate_bps=mbps(60), base_delay=ms(25)),
            FakeView(1, "urllc", rate_bps=mbps(2), base_delay=ms(2.5), reliable=True),
            FakeView(2, "wifi", rate_bps=mbps(100), base_delay=ms(6)),
            FakeView(3, "cisp", rate_bps=mbps(10), base_delay=ms(4), cost_per_byte=1e-6),
        ]
        views[down_index].up = False
        if name == "single":
            steerer = make_steerer(name, index=(down_index + 1) % 4)
        else:
            steerer = make_steerer(name)
        packet = Packet(
            flow_id=1,
            ptype=ptype,
            payload_bytes=payload,
            message_priority=msg_priority,
            flow_priority=flow_priority,
        )
        choice = steerer.choose(packet, views, now=1.0)
        assert choice, "policy returned no channel"
        if name != "single":
            assert down_index not in choice
        for index in choice:
            assert 0 <= index < 4


class TestTokenBucketProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),  # spend amount
                st.floats(min_value=0, max_value=5),  # time delta
            ),
            max_size=60,
        )
    )
    def test_never_overspends(self, operations):
        bucket = TokenBucket(rate_per_s=1.0, burst=5.0)
        now = 0.0
        spent = 0.0
        for amount, dt in operations:
            now += dt
            if bucket.try_spend(amount, now):
                spent += amount
            assert 0 <= bucket.available(now) <= 5.0
        # Total spend can never exceed refill + initial burst.
        assert spent <= 5.0 + now * 1.0 + 1e-6


class TestTransportProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=30_000), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_messages_always_delivered_in_order(self, sizes, seed):
        """All messages complete, in order, for arbitrary sizes and seeds."""
        sim = Simulator()
        rng = random.Random(seed)
        delay = ms(rng.uniform(1, 40))
        rate = mbps(rng.uniform(2, 50))
        client, server, _ = make_pair(
            sim, [ChannelSpec.symmetric("c", rate, delay, queue_bytes=200_000)]
        )
        receipts = []
        sender = Connection(sim, client, 1)
        Connection(sim, server, 1, on_message=receipts.append)
        for i, size in enumerate(sizes):
            sender.send_message(size, message_id=i)
        sim.run(until=120.0)
        assert [r.message_id for r in receipts] == list(range(len(sizes)))
        assert [r.size for r in receipts] == sizes
