"""Second wave of property-based tests: higher-level invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.apps.video.svc import SvcEncoderModel
from repro.apps.web.corpus import generate_page
from repro.net.packet import Packet, PacketType
from repro.net.resequencer import Resequencer
from repro.sim.kernel import Simulator
from repro.traces.mahimahi import read_mahimahi, write_mahimahi
from repro.traces.model import NetworkTrace


class TestResequencerProperties:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=60),  # total packets
        st.integers(min_value=1, max_value=3),  # channel count
        st.integers(min_value=0, max_value=2**31),
    )
    def test_physical_interleavings_restore_total_order(self, count, channels, seed):
        """Any per-channel-FIFO arrival order is resequenced into 0..n-1."""
        sim = Simulator()
        delivered = []
        reseq = Resequencer(sim, lambda p: delivered.append(p.shim_seq), timeout=0.05)
        rng = random.Random(seed)
        lanes = {c: [] for c in range(channels)}
        for seq in range(count):
            lanes[rng.randrange(channels)].append(seq)
        live = [c for c in lanes if lanes[c]]
        while live:
            lane = rng.choice(live)
            seq = lanes[lane].pop(0)
            packet = Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=10)
            packet.shim_seq = seq
            packet.channel_index = lane
            packet.shim_channel_count = channels
            reseq.push(packet)
            if not lanes[lane]:
                live.remove(lane)
        sim.run(until=10.0)
        assert delivered == list(range(count))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=2, max_value=50),
        st.data(),
    )
    def test_losses_never_block_forever(self, count, data):
        """With arbitrary single-channel losses, survivors all deliver."""
        sim = Simulator()
        delivered = []
        reseq = Resequencer(sim, lambda p: delivered.append(p.shim_seq), timeout=0.05)
        lost = set(
            data.draw(
                st.lists(st.integers(0, count - 1), unique=True, max_size=count - 1)
            )
        )
        for seq in range(count):
            if seq in lost:
                continue
            packet = Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=10)
            packet.shim_seq = seq
            packet.channel_index = 0
            packet.shim_channel_count = 1
            reseq.push(packet)
        sim.run(until=10.0)
        survivors = [s for s in range(count) if s not in lost]
        assert delivered == survivors


class TestSvcProperties:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 1000))
    def test_sizes_positive_and_layered(self, frame, seed):
        encoder = SvcEncoderModel(seed=seed)
        sizes = encoder.frame_layer_sizes(frame)
        assert len(sizes) == 3
        assert all(s >= 64 for s in sizes)
        # Higher layers target higher bitrates, so (statistically) they are
        # larger; allow jitter by comparing against a generous factor.
        assert sizes[2] > sizes[0]

    @given(st.integers(min_value=0, max_value=500))
    def test_keyframe_periodicity(self, frame):
        encoder = SvcEncoderModel()
        assert encoder.is_keyframe(frame) == (frame % encoder.keyframe_interval == 0)


class TestCorpusProperties:
    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31), st.booleans())
    def test_generated_pages_always_valid(self, seed, landing):
        page = generate_page("prop", seed=seed, landing=landing)
        page.validate()  # raises on any structural violation
        assert any(obj.depends_on for obj in page.objects)  # two levels
        assert page.total_bytes > 0


class TestMahimahiProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e5, max_value=5e7),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_preserves_mean_rate(self, rates):
        import tempfile, os

        times = [float(i) for i in range(len(rates))]
        trace = NetworkTrace(times, rates, [0.01] * len(rates))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.trace")
            count = write_mahimahi(trace, path, duration=trace.duration)
            loaded = read_mahimahi(path, bucket=trace.duration)
        # The writer's credit accumulator makes the opportunity count exact
        # up to one packet of rounding.
        expected = trace.mean_rate() * trace.duration / (1500 * 8)
        # Slack: one packet of leftover credit plus one millisecond step of
        # the fastest span (float time-stepping at segment boundaries).
        slack = 2.0 + max(rates) * 0.001 / (1500 * 8)
        assert abs(count - expected) <= slack
        # Reading back re-buckets on millisecond-quantized stamps; the mean
        # must survive within quantization slack.
        quantum = 2 * 1500 * 8 / trace.duration
        tolerance = max(quantum, 0.05 * trace.mean_rate())
        assert abs(loaded.mean_rate() - trace.mean_rate()) <= tolerance
