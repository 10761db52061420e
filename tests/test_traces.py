"""Unit tests for the trace substrate."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import TraceError
from repro.net.link import Link, LinkSpec
from repro.net.packet import Packet, PacketType
from repro.sim.kernel import Simulator
from repro.traces.mahimahi import read_mahimahi, write_mahimahi
from repro.traces.model import NetworkTrace
from repro.traces.catalog import get_trace, list_traces
from repro.traces.synthetic import (
    TraceSpec,
    generate_trace,
    lowband_driving,
    lowband_stationary,
    mmwave_driving,
    starlink_leo,
    wifi_5g_handoff,
)
from repro.units import mbps, ms, to_ms
from tests.oracles import trace_lookup


class TestNetworkTrace:
    def test_step_lookup(self):
        trace = NetworkTrace([0.0, 1.0, 2.0], [1e6, 2e6, 3e6], [0.01, 0.02, 0.03])
        assert trace.rate_at(0.5) == 1e6
        assert trace.rate_at(1.0) == 2e6
        assert trace.step_at(2.9)[3] == 0.03

    def test_wraps_around(self):
        trace = NetworkTrace([0.0, 1.0], [1e6, 2e6], [0.01, 0.02])
        assert trace.duration == 2.0
        assert trace.rate_at(2.5) == 1e6
        assert trace.rate_at(3.5) == 2e6

    def test_constant_trace(self):
        trace = NetworkTrace([0.0], [mbps(2)], [ms(2.5)])
        assert trace.rate_at(0) == mbps(2)
        assert trace.rate_at(1234.5) == mbps(2)
        assert trace.step_at(99.9)[3] == ms(2.5)

    def test_mean_rate_is_time_weighted(self):
        trace = NetworkTrace([0.0, 1.0], [1e6, 3e6], [0.01, 0.01])
        assert trace.mean_rate() == pytest.approx(2e6)

    def test_percentile_delay(self):
        trace = NetworkTrace(
            [float(i) for i in range(5)], [1e6] * 5, [0.01, 0.02, 0.03, 0.04, 0.05]
        )
        assert trace.percentile_delay(0) == 0.01
        assert trace.percentile_delay(100) == 0.05
        assert trace.percentile_delay(50) == pytest.approx(0.03)

    def test_scaled(self):
        trace = NetworkTrace([0.0], [1e6], [0.01]).scaled(rate_factor=2, delay_factor=0.5)
        assert trace.rate_at(0) == 2e6
        assert trace.step_at(0)[3] == 0.005

    def test_validation(self):
        with pytest.raises(TraceError):
            NetworkTrace([], [], [])
        with pytest.raises(TraceError):
            NetworkTrace([0.5], [1e6], [0.01])  # must start at 0
        with pytest.raises(TraceError):
            NetworkTrace([0.0, 0.0], [1e6, 1e6], [0.01, 0.01])  # not increasing
        with pytest.raises(TraceError):
            NetworkTrace([0.0], [-1.0], [0.01])
        with pytest.raises(TraceError):
            NetworkTrace([0.0], [1e6], [-0.01])
        for bad in (math.nan, math.inf):
            with pytest.raises(TraceError):
                NetworkTrace([0.0], [bad], [0.01])
            with pytest.raises(TraceError):
                NetworkTrace([0.0], [1e6], [bad])
        with pytest.raises(TraceError):
            NetworkTrace([0, 1], [math.nan, math.inf], [math.nan, 0.01])
        with pytest.raises(TraceError):
            NetworkTrace([0.0, 1.0], [1e6], [0.01, 0.01])

    def test_negative_query_rejected(self):
        trace = NetworkTrace([0.0], [1e6], [0.01])
        with pytest.raises(TraceError):
            trace.rate_at(-1)


_traces = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=1e-3, max_value=0.5), min_size=n - 1, max_size=n - 1
        ),
        st.lists(st.floats(min_value=1e5, max_value=1e8), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=n, max_size=n),
    )
)


def _trace(parts):
    steps, rates, delays = parts
    times = [0.0]
    for step in steps:
        times.append(times[-1] + step)
    return NetworkTrace(times, rates, delays)


class TestLinkTraceWindow:
    """A traced link's cached sample window reads what a bisect per read
    (``tests/oracles/trace_lookup.py``) reads, whatever order the clock
    visits the probes in."""

    @staticmethod
    def _probes(trace):
        probes = []
        for loop in (0, 1, 7):
            base = loop * trace.duration
            for t in trace.times + [trace.duration]:
                exact = base + t
                probes += [exact, math.nextafter(exact, -math.inf)]
        return [t for t in probes if t >= 0.0]

    @settings(max_examples=150, deadline=None)
    @given(_traces, st.randoms(use_true_random=False))
    def test_reads_match_bisect(self, parts, rng):
        trace = _trace(parts)
        sim = Simulator()
        link = Link(sim, LinkSpec(trace=trace))
        probes = self._probes(trace)
        # Ascending (window hits, then a step at a time) and shuffled
        # (jumps in both directions, across the loop wrap).
        shuffled = list(probes)
        rng.shuffle(shuffled)
        for t in sorted(probes) + shuffled:
            sim.now = t
            assert link.current_rate() == trace_lookup.rate_at(trace, t)
            assert link.capacity_bps() == trace_lookup.rate_at(trace, t)
            assert link.current_delay() == trace_lookup.delay_at(trace, t)

    @settings(max_examples=30, deadline=None)
    @given(_traces, st.floats(min_value=1e-12, max_value=1e3))
    # A negative whole number of loops: fmod gives -0.0, inside the first step.
    @example(parts=([], [1e5], [0.0]), t=1.0)
    def test_negative_time_raises(self, parts, t):
        trace = _trace(parts)
        sim = Simulator()
        link = Link(sim, LinkSpec(trace=trace))
        sim.now = 0.0
        link.current_rate()  # a warm window must not hide the error
        sim.now = -t
        with pytest.raises(TraceError):
            trace_lookup.rate_at(trace, -t)
        with pytest.raises(TraceError):
            link.current_rate()
        with pytest.raises(TraceError):
            link.current_delay()

    @settings(max_examples=60, deadline=None)
    @given(
        _traces,
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=40),
        st.integers(min_value=100, max_value=1500),
    )
    def test_serialization_and_delivery_follow_bisect(self, parts, offers, size):
        """The per-packet paths (service start, departure) read the trace
        through the window too: each packet's departure and arrival equal
        what the bisect reads give, packet after packet."""
        trace = _trace(parts)
        sim = Simulator()
        link = Link(sim, LinkSpec(trace=trace, queue_bytes=10**9))
        departed, arrived = [], []
        link.on_depart = lambda packet, _link: departed.append(sim.now)
        link.connect(lambda packet: arrived.append(sim.now))
        # Packets offered to an idle link exactly at sample steps, in the
        # first loop and the next, start service on the step boundary.
        offers = sorted(offers + [loop * trace.duration + t for loop in (0, 1)
                                  for t in trace.times])
        for t in offers:
            sim.schedule_at(
                t, link.send, Packet(flow_id=0, ptype=PacketType.DATA, payload_bytes=size)
            )
        sim.run()
        wire = Packet(flow_id=0, ptype=PacketType.DATA, payload_bytes=size).size_bytes
        free = last_arrival = -1.0
        expected_departures, expected_arrivals = [], []
        for t in offers:
            begin = max(t, free)
            free = begin + wire * 8 / trace_lookup.rate_at(trace, begin)
            expected_departures.append(free)
            arrival = free + trace_lookup.delay_at(trace, free)
            if arrival <= last_arrival:
                arrival = last_arrival + 1e-9
            last_arrival = arrival
            expected_arrivals.append(arrival)
        assert departed == expected_departures
        assert arrived == expected_arrivals


class TestSyntheticCalibration:
    """The generated traces must land near the published statistics."""

    def test_lowband_stationary_rate_and_rtt(self):
        trace = lowband_stationary(seed=1)
        assert 50 <= trace.mean_rate() / 1e6 <= 70
        median_rtt_ms = to_ms(trace.percentile_delay(50)) * 2
        assert 40 <= median_rtt_ms <= 62

    def test_lowband_driving_p98_rtt_near_236ms(self):
        """DChannel reports 98th-pct probing RTT of 236 ms under driving."""
        trace = lowband_driving(seed=2)
        p98_rtt_ms = to_ms(trace.percentile_delay(98)) * 2
        assert 170 <= p98_rtt_ms <= 300

    def test_driving_is_more_variable_than_stationary(self):
        stationary = lowband_stationary(seed=1)
        driving = lowband_driving(seed=2)
        assert driving.percentile_delay(98) > 2 * stationary.percentile_delay(98)
        assert driving.min_rate() < stationary.min_rate()

    def test_mmwave_driving_has_outages_below_video_bitrate(self):
        """Fig. 2 needs blockage periods where rate < 12 Mbps."""
        trace = mmwave_driving(seed=2)
        below = sum(1 for r in trace.rates_bps if r < mbps(12))
        assert below > len(trace.rates_bps) * 0.03
        assert trace.mean_rate() > mbps(200)

    def test_determinism(self):
        a = lowband_driving(seed=9)
        b = lowband_driving(seed=9)
        assert a.rates_bps == b.rates_bps
        assert a.delays == b.delays

    def test_seeds_give_different_realizations(self):
        assert lowband_driving(seed=1).rates_bps != lowband_driving(seed=2).rates_bps

    def test_spec_validation(self):
        with pytest.raises(TraceError):
            generate_trace(TraceSpec(name="bad", duration=0))
        with pytest.raises(TraceError):
            generate_trace(TraceSpec(name="bad", mean_rate_bps=0))
        with pytest.raises(TraceError):
            generate_trace(TraceSpec(name="bad", smoothing=1.0))
        with pytest.raises(TraceError):
            generate_trace(TraceSpec(name="bad", dt=200.0))


class TestDisruptionPresets:
    """The handoff-driven presets must actually contain dead intervals."""

    def test_starlink_periodic_handoffs_are_dead(self):
        trace = starlink_leo(duration=60.0)
        from repro.resilience import dead_intervals

        dead = dead_intervals(trace)
        # One micro-outage per 15 s handoff period, first at t=4.
        assert 3 <= len(dead) <= 5
        assert dead[0].start == pytest.approx(4.0)
        for interval in dead:
            assert 0.05 <= interval.duration <= 1.3
        assert trace.mean_rate() > mbps(80)

    def test_starlink_determinism_and_param_validation(self):
        a = starlink_leo(seed=7, duration=40.0)
        b = starlink_leo(seed=7, duration=40.0)
        assert a.rates_bps == b.rates_bps and a.delays == b.delays
        with pytest.raises(TraceError):
            starlink_leo(duration=0)
        with pytest.raises(TraceError):
            starlink_leo(handoff_period=-1.0)

    def test_wifi_5g_alternates_rate_regimes_with_gaps(self):
        trace = wifi_5g_handoff(duration=60.0)
        rates = trace.rates_bps
        assert 0.0 in rates  # dead switching gaps
        # Bimodal: fat Wi-Fi samples and thin 5G samples both present.
        assert any(r > mbps(180) for r in rates)
        assert any(0 < r < mbps(110) for r in rates)
        # Post-handoff delay spikes exist: some samples well above 5G floor.
        assert max(trace.delays) > ms(40)
        with pytest.raises(TraceError):
            wifi_5g_handoff(dwell_mean=0)


class TestCatalog:
    def test_catalog_names(self):
        names = list_traces()
        assert "5g-lowband-driving" in names
        assert "urllc" in names
        assert "starlink-leo" in names
        assert "wifi-5g-handoff" in names

    def test_get_trace_by_name(self):
        trace = get_trace("urllc")
        assert trace.rate_at(0) == mbps(2)
        assert trace.step_at(0)[3] == ms(2.5)

    def test_unknown_name_raises(self):
        with pytest.raises(TraceError):
            get_trace("4g-magic")

    def test_seed_passthrough(self):
        assert get_trace("5g-lowband-driving", seed=5).rates_bps != get_trace(
            "5g-lowband-driving", seed=6
        ).rates_bps

    def test_seed_zero_is_a_seed(self):
        assert get_trace("starlink-leo", seed=0).rates_bps != get_trace(
            "starlink-leo", seed=5
        ).rates_bps

    def test_no_seed_is_the_profiles_own_realization(self):
        from repro.traces.synthetic import starlink_leo

        assert get_trace("starlink-leo").rates_bps == starlink_leo().rates_bps

    def test_disruption_presets_resolve_with_duration(self):
        trace = get_trace("starlink-leo", duration=30.0)
        assert trace.duration == pytest.approx(30.0)
        assert get_trace("wifi-5g-handoff", duration=20.0).duration == pytest.approx(20.0)


class TestMahimahi:
    def test_round_trip_preserves_mean_rate(self, tmp_path):
        trace = NetworkTrace([0.0], [mbps(12)], [ms(25)])
        path = tmp_path / "trace.txt"
        count = write_mahimahi(trace, str(path), duration=5.0)
        assert count == pytest.approx(5.0 * mbps(12) / (1500 * 8), rel=0.01)
        loaded = read_mahimahi(str(path), delay=ms(25))
        assert loaded.mean_rate() == pytest.approx(mbps(12), rel=0.05)
        assert loaded.step_at(0)[3] == ms(25)

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(TraceError):
            read_mahimahi(str(path))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\ntwo\n3\n")
        with pytest.raises(TraceError):
            read_mahimahi(str(path))

    def test_read_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00\n")
        with pytest.raises(TraceError):
            read_mahimahi(str(path))

    def test_read_rejects_unsorted(self, tmp_path):
        path = tmp_path / "unsorted.txt"
        path.write_text("5\n3\n")
        with pytest.raises(TraceError):
            read_mahimahi(str(path))

    def test_read_variable_rate(self, tmp_path):
        path = tmp_path / "var.txt"
        # 10 opportunities in the first 100 ms, none in the second bucket.
        path.write_text("\n".join(str(i * 10) for i in range(10)) + "\n150\n")
        trace = read_mahimahi(str(path), bucket=0.1)
        assert trace.rate_at(0.05) > trace.rate_at(0.15) > 0
