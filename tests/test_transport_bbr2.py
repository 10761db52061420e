"""BBRv2/BBRv2+ unit and property tests.

The hypothesis suites pin the three v2 contracts the cc-matrix experiment
leans on: the learned ``inflight_hi`` ceiling really ceilings the window
after a lossy round, PROBE_UP gives up (and backs its cadence off) the
moment a round's loss rate crosses 2%, and cwnd/pacing outputs stay
finite and positive under arbitrary ACK/loss/timeout interleavings.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.transport.cc.base import AckSample
from repro.transport.cc.bbr import Bbr
from repro.transport.cc.bbr2 import (
    BETA,
    Bbr2,
    LOSS_THRESH,
    MAX_PROBE_INTERVAL,
    MIN_CWND_SEGMENTS,
    PROBE_BACKOFF,
    PROBE_INTERVAL,
)
from repro.transport.cc.windowed import WindowedMax

MSS = 1460


def ack(
    cc,
    now=0.0,
    rtt=0.05,
    newly_acked=MSS,
    in_flight=10 * MSS,
    rate_bps=8_000_000.0,
    total_delivered=0,
    app_limited=False,
):
    cc.on_ack(
        AckSample(
            now=now,
            rtt=rtt,
            newly_acked=newly_acked,
            in_flight=in_flight,
            delivery_rate=rate_bps,
            app_limited=app_limited,
            total_delivered=total_delivered,
        )
    )


def drive_rounds(cc, rounds, now=0.0, rtt=0.05, in_flight=10 * MSS,
                 rate_bps=8_000_000.0, total=0):
    """Feed enough delivered bytes to close ``rounds`` rounds; returns
    (now, total_delivered) for chaining."""
    for _ in range(rounds):
        while True:
            target = cc._round_target
            total += in_flight
            now += rtt
            ack(
                cc, now=now, rtt=rtt, in_flight=in_flight,
                rate_bps=rate_bps, total_delivered=total,
            )
            if total >= target:
                break
    return now, total


class TestStateMachine:
    def test_startup_exits_on_bandwidth_plateau(self):
        cc = Bbr2(mss=MSS)
        assert cc.state == cc.STARTUP
        # Constant-rate rounds: three non-growing rounds end STARTUP.
        drive_rounds(cc, 6)
        assert cc.state != cc.STARTUP

    def test_excessive_loss_exits_startup(self):
        cc = Bbr2(mss=MSS)
        ack(cc, now=0.05, total_delivered=10 * MSS)
        cc.on_lost(0.06, lost_bytes=5 * MSS, in_flight=10 * MSS)
        assert cc.state == cc.DRAIN
        assert math.isfinite(cc.inflight_hi)

    def test_probe_bw_cycle_reaches_cruise(self):
        cc = Bbr2(mss=MSS)
        now, total = drive_rounds(cc, 6)
        # DRAIN exits once in_flight <= BDP; feed a small-flight sample.
        ack(cc, now=now + 0.05, in_flight=2 * MSS, total_delivered=total)
        assert cc.state == cc.CRUISE

    def test_cruise_refills_after_probe_interval(self):
        cc = Bbr2(mss=MSS)
        now, total = drive_rounds(cc, 6)
        ack(cc, now=now + 0.05, in_flight=2 * MSS, total_delivered=total)
        assert cc.state == cc.CRUISE
        ack(
            cc, now=now + 0.1 + PROBE_INTERVAL, in_flight=2 * MSS,
            total_delivered=total + MSS,
        )
        assert cc.state == cc.REFILL

    def test_timeout_preserves_learned_ceiling(self):
        cc = Bbr2(mss=MSS)
        ack(cc, now=0.05, total_delivered=10 * MSS)
        cc.on_lost(0.06, lost_bytes=5 * MSS, in_flight=10 * MSS)
        ceiling = cc.inflight_hi
        cc.on_timeout(1.0)
        assert cc.state == cc.STARTUP
        assert cc.inflight_hi == ceiling

    def test_registry_names(self):
        assert Bbr2(mss=MSS).name == "bbr2"
        assert Bbr2(mss=MSS, delay_aware=True).name == "bbr2+"


class TestDelayAwareProbing:
    def _cc_in_probe_up(self, delay_aware):
        cc = Bbr2(mss=MSS, delay_aware=delay_aware)
        now, total = drive_rounds(cc, 6)
        ack(cc, now=now + 0.05, in_flight=2 * MSS, total_delivered=total)
        assert cc.state == cc.CRUISE
        ack(
            cc, now=now + 0.1 + PROBE_INTERVAL, in_flight=2 * MSS,
            total_delivered=total + MSS,
        )
        assert cc.state == cc.REFILL
        # One full round of refilling enters PROBE_UP.
        now, total = drive_rounds(
            cc, 1, now=now + 0.1 + PROBE_INTERVAL, total=total + MSS
        )
        assert cc.state == cc.PROBE_UP
        return cc, now, total

    def test_inflated_rtt_aborts_probe_only_when_delay_aware(self):
        for delay_aware, expect_abort in ((True, True), (False, False)):
            cc, now, total = self._cc_in_probe_up(delay_aware)
            inflated = cc.min_rtt * 1.5  # > 1 + DELAY_PROBE_TOLERANCE
            ack(
                cc, now=now + 0.01, rtt=inflated, in_flight=2 * MSS,
                total_delivered=total,
            )
            if expect_abort:
                assert cc.state == cc.PROBE_DOWN
                assert cc.delay_probe_aborts == 1
                assert cc._probe_interval == PROBE_INTERVAL * PROBE_BACKOFF
            else:
                assert cc.state == cc.PROBE_UP
                assert cc.delay_probe_aborts == 0

    def test_backoff_saturates_at_max_interval(self):
        cc = Bbr2(mss=MSS, delay_aware=True)
        for _ in range(10):
            cc._finish_probe(success=False, now=None)
        assert cc._probe_interval == MAX_PROBE_INTERVAL
        cc._finish_probe(success=True, now=None)
        assert cc._probe_interval == PROBE_INTERVAL


flight_sizes = st.integers(min_value=MSS, max_value=400 * MSS)


class TestLossResponseProperties:
    @given(
        in_flight=flight_sizes,
        lost_fraction=st.floats(min_value=0.02, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cwnd_never_exceeds_inflight_hi_after_loss_round(
        self, in_flight, lost_fraction
    ):
        cc = Bbr2(mss=MSS)
        drive_rounds(cc, 4, in_flight=in_flight)
        lost = max(MSS, int(in_flight * lost_fraction))
        cc.on_lost(1.0, lost_bytes=lost, in_flight=in_flight)
        assert math.isfinite(cc.inflight_hi)
        assert cc.inflight_hi >= MIN_CWND_SEGMENTS * MSS
        assert cc.cwnd_bytes <= cc.inflight_hi

    @given(
        in_flight=flight_sizes,
        delivered=st.integers(min_value=MSS, max_value=400 * MSS),
        lost=st.integers(min_value=0, max_value=400 * MSS),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_threshold_gates_the_response(self, in_flight, delivered, lost):
        cc = Bbr2(mss=MSS)
        ack(cc, now=0.05, newly_acked=delivered, in_flight=in_flight,
            total_delivered=delivered)
        # The gate is per-round: compare against the CC's own round
        # counters (the priming ACK may have just rolled the round over).
        round_total = cc._round_delivered + cc._round_lost + lost
        rate = (cc._round_lost + lost) / round_total if round_total else 0.0
        cc.on_lost(0.06, lost_bytes=lost, in_flight=in_flight)
        if rate >= LOSS_THRESH:
            assert math.isfinite(cc.inflight_hi)
            assert cc.inflight_lo >= BETA * min(in_flight, cc.inflight_hi) or (
                cc.inflight_lo == MIN_CWND_SEGMENTS * MSS
            )
        else:
            assert cc.inflight_hi == float("inf")

    @given(in_flight=flight_sizes)
    @settings(max_examples=30, deadline=None)
    def test_probe_up_backs_off_at_two_percent_loss(self, in_flight):
        cc = Bbr2(mss=MSS, delay_aware=True)
        now, total = drive_rounds(cc, 6, in_flight=in_flight)
        ack(cc, now=now + 0.05, in_flight=MSS, total_delivered=total)
        ack(cc, now=now + 0.1 + PROBE_INTERVAL, in_flight=MSS,
            total_delivered=total + MSS)
        now, total = drive_rounds(
            cc, 1, now=now + 0.1 + PROBE_INTERVAL,
            in_flight=in_flight, total=total + MSS,
        )
        assert cc.state == cc.PROBE_UP
        # A lossy round while probing: >= 2% of the round's transferred
        # bytes declared lost ends the probe and stretches the cadence.
        cc.on_lost(now + 0.2, lost_bytes=in_flight, in_flight=in_flight)
        assert cc.state != cc.PROBE_UP
        assert cc._probe_interval == PROBE_INTERVAL * PROBE_BACKOFF


events = st.lists(
    st.one_of(
        st.tuples(
            st.just("ack"),
            st.floats(min_value=0.001, max_value=0.5),  # rtt
            st.integers(min_value=0, max_value=64 * MSS),  # newly_acked
            flight_sizes,
            st.floats(min_value=1e3, max_value=1e9),  # delivery rate
        ),
        st.tuples(
            st.just("lost"),
            st.integers(min_value=0, max_value=64 * MSS),
            flight_sizes,
        ),
        st.tuples(st.just("sent"), flight_sizes),
        st.tuples(st.just("timeout")),
    ),
    min_size=1,
    max_size=120,
)


class TestChaosInvariants:
    """The transport-cc-bounds laws, driven directly against the CCA."""

    @given(events=events, delay_aware=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_outputs_stay_bounded(self, events, delay_aware):
        cc = Bbr2(mss=MSS, delay_aware=delay_aware)
        now = 0.0
        total = 0
        for event in events:
            now += 0.01
            if event[0] == "ack":
                _, rtt, newly_acked, in_flight, rate = event
                total += newly_acked
                ack(cc, now=now, rtt=rtt, newly_acked=newly_acked,
                    in_flight=in_flight, rate_bps=rate, total_delivered=total)
            elif event[0] == "lost":
                cc.on_lost(now, lost_bytes=event[1], in_flight=event[2])
            elif event[0] == "sent":
                cc.on_sent(now, MSS, event[1])
            else:
                cc.on_timeout(now)
            cwnd = cc.cwnd_bytes
            assert cwnd >= MIN_CWND_SEGMENTS * MSS
            assert math.isfinite(cwnd)
            assert cwnd <= max(cc.inflight_hi, MIN_CWND_SEGMENTS * MSS)
            pacing = cc.pacing_rate_bps
            assert pacing is None or (pacing > 0 and math.isfinite(pacing))
            assert cc.inflight_hi >= MIN_CWND_SEGMENTS * MSS
            assert cc.pacing_gain > 0


class TestWindowedMax:
    @given(
        samples=st.lists(
            st.tuples(st.floats(min_value=0, max_value=1e9)), min_size=1,
            max_size=200,
        ),
        window=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_max(self, samples, window):
        filt = WindowedMax()
        history = []
        for tick, (value,) in enumerate(samples):
            filt.push(tick, value, tick - window)
            history.append((tick, value))
            live = [v for t, v in history if t >= tick - window]
            assert filt.value == max(live)

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 3),  # tick advance
                    st.integers(-1, 12),  # window behind the tick (< 0: ahead)
                    st.floats(min_value=0, max_value=1e9),
                ),
                st.just("clear"),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_value_is_the_naive_max_after_every_change(self, steps):
        """Ticks never fall and neither does the horizon (a sample once
        evicted stays gone); ties, repeated ticks, a horizon past the new
        sample and ``clear`` all occur. ``value`` is a stored attribute, so
        it must be right after each write, not recomputed on read."""
        filt = WindowedMax()
        history = []
        tick = horizon = 0
        for step in steps:
            if step == "clear":
                filt.clear()
                history.clear()
            else:
                advance, behind, value = step
                tick += advance
                horizon = max(horizon, tick - behind)
                filt.push(tick, value, horizon)
                history.append((tick, value))
            live = [v for t, v in history if t >= horizon]
            assert filt.value == max(live, default=0.0)
            assert bool(filt) == bool(live)

    def test_empty_reads_zero(self):
        filt = WindowedMax()
        assert filt.value == 0.0
        assert not filt
        filt.push(0, 5.0, 0)
        assert filt.value == 5.0
        filt.clear()
        assert len(filt) == 0 and filt.value == 0.0


class TestTimeoutForgetsTheBandwidth:
    """``on_timeout`` clears the bandwidth filter; with ``value`` stored on
    the filter, the clear must also zero it, or pacing would resume at the
    pre-RTO rate instead of the window-limited restart."""

    @given(
        acks=st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=0.5),  # rtt
                st.integers(min_value=0, max_value=20 * MSS),  # newly acked
                st.floats(min_value=1e3, max_value=1e9),  # delivery rate
                st.booleans(),  # app-limited
            ),
            min_size=1,
            max_size=60,
        ),
        generation=st.sampled_from(["bbr", "bbr2", "bbr2+"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bandwidth_is_zero_and_pacing_off_after_timeout(self, acks, generation):
        cc = Bbr(mss=MSS) if generation == "bbr" else Bbr2(
            mss=MSS, delay_aware=generation == "bbr2+"
        )
        now = 0.0
        total = 0
        for rtt, newly_acked, rate, app_limited in acks:
            now += 0.01
            total += newly_acked
            ack(cc, now=now, rtt=rtt, newly_acked=newly_acked, rate_bps=rate,
                total_delivered=total, app_limited=app_limited)
        cc.on_timeout(now)
        assert cc.btlbw_bytes_per_s == 0.0
        assert cc.pacing_rate_bps is None
