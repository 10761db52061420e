"""Unit tests for the congestion-control algorithms (synthetic ACK streams)."""

import random

import pytest

from repro.errors import TransportError
from repro.transport.cc import list_ccs, make_cc
from repro.transport.cc.base import AckSample, INITIAL_WINDOW_SEGMENTS
from repro.transport.cc.bbr import Bbr
from repro.transport.cc.cubic import Cubic
from repro.transport.cc.hvc_aware import HvcAware
from repro.transport.cc.reno import Reno
from repro.transport.cc.vegas import Vegas
from repro.transport.cc.vivace import Vivace

MSS = 1460


def ack(now, rtt=0.05, newly=MSS, in_flight=10 * MSS, rate=None, delivered=0, **kw):
    return AckSample(
        now=now,
        rtt=rtt,
        newly_acked=newly,
        in_flight=in_flight,
        delivery_rate=rate,
        total_delivered=delivered,
        **kw,
    )


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in list_ccs():
            cc = make_cc(name, mss=MSS)
            assert cc.cwnd_bytes > 0

    def test_unknown_name_raises(self):
        for name in ("hystart++", "copa", "hvc-copa"):
            with pytest.raises(TransportError, match="known: bbr, "):
                make_cc(name)

    def test_hvc_prefix_wraps(self):
        cc = make_cc("hvc-bbr", mss=MSS)
        assert isinstance(cc, HvcAware)
        assert isinstance(cc.base, Bbr)
        assert cc.name == "hvc-bbr"

    def test_rejects_bad_mss(self):
        with pytest.raises(ValueError):
            make_cc("reno", mss=0)


@pytest.mark.parametrize("name", list_ccs())
def test_cc_outputs_do_not_move_on_sent(name):
    """The contract the send paths lean on: they read ``cwnd_bytes`` and
    ``pacing_rate_bps`` once per burst, so ``on_sent`` — the only hook
    called inside one — may move neither. ACKs, losses and timeouts may."""
    windows, rates = set(), set()
    for seed in range(4):
        rng = random.Random(seed)
        cc = make_cc(name, mss=MSS)
        now, delivered = 0.0, 0
        for _ in range(300):
            now += rng.choice([0.0, 0.001, 0.02, 0.3])
            in_flight = rng.randrange(0, 400) * MSS
            roll = rng.random()
            if roll < 0.8:
                newly = rng.choice([0, MSS, MSS, 5 * MSS])
                delivered += newly
                rtt = rng.choice([None, 0.004, 0.05, 0.05, 0.3])
                cc.on_ack(
                    ack(
                        now,
                        rtt=rtt,
                        newly=newly,
                        in_flight=in_flight,
                        rate=None if rtt is None else rng.choice([None, 2e6, 6e7, 1e9]),
                        delivered=delivered,
                        app_limited=rng.random() < 0.2,
                        data_channel=rng.choice([None, 0, 1]),
                        ack_channel=rng.choice([None, 0, 1]),
                    )
                )
            elif roll < 0.9:
                cc.on_lost(now, rng.randint(1, 20) * MSS, in_flight)
                if rng.random() < 0.5:
                    cc.on_loss(now, in_flight)
            else:
                cc.on_timeout(now)
            before = (cc.cwnd_bytes, cc.pacing_rate_bps)
            for _ in range(rng.randint(1, 3)):
                in_flight += MSS
                cc.on_sent(now, MSS, rng.choice([in_flight, 10**9]))
                assert (cc.cwnd_bytes, cc.pacing_rate_bps) == before
            windows.add(before[0])
            rates.add(before[1])
    assert len(windows) > 3  # the streams did move the outputs
    assert len(rates) > 3 or rates == {None}


class TestReno:
    def test_initial_window(self):
        assert Reno(MSS).cwnd_bytes == INITIAL_WINDOW_SEGMENTS * MSS

    def test_slow_start_doubles_per_window(self):
        cc = Reno(MSS)
        start = cc.cwnd_bytes
        acked = 0
        while acked < start:
            cc.on_ack(ack(now=0.05, newly=MSS))
            acked += MSS
        assert cc.cwnd_bytes >= 2 * start * 0.95

    def test_loss_halves_window(self):
        cc = Reno(MSS)
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01))
        before = cc.cwnd_bytes
        cc.on_loss(now=2.0, in_flight=int(before))
        assert cc.cwnd_bytes == pytest.approx(before / 2)

    def test_single_reduction_per_recovery(self):
        cc = Reno(MSS)
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01))
        cc.on_loss(now=2.0, in_flight=10 * MSS)
        after_first = cc.cwnd_bytes
        cc.on_loss(now=2.01, in_flight=10 * MSS)
        assert cc.cwnd_bytes == after_first

    def test_timeout_collapses_to_one_mss(self):
        cc = Reno(MSS)
        for i in range(50):
            cc.on_ack(ack(now=i * 0.01))
        cc.on_timeout(now=1.0)
        assert cc.cwnd_bytes == 2 * MSS  # floor is 2 MSS

    def test_congestion_avoidance_linear(self):
        cc = Reno(MSS)
        cc.on_loss(now=0.0, in_flight=10 * MSS)  # exit slow start
        w0 = cc.cwnd_bytes
        acked = 0
        while acked < w0:  # one window's worth of ACKs ≈ +1 MSS
            cc.on_ack(ack(now=1.0, newly=MSS))
            acked += MSS
        assert cc.cwnd_bytes - w0 == pytest.approx(MSS, rel=0.3)


class TestCubic:
    def test_window_grows_with_time_after_loss(self):
        cc = Cubic(MSS)
        for i in range(200):
            cc.on_ack(ack(now=i * 0.01))
        cc.on_loss(now=2.0, in_flight=20 * MSS)
        w_after_loss = cc.cwnd_bytes
        for i in range(300):
            cc.on_ack(ack(now=2.0 + i * 0.01))
        assert cc.cwnd_bytes > w_after_loss

    def test_beta_reduction(self):
        cc = Cubic(MSS)
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01))
        before = cc.cwnd_bytes
        cc.on_loss(now=5.0, in_flight=int(before))
        assert cc.cwnd_bytes == pytest.approx(before * 0.7)

    def test_cubic_recovers_toward_w_max(self):
        """After a loss the window plateaus near the previous maximum."""
        cc = Cubic(MSS)
        for i in range(400):
            cc.on_ack(ack(now=i * 0.01))
        w_max = cc.cwnd_bytes
        cc.on_loss(now=4.0, in_flight=int(w_max))
        for i in range(2000):
            cc.on_ack(ack(now=4.0 + i * 0.01))
        assert cc.cwnd_bytes >= 0.9 * w_max

    def test_timeout_resets(self):
        cc = Cubic(MSS)
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01))
        cc.on_timeout(now=1.0)
        assert cc.cwnd_bytes == 2 * MSS

    def test_mostly_delay_blind(self):
        """RTT inflation alone must not shrink CUBIC's window."""
        cc = Cubic(MSS)
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01, rtt=0.01))
        before = cc.cwnd_bytes
        for i in range(100):
            cc.on_ack(ack(now=1.0 + i * 0.01, rtt=0.5))
        assert cc.cwnd_bytes >= before


class TestBbr:
    def run_steady(self, cc, bw_bps, rtt, duration, start=0.0, step=0.01):
        now = start
        delivered = 0
        while now < start + duration:
            delivered += MSS
            cc.on_ack(
                ack(
                    now=now,
                    rtt=rtt,
                    rate=bw_bps,
                    in_flight=int(bw_bps / 8 * rtt),
                    delivered=delivered,
                )
            )
            now += step
        return now

    def test_startup_exits_to_probe_bw(self):
        # Startup-exit is evaluated once per round (~one BDP of deliveries),
        # so give the synthetic stream enough acks for several rounds.
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=15.0)
        assert cc.state in (Bbr.PROBE_BW, Bbr.DRAIN)

    def test_btlbw_tracks_delivery_rate(self):
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=2.0)
        assert cc.btlbw_bytes_per_s == pytest.approx(50e6 / 8, rel=0.01)

    def test_cwnd_is_two_bdp(self):
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=3.0)
        bdp = (50e6 / 8) * 0.05
        assert cc.cwnd_bytes == pytest.approx(2 * bdp, rel=0.05)

    def test_min_rtt_poisoning_shrinks_cwnd(self):
        """The Fig. 1 failure: a tiny min-RTT sample caps the BDP estimate."""
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=3.0)
        healthy = cc.cwnd_bytes
        cc.on_ack(ack(now=3.0, rtt=0.005, rate=50e6, delivered=10**7))
        assert cc.cwnd_bytes < healthy / 5

    def test_probe_rtt_entered_after_window_expiry(self):
        cc = Bbr(MSS)
        end = self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=2.0)
        # Now 11 s of samples that never beat the recorded minimum.
        self.run_steady(cc, bw_bps=50e6, rtt=0.08, duration=11.0, start=end)
        # At some point the 10 s window lapsed and PROBE_RTT fired; the
        # controller must have refreshed its min to the new floor.
        assert cc.min_rtt == pytest.approx(0.08, rel=0.01)

    def test_probe_rtt_shrinks_cwnd_then_restores(self):
        cc = Bbr(MSS)
        cc._enter_probe_rtt(now=1.0)
        assert cc.cwnd_bytes == 4 * MSS
        cc.on_ack(ack(now=1.25, rtt=0.05, rate=50e6, delivered=10**6))
        assert cc.state != Bbr.PROBE_RTT

    def test_pacing_rate_cycles_in_probe_bw(self):
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=15.0)
        assert cc.state == Bbr.PROBE_BW
        gains = set()
        now = 15.0
        delivered = 10**8
        for i in range(400):
            delivered += MSS
            cc.on_ack(ack(now=now, rtt=0.05, rate=50e6, delivered=delivered))
            gains.add(round(cc.pacing_gain, 2))
            now += 0.005
        assert 1.25 in gains and 0.75 in gains and 1.0 in gains

    def test_loss_is_ignored(self):
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=3.0)
        before = cc.cwnd_bytes
        cc.on_loss(now=3.0, in_flight=int(before))
        assert cc.cwnd_bytes == before

    def test_app_limited_samples_do_not_lower_estimate(self):
        cc = Bbr(MSS)
        self.run_steady(cc, bw_bps=50e6, rtt=0.05, duration=2.0)
        est = cc.btlbw_bytes_per_s
        for i in range(200):
            cc.on_ack(ack(now=2.0 + i * 0.01, rate=1e6, app_limited=True, delivered=10**7))
        assert cc.btlbw_bytes_per_s == est


class TestVegas:
    def test_low_delay_grows_window(self):
        cc = Vegas(MSS)
        cc._in_slow_start = False
        w0 = cc.cwnd_bytes
        for i in range(300):
            cc.on_ack(ack(now=i * 0.01, rtt=0.05))
        assert cc.cwnd_bytes > w0

    def test_queueing_delay_shrinks_window(self):
        cc = Vegas(MSS)
        cc._in_slow_start = False
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01, rtt=0.05))
        grown = cc.cwnd_bytes
        # Base RTT poisoned low, then heavy queueing delay.
        cc.on_ack(ack(now=1.0, rtt=0.005))
        for i in range(500):
            cc.on_ack(ack(now=1.01 + i * 0.01, rtt=0.06))
        assert cc.cwnd_bytes < grown

    def test_base_rtt_is_min(self):
        cc = Vegas(MSS)
        for rtt in (0.05, 0.02, 0.08):
            cc.on_ack(ack(now=0.1, rtt=rtt))
        assert cc.base_rtt == 0.02

    def test_equilibrium_between_alpha_beta(self):
        """Vegas settles where the diff is between 2 and 4 segments."""
        cc = Vegas(MSS)
        base = 0.05
        now = 0.0
        for _ in range(3000):
            # Model rtt = base * (1 + queue), queue proportional to cwnd
            # beyond 20 segments on a fixed-BDP path.
            segments = cc.cwnd_bytes / MSS
            rtt = base * max(1.0, segments / 20.0)
            cc.on_ack(ack(now=now, rtt=rtt, newly=MSS))
            now += 0.01
        segments = cc.cwnd_bytes / MSS
        diff = segments * (1 - 20.0 / max(segments, 20.0))
        assert 0 <= diff <= 6

    def test_loss_reduces_window(self):
        cc = Vegas(MSS)
        cc._cwnd = 40 * MSS
        cc.on_loss(now=1.0, in_flight=40 * MSS)
        assert cc.cwnd_bytes == pytest.approx(30 * MSS)


class TestVivace:
    def drive(self, cc, rtt_fn, duration=10.0, step=0.01):
        now = 0.0
        while now < duration:
            cc.on_ack(ack(now=now, rtt=rtt_fn(now), newly=MSS))
            now += step

    def test_stable_rtt_grows_rate(self):
        cc = Vivace(MSS)
        initial = cc.rate_bps
        self.drive(cc, lambda t: 0.05)
        assert cc.rate_bps > initial

    def test_rising_rtt_suppresses_rate(self):
        """Oscillating RTTs (the steering signature) crush the rate."""
        stable = Vivace(MSS)
        self.drive(stable, lambda t: 0.05)
        jittery = Vivace(MSS)
        # Sawtooth between 5 ms and 80 ms — steering-induced bimodality.
        self.drive(jittery, lambda t: 0.005 if (t % 0.2) < 0.1 else 0.08)
        assert jittery.rate_bps < stable.rate_bps / 3

    def test_loss_pressure_lowers_utility(self):
        clean = Vivace(MSS)
        self.drive(clean, lambda t: 0.05, duration=5.0)
        lossy = Vivace(MSS)
        now = 0.0
        while now < 5.0:
            lossy.on_ack(ack(now=now, rtt=0.05, newly=MSS))
            if int(now * 100) % 10 == 0:
                lossy.on_loss(now=now, in_flight=10 * MSS)
            now += 0.01
        assert lossy.rate_bps < clean.rate_bps

    def test_pacing_rate_exposed(self):
        cc = Vivace(MSS)
        assert cc.pacing_rate_bps == cc.rate_bps

    def test_rate_floor(self):
        cc = Vivace(MSS)
        for i in range(100):
            cc.on_timeout(now=float(i))
        assert cc.rate_bps >= 0.2e6


class TestHvcAware:
    def test_passthrough_single_channel(self):
        wrapped = HvcAware(Cubic(MSS))
        plain = Cubic(MSS)
        for i in range(200):
            sample = ack(now=i * 0.01, data_channel=0, ack_channel=0)
            wrapped.on_ack(sample)
            plain.on_ack(ack(now=i * 0.01))
        assert wrapped.cwnd_bytes == pytest.approx(plain.cwnd_bytes)

    def test_normalizes_cross_channel_rtts(self):
        """A URLLC-flavoured sample is re-based onto the primary pair."""
        cc = HvcAware(Vegas(MSS))
        cc.base._in_slow_start = False
        # Bulk data on channel 0 (50 ms), occasional sample via channel 1 (5 ms).
        for i in range(100):
            cc.on_ack(ack(now=i * 0.01, rtt=0.05, data_channel=0, ack_channel=0))
        cc.on_ack(ack(now=1.0, rtt=0.005, newly=10, data_channel=1, ack_channel=1))
        grown = cc.cwnd_bytes
        for i in range(300):
            cc.on_ack(ack(now=1.01 + i * 0.01, rtt=0.05, data_channel=0, ack_channel=0))
        # Without normalization Vegas would collapse (base 5 ms vs 50 ms RTTs).
        assert cc.cwnd_bytes >= grown

    def test_floors_tracked_per_pair(self):
        cc = HvcAware(Cubic(MSS))
        cc.on_ack(ack(now=0.0, rtt=0.05, data_channel=0, ack_channel=0))
        cc.on_ack(ack(now=0.1, rtt=0.005, data_channel=1, ack_channel=1))
        assert cc.channel_floors[(0, 0)] == 0.05
        assert cc.channel_floors[(1, 1)] == 0.005

    def test_delegates_outputs(self):
        base = Cubic(MSS)
        cc = HvcAware(base)
        assert cc.cwnd_bytes == base.cwnd_bytes
        assert cc.pacing_rate_bps == base.pacing_rate_bps
        cc.on_timeout(now=1.0)
        assert base.cwnd_bytes == 2 * MSS
