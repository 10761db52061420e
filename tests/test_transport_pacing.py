"""Tests for transport pacing behaviour."""

import pytest

from repro.core.api import HvcNetwork
from repro.net.hvc import fixed_embb_spec
from repro.net.packet import PacketType
from repro.units import mbps, ms
from tests.test_transport_multipath import dual_net, make_mp_pair


def departure_times(net, cc, message_bytes=20_000_000, until=5.0):
    times = []
    net.channels[0].uplink.on_depart = lambda p, link: times.append(net.now) if (
        p.ptype == PacketType.DATA
    ) else None
    sends = []
    net.client.on_send_hooks.append(
        lambda p, ch: sends.append(net.now) if p.ptype == PacketType.DATA else None
    )
    pair = net.open_connection(cc=cc)
    pair.client.send_message(message_bytes, message_id=1)
    net.run(until=until)
    return sends


class TestPacing:
    def test_bbr_spreads_sends(self):
        """Once BBR has a rate estimate, sends are spaced, not bursty."""
        net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
        sends = departure_times(net, cc="bbr")
        late = [t for t in sends if t > 2.0]
        gaps = [b - a for a, b in zip(late, late[1:])]
        assert gaps, "no steady-state sends observed"
        # Median inter-send gap near one MSS at the estimated rate; far
        # from zero (which window-based bursts would show).
        gaps.sort()
        median_gap = gaps[len(gaps) // 2]
        assert median_gap > 0.0002

    def test_cubic_bursts_more_than_bbr(self):
        """CUBIC (ACK-clocked) emits far more back-to-back sends than a
        paced sender; BBR's pacer smooths them out."""

        def zero_gap_fraction(cc):
            net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
            sends = departure_times(net, cc=cc)
            late = [t for t in sends if t > 2.0]
            gaps = [b - a for a, b in zip(late, late[1:])]
            return sum(1 for g in gaps if g < 1e-6) / max(len(gaps), 1)

        cubic = zero_gap_fraction("cubic")
        bbr = zero_gap_fraction("bbr")
        assert cubic > 0.05
        assert cubic > 3 * bbr

    def test_paced_sender_does_not_burst_into_queue(self):
        """BBR's standing queue stays far smaller than CUBIC's."""
        from repro.net.monitor import ChannelMonitor

        def peak_backlog(cc):
            net = HvcNetwork([fixed_embb_spec(rate_bps=mbps(20))], steering="single")
            monitor = ChannelMonitor(net.sim, net.channels, period=0.05)
            pair = net.open_connection(cc=cc)
            pair.client.send_message(10_000_000, message_id=1)
            net.run(until=8.0)
            return max(s.up_backlog_bytes for s in monitor.series["embb"].samples)

        assert peak_backlog("bbr") < peak_backlog("cubic") / 3


class TestMultipathPacer:
    @pytest.mark.parametrize("cc", ["bbr2", "bbr"])
    def test_wakeup_is_never_later_than_a_gated_subflow_asks(self, cc):
        """One wake-up event serves every subflow's pacer, so it must sit at
        the earliest deadline: a subflow gating after another one whose
        ``next_send_time`` is later used to sleep until that later time."""
        net = dual_net(seed=0)
        sender, _ = make_mp_pair(net, scheduler="minrtt", cc=cc)
        gate = sender._pacing_gate
        moved_earlier = late = 0

        def checked_gate(subflow):
            nonlocal moved_earlier, late
            pending = sender._pacing_event
            gated = gate(subflow)
            if gated:
                moved_earlier += pending is not None and sender._pacing_event is not pending
                late += sender._pacing_event.time > subflow.next_send_time + 1e-12
            return gated

        sender._pacing_gate = checked_gate
        sender.send_message(10**9, message_id=1)
        net.run(until=3.0)
        assert moved_earlier > 5, "no subflow ever gated behind another's later wake-up"
        assert late == 0
