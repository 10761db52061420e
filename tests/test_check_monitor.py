"""Invariant-monitor tests: clean runs stay silent, broken laws raise.

Two halves. First, the monitor must be a pure observer — arming it on a
healthy network and running real workloads produces zero violations while
running thousands of checks. Second, each law must actually fire: every
violation test here breaks exactly one invariant (by driving the taps with
a forged event sequence, tampering with a ledger, or enabling the seeded
``DEBUG_DOUBLE_RELEASE`` bug) and asserts the resulting
:class:`~repro.errors.InvariantError` names the right law and carries the
structured report the chaos bundles are built from.
"""

from __future__ import annotations

import heapq

import pytest

import repro.net.resequencer as reseq_mod
from repro.apps.bulk import BulkTransfer
from repro.check import InvariantMonitor
from repro.core.api import HvcNetwork
from repro.errors import InvariantError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.net.packet import Packet, PacketType
from repro.sim.events import Event


def make_net(steering: str = "dchannel", **kwargs) -> HvcNetwork:
    return HvcNetwork(
        [fixed_embb_spec(), urllc_spec()], steering=steering, **kwargs
    )


def packet(flow_id: int = 1, payload: int = 1000) -> Packet:
    return Packet(flow_id=flow_id, ptype=PacketType.DATA, payload_bytes=payload)


def violation(excinfo) -> dict:
    report = excinfo.value.report
    assert report is not None
    return report


class TestCleanRuns:
    def test_healthy_bulk_run_has_zero_violations(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        BulkTransfer(net, cc="cubic")
        net.run(until=1.0)
        monitor.final_check()
        assert monitor.violation is None
        assert monitor.checks_run > 100
        assert monitor.audits_run >= 10
        assert monitor.events_seen == net.sim.events_processed > 0

    def test_healthy_run_with_faults_has_zero_violations(self):
        net = make_net(steering="round-robin")
        monitor = InvariantMonitor(net).arm()
        schedule = (
            FaultSchedule()
            .outage(net.channels[0].name, start=0.3, duration=0.2)
            .loss_burst(net.channels[1].name, start=0.1, duration=0.3, loss=0.2)
        )
        monitor.watch_injector(FaultInjector(net, schedule).arm())
        BulkTransfer(net, cc="reno")
        net.run(until=1.0)
        monitor.final_check()
        assert monitor.violation is None

    def test_arming_twice_is_rejected(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        with pytest.raises(InvariantError):
            monitor.arm()

    def test_taps_chain_to_displaced_obs_adapters(self):
        from repro.obs import Observability

        net = make_net()
        net.attach_obs(Observability(tracing=True))
        displaced = net.channels[0].uplink.obs
        assert displaced is not None
        monitor = InvariantMonitor(net).arm()
        ledger = net.channels[0].uplink.obs
        assert ledger is not displaced and ledger.inner is displaced
        BulkTransfer(net, cc="cubic")
        net.run(until=0.3)
        monitor.final_check()


class TestEventLevelLaws:
    def test_clock_monotonic_violation(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        with pytest.raises(InvariantError) as excinfo:
            monitor._on_kernel_event(1.0, 0.5)
        assert violation(excinfo)["law"] == "clock-monotonic"

    def test_backwards_clock_reported_before_the_callback_runs(self):
        """The kernel hook fires per event, ahead of its callback."""
        net = make_net()
        InvariantMonitor(net).arm()
        sim = net.sim
        ran = []

        def plant():
            # Behind schedule_at's back: an event earlier than the clock,
            # pushed straight onto the kernel's heap.
            seq = next(sim._seq)
            offender = Event(0.0002, seq, ran.append, ("offender",))
            offender._sim = sim
            heapq.heappush(sim._heap, (0.0002, seq, offender))

        sim.schedule_at(0.0015, plant)
        with pytest.raises(InvariantError) as excinfo:
            net.run(until=0.01)
        assert violation(excinfo)["law"] == "clock-monotonic"
        assert ran == []

    def test_link_fifo_violation(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        ledger = monitor._link_ledgers[0]
        p1, p2 = packet(), packet()
        ledger.on_transmit(p1, 0.1)
        ledger.on_transmit(p2, 0.2)
        with pytest.raises(InvariantError) as excinfo:
            ledger.on_deliver(p2, 0.3)  # overtakes p1, still propagating
        report = violation(excinfo)
        assert report["law"] == "link-fifo"
        assert report["entity"] == ledger.name

    def test_link_exactly_once_violation(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        ledger = monitor._link_ledgers[0]
        p1 = packet()
        ledger.on_transmit(p1, 0.1)
        ledger.on_deliver(p1, 0.2)
        with pytest.raises(InvariantError) as excinfo:
            ledger.on_deliver(p1, 0.3)
        assert violation(excinfo)["law"] == "link-exactly-once"

    def test_link_deliver_monotonic_violation(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        ledger = monitor._link_ledgers[0]
        p1, p2 = packet(), packet()
        ledger.on_transmit(p1, 0.1)
        ledger.on_deliver(p1, 0.5)
        ledger.on_transmit(p2, 0.6)
        with pytest.raises(InvariantError) as excinfo:
            ledger.on_deliver(p2, 0.4)  # arrival timestamp regressed
        assert violation(excinfo)["law"] == "link-deliver-monotonic"

    def test_seeded_resequencer_double_release_is_caught(self):
        assert reseq_mod.DEBUG_DOUBLE_RELEASE is False
        reseq_mod.DEBUG_DOUBLE_RELEASE = True
        try:
            net = make_net(steering="round-robin", resequence=True)
            monitor = InvariantMonitor(net).arm()
            BulkTransfer(net, cc="cubic")
            with pytest.raises(InvariantError) as excinfo:
                net.run(until=1.0)
                monitor.final_check()
        finally:
            reseq_mod.DEBUG_DOUBLE_RELEASE = False
        assert violation(excinfo)["law"] == "reseq-no-dup-release"


class TestLedgerLaws:
    """Each test corrupts one counter, then audits."""

    def run_clean(self, steering: str = "dchannel"):
        net = make_net(steering=steering)
        monitor = InvariantMonitor(net).arm()
        BulkTransfer(net, cc="cubic")
        net.run(until=0.5)
        monitor.audit()  # still clean before the tamper
        return net, monitor

    def test_link_conservation_violation(self):
        net, monitor = self.run_clean()
        monitor._link_ledgers[0].enqueued += 5
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "link-conservation"

    def test_link_stats_reconcile_violation(self):
        net, monitor = self.run_clean()
        busy = max(monitor._link_ledgers, key=lambda led: led.delivered)
        busy.link.stats.delivered += 1
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "link-stats-reconcile"

    def test_device_conservation_violation(self):
        net, monitor = self.run_clean()
        net.client.stats.packets_sent += 1
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        report = violation(excinfo)
        assert report["law"] == "device-conservation"
        assert report["entity"] == "client"

    def test_transport_flight_violation(self):
        net, monitor = self.run_clean()
        conn = net.connections[0].client
        conn._sb.flight[0] += 1
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "transport-flight"

    def test_transport_receive_rejects_touching_ranges(self):
        # Two held ranges sharing a boundary byte should have been merged;
        # left apart they put a seam inside a SACK block.
        net, monitor = self.run_clean()
        conn = net.connections[0].server
        base = conn._rcv_nxt + 100
        conn._ooo_ranges = [(base, base + 50), (base + 51, base + 70)]
        monitor.audit()  # a one-byte hole between ranges is legal
        conn._ooo_ranges = [(base, base + 50), (base + 50, base + 70)]
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "transport-receive"

    def test_transport_cc_bounds_violation(self):
        net, monitor = self.run_clean()
        conn = net.connections[0].client
        # rto is computed and clamped to [min_rto, max_rto]; raising the
        # floor above the ceiling pushes the live value out of its envelope.
        conn.rtt.min_rto = conn.rtt.max_rto + 5.0
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "transport-cc-bounds"

    def test_fault_balance_violation(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        monitor.watch_injector(FaultInjector(net, FaultSchedule()).arm())
        net.run(until=0.2)
        net.channels[0].fail()  # a hold the injector never applied
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        assert violation(excinfo)["law"] == "fault-balance"


class TestViolationReport:
    def test_report_carries_minimal_repro_context(self):
        net = make_net()
        monitor = InvariantMonitor(net).arm()
        BulkTransfer(net, cc="cubic")
        net.run(until=0.3)
        monitor._link_ledgers[0].enqueued += 7
        with pytest.raises(InvariantError) as excinfo:
            monitor.audit()
        report = violation(excinfo)
        assert set(report) == {
            "law", "entity", "time", "message", "deltas",
            "recent_events", "checks_run",
        }
        assert report["time"] == pytest.approx(0.3, abs=1e-6)
        assert report["deltas"]["enqueued"] > 0
        assert report["checks_run"] > 0
        assert report["recent_events"], "recent-event ring should not be empty"
        event = report["recent_events"][-1]
        assert {"time", "kind", "entity", "packet", "copy", "flow"} <= set(event)
        assert monitor.violation == report
        # The rendered message is self-contained enough to triage from a log.
        text = str(excinfo.value)
        assert "link-conservation" in text and "last events" in text
