"""Batch-dispatch surfaces: bulk scheduling, sweeps, start-up imports.

Complements ``test_sim_wheel.py`` (which proves the batch loop's
dispatch *order* equals the per-event and heap references): these tests
pin the batch-granularity APIs themselves — the bulk transient feed,
pool recycling through the fast loop, the O(1) entry counter, and the
link serialization sweeps built on top of them.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.net.link import SWEEP_MAX, SWEEP_MIN_QUEUED, Link, LinkSpec
from repro.net.loss import BernoulliLoss
from repro.net.packet import Packet, PacketType
from repro.sim.events import COMPACT_MIN_DEAD, EventQueue
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


def _noop():
    return None


# ----------------------------------------------------------------------
# Bulk transient scheduling
# ----------------------------------------------------------------------
class TestBulkTransient:
    def test_matches_individual_schedules(self):
        record_bulk, record_one = [], []

        sim = Simulator()
        items = [(0.0012, record_bulk.append, (i,)) for i in range(40)]
        items += [(0.0003, record_bulk.append, (100 + i,)) for i in range(3)]
        sim.schedule_transient_bulk(items)
        sim.run()

        ref = Simulator()
        for time, _cb, args in items:
            ref.schedule_at_transient(time, record_one.append, *args)
        ref.run()

        assert record_bulk == record_one
        # Sub-granularity collisions dispatched before the later bucket.
        assert record_bulk[:3] == [100, 101, 102]

    def test_bulk_events_are_pool_recycled(self):
        sim = Simulator()
        pool = sim._queue.pool
        for _ in range(20):
            sim.schedule_transient_bulk(
                [(sim.now + 0.001, _noop, ()) for _ in range(10)]
            )
            sim.run()
        total = pool.created + pool.reused
        assert total == 200
        assert pool.reused / total > 0.9

    def test_bulk_accepts_out_of_order_times(self):
        sim = Simulator()
        record = []
        sim.schedule_transient_bulk(
            [
                (0.003, record.append, (3,)),
                (0.001, record.append, (1,)),
                (0.002, record.append, (2,)),
            ]
        )
        sim.run()
        assert record == [1, 2, 3]


# ----------------------------------------------------------------------
# Pool behaviour through the batch loop
# ----------------------------------------------------------------------
class TestPoolThroughBatchLoop:
    def test_transient_chain_hits_pool(self):
        sim = Simulator()
        state = {"fires": 0}

        def fire():
            state["fires"] += 1
            if state["fires"] < 5000:
                sim.schedule_transient(0.0003, fire)

        sim.schedule_transient(0.0003, fire)
        sim.run()
        pool = sim._queue.pool
        total = pool.created + pool.reused
        assert pool.reused / total > 0.99
        assert pool.released == 5000


# ----------------------------------------------------------------------
# Entry accounting
# ----------------------------------------------------------------------
class TestEntryCount:
    def test_entry_count_matches_brute_force(self):
        queue = EventQueue(granularity=1e-3, horizon=50e-3)
        events = []
        for i in range(300):
            events.append(queue.push((i % 97) * 1e-3, _noop))
        for event in events[::3]:
            event.cancel()
        for _ in range(80):
            queue.pop_next(None)

        wheel = queue._wheel
        brute = (
            len(wheel._drain)
            - wheel._drain_pos
            + sum(len(b) for b in wheel._buckets.values())
            + len(queue._overflow)
        )
        assert queue.entry_count() == brute

    def test_cancel_heavy_retention_stays_at_pr5_level(self):
        """Regression gate: O(1) entry_count must not change compaction.

        The pacing/RTO cancel churn retained ``max_queue_entries`` ~257
        with the walking counter; the cached counter must keep the same
        compaction cadence, bounded by the trigger threshold.
        """
        sim = Simulator()
        state = {"pacing": None, "rto": None}

        def fire():
            if state["pacing"] is not None:
                state["pacing"].cancel()
            if state["rto"] is not None:
                state["rto"].cancel()
            state["pacing"] = sim.schedule(0.002, _noop)
            state["rto"] = sim.schedule(0.25, _noop)
            sim.schedule(0.0001, fire)

        sim.schedule(0.0001, fire)
        max_entries = 0
        for _ in range(32):
            sim.run(max_events=1000)
            max_entries = max(max_entries, sim._queue.entry_count())
        assert sim._queue.compactions > 0
        assert max_entries <= 2 * COMPACT_MIN_DEAD + 2


# ----------------------------------------------------------------------
# Start-up cost
# ----------------------------------------------------------------------
class TestStartupImports:
    def test_packet_stack_does_not_import_numpy(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.core.api, repro.apps.bulk; "
                "sys.exit('numpy' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert out.returncode == 0, out.stderr


# ----------------------------------------------------------------------
# Link serialization sweeps
# ----------------------------------------------------------------------
def _packet(i, size=1000):
    return Packet(flow_id=1, ptype=PacketType.DATA, payload_bytes=size, seq=i)


def _burst_deliveries(count, sweep_eligible, loss=None, mutate=None):
    """Deliver a burst; return [(arrival_time, seq)]. ``mutate(sim, link)``
    optionally schedules mid-flight interference."""
    sim = Simulator()
    spec = LinkSpec(rate_bps=8_000_000.0, delay=0.01, loss=loss)
    link = Link(sim, spec, name="dut")
    link._sweep_eligible = sweep_eligible
    record = []
    link.connect(lambda p: record.append((sim.now, p.seq)))
    for i in range(count):
        assert link.send(_packet(i))
    if mutate is not None:
        mutate(sim, link)
    sim.run()
    return record


#: Burst sizes straddling ``SWEEP_MIN_QUEUED``, half a window, one full
#: ``SWEEP_MAX`` window, and bursts that need several sweeps.
BURSTS = [4, 31, 32, 33, 64, 65, 130]


class TestLinkSweep:
    def test_sweep_matches_per_packet_exactly(self):
        for burst in BURSTS:
            swept = _burst_deliveries(burst, sweep_eligible=True)
            classic = _burst_deliveries(burst, sweep_eligible=False)
            assert len(swept) == burst
            assert swept == classic, burst  # bit-for-bit: same arithmetic chain

    def test_sweep_matches_with_loss_model(self):
        # Loss draws happen at departure in FIFO order, so the RNG call
        # sequence — and therefore which packets die — is identical
        # (both links get the default seeded rng).
        for burst in BURSTS:
            swept = _burst_deliveries(burst, True, loss=BernoulliLoss(0.2))
            classic = _burst_deliveries(burst, False, loss=BernoulliLoss(0.2))
            assert swept == classic, burst
        assert len(swept) < BURSTS[-1]  # the loss model actually bit

    def test_short_backlog_stays_per_packet(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(rate_bps=8e6, delay=0.01))
        link.connect(lambda p: None)
        for i in range(SWEEP_MIN_QUEUED):  # head + too-short backlog
            link.send(_packet(i))
        assert link._sweep is None

    def test_sweep_window_is_bounded(self):
        sim = Simulator()
        link = Link(sim, LinkSpec(rate_bps=8e6, delay=0.01))
        link.connect(lambda p: None)
        for i in range(SWEEP_MAX + 40):
            link.send(_packet(i))
        # The sweep plans when the head hands off to the backlog.
        sim.run(until=0.002)
        assert link._sweep is not None
        assert len(link._sweep.packets) == SWEEP_MAX

    def test_rate_change_invalidates_and_replans(self):
        def slow_down(sim, link):
            # Mid-sweep fault: halve the rate while the window drains.
            sim.schedule(0.003, lambda: setattr(link, "rate_factor", 0.5))

        swept = _burst_deliveries(40, True, mutate=slow_down)
        classic = _burst_deliveries(40, False, mutate=slow_down)
        assert swept == classic
        # Sanity: the change really landed mid-burst (later arrivals slower).
        undisturbed = _burst_deliveries(40, True)
        assert swept != undisturbed

    def test_flush_mid_sweep_keeps_serving_packet(self):
        def flush_late(sim, link):
            sim.schedule(0.003, link.flush)

        swept = _burst_deliveries(40, True, mutate=flush_late)
        classic = _burst_deliveries(40, False, mutate=flush_late)
        assert swept == classic
        assert len(swept) < 40  # the flush discarded the queued tail
