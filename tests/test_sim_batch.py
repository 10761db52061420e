"""Kernel surfaces beside dispatch order: entry count, start-up imports.

Complements ``test_sim_wheel.py`` (which proves the wheel's dispatch
*order* equals the heap reference's): these tests pin the O(1) entry
counter and the packet stack's numpy-free start-up. (The file keeps its
name so these ids stay put; the batch loop is gone.)
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.events import COMPACT_MIN_DEAD, EventQueue
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


def _noop():
    return None


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
