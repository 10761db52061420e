"""Kernel surfaces beside dispatch order: pending count, start-up imports.

Complements ``test_sim_wheel.py`` (which proves the kernel's dispatch
*order* equals the naive reference's): these tests pin the exact pending
count, the compaction bound and the packet stack's numpy-free start-up.
(The file keeps its name so these ids stay put; the batch loop is gone.)
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.events import COMPACT_MIN_DEAD
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


def _noop():
    return None


# ----------------------------------------------------------------------
# Entry accounting
# ----------------------------------------------------------------------
class TestEntryCount:
    def test_entry_count_matches_brute_force(self):
        """``pending_events`` is the live entries of the heap, counted."""
        sim = Simulator()
        events = [sim.schedule((i % 97) * 1e-3, _noop) for i in range(300)]
        for event in events[::3]:
            event.cancel()
        for chunk in range(8):
            sim.run(max_events=10)
            events[chunk * 31].cancel()  # fired or pending: both must count right
            brute = sum(1 for entry in sim._heap if not entry[2].cancelled)
            assert sim.pending_events == brute

    def test_cancel_heavy_retention_stays_at_pr5_level(self):
        """Regression gate: the pacing/RTO cancel churn retained ~257
        entries under the first compacting queue; the heap must keep that
        bound, set by the compaction trigger."""
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
            max_entries = max(max_entries, len(sim._heap))
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
