"""``Simulator.reschedule``: the cancel-and-rearm idiom every transport timer uses.

(The file keeps its name so these ids stay put; the event pool it also
used to cover is gone.)
"""

from repro.sim.kernel import Simulator


def _noop():
    return None


class TestReschedule:
    def test_reschedule_cancels_previous(self):
        sim = Simulator()
        fired = []
        first = sim.reschedule(None, 0.5, fired.append, "first")
        second = sim.reschedule(first, 0.2, fired.append, "second")
        sim.run()
        assert fired == ["second"]
        assert first.cancelled
        assert not second.cancelled

    def test_reschedule_accepts_fired_event(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(0.1, fired.append, "first")
        sim.run()
        again = sim.reschedule(first, 0.1, fired.append, "again")
        sim.run()
        assert fired == ["first", "again"]
        assert again is not first

    def test_reschedule_rejects_negative_delay(self):
        import pytest

        from repro.errors import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.reschedule(None, -1.0, _noop)

    def test_negative_delay_keeps_pending_timer(self):
        import pytest

        from repro.errors import SimulationError

        sim = Simulator()
        fired = []
        armed = sim.schedule(0.5, fired.append, "armed")
        with pytest.raises(SimulationError):
            sim.reschedule(armed, -1.0, _noop)
        assert not armed.cancelled
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["armed"]
