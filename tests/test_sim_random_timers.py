"""Unit tests for random streams and timers."""

from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer

import pytest


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_deterministic_across_instances(self):
        first = RandomStreams(seed=42).stream("loss").random()
        second = RandomStreams(seed=42).stream("loss").random()
        assert first == second

    def test_different_names_differ(self):
        streams = RandomStreams(seed=42)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random()
        b = RandomStreams(seed=2).stream("x").random()
        assert a != b


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_start_delay_overrides_first_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=2.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_stop_prevents_future_firings(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        sim.schedule(1.1, timer.stop)
        sim.run(until=3.0)
        assert ticks == [0.5, 1.0]

    def test_callback_may_stop_timer(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: (ticks.append(sim.now), timer.stop()))
        sim.run(until=5.0)
        assert ticks == [0.5]

    def test_callback_may_adjust_interval(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            timer.interval = 1.0

        timer = PeriodicTimer(sim, 0.25, tick)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)
