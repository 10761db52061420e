"""Trace-to-schedule derivation and the recovery-SLO catalogue.

The load-bearing contract: derived outage intervals equal the trace's
dead intervals *exactly* (endpoints on the sample grid), and a derived
schedule survives a JSON round trip unchanged — that is what lets a
bundle or cache key carry "the weather from this trace" as primitives.
"""

import pytest

from repro.errors import ScenarioError
from repro.faults.schedule import FaultSchedule
from repro.resilience import (
    DeadInterval,
    collapse_intervals,
    dead_intervals,
    delay_spike_intervals,
    violation_rate,
)
from repro.resilience.slo import RECOVERY_SLOS
from repro.traces.catalog import get_trace
from repro.traces.model import NetworkTrace
from repro.units import mbps, ms


def trace_with(rates, delays=None, step=1.0, name="t"):
    times = [i * step for i in range(len(rates))]
    if delays is None:
        delays = [ms(10)] * len(rates)
    return NetworkTrace(times, rates, delays, name=name)


class TestDeadIntervals:
    def test_endpoints_on_sample_grid(self):
        trace = trace_with([mbps(10), 0.0, 0.0, mbps(10), 0.0])
        dead = dead_intervals(trace)
        assert dead == [DeadInterval(1.0, 3.0), DeadInterval(4.0, 5.0)]
        assert dead[0].duration == pytest.approx(2.0)

    def test_trailing_run_ends_at_duration(self):
        trace = trace_with([mbps(10), 0.0])
        assert dead_intervals(trace) == [DeadInterval(1.0, trace.duration)]

    def test_threshold_and_validation(self):
        trace = trace_with([mbps(10), mbps(0.5), mbps(10)])
        assert dead_intervals(trace) == []
        assert dead_intervals(trace, dead_rate_bps=mbps(1)) == [
            DeadInterval(1.0, 2.0)
        ]
        with pytest.raises(ScenarioError):
            dead_intervals(trace, dead_rate_bps=-1.0)


class TestCollapseAndSpikes:
    def test_collapse_excludes_dead_and_reports_ratio(self):
        trace = trace_with([mbps(100)] * 6 + [mbps(10)] * 2 + [0.0, mbps(100)])
        collapses = collapse_intervals(trace)
        assert len(collapses) == 1
        interval, severity = collapses[0]
        assert interval == DeadInterval(6.0, 8.0)
        assert severity == pytest.approx(0.1)
        # The dead sample at t=8 belongs to dead_intervals, not collapses.
        assert dead_intervals(trace) == [DeadInterval(8.0, 9.0)]

    def test_spike_needs_factor_and_absolute_floor(self):
        delays = [ms(10)] * 6 + [ms(40), ms(40)] + [ms(10)] * 2
        trace = trace_with([mbps(50)] * 10, delays)
        spikes = delay_spike_intervals(trace)
        assert len(spikes) == 1
        interval, excess = spikes[0]
        assert interval == DeadInterval(6.0, 8.0)
        assert excess == pytest.approx(ms(30))
        # A 3x excursion on a tiny baseline is filtered by min_spike_s.
        tiny = trace_with([mbps(50)] * 4, [ms(1), ms(4), ms(1), ms(1)])
        assert delay_spike_intervals(tiny) == []

    def test_parameter_validation(self):
        trace = trace_with([mbps(10)] * 3)
        with pytest.raises(ScenarioError):
            collapse_intervals(trace, collapse_frac=1.5)
        with pytest.raises(ScenarioError):
            delay_spike_intervals(trace, delay_spike_factor=1.0)
        with pytest.raises(ScenarioError):
            delay_spike_intervals(trace, min_spike_s=0.0)


class TestFromTrace:
    def test_starlink_outages_match_dead_intervals_exactly(self):
        trace = get_trace("starlink-leo", duration=60.0)
        schedule = FaultSchedule.from_trace(trace)
        outages = [f for f in schedule if f.kind == "outage"]
        dead = dead_intervals(trace)
        assert len(outages) == len(dead) >= 3
        for fault, interval in zip(outages, dead):
            assert fault.start == interval.start
            assert fault.start + fault.duration == interval.end
            assert fault.channel == "starlink-leo"

    def test_channel_override_and_wifi_kinds(self):
        trace = get_trace("wifi-5g-handoff", duration=30.0)
        schedule = FaultSchedule.from_trace(trace, channel="embb")
        kinds = {f.kind for f in schedule}
        assert "outage" in kinds and "rtt_spike" in kinds
        assert all(f.channel == "embb" for f in schedule)

    def test_json_round_trip_is_exact(self):
        trace = get_trace("starlink-leo", duration=60.0)
        schedule = FaultSchedule.from_trace(trace)
        clone = FaultSchedule.from_json(schedule.to_json())
        assert clone.to_params() == schedule.to_params()
        assert clone.to_json() == schedule.to_json()

    def test_from_json_rejects_junk(self):
        with pytest.raises(ScenarioError):
            FaultSchedule.from_json("not json {{{")
        with pytest.raises(ScenarioError):
            FaultSchedule.from_json('{"faults": "nope"}')

    def test_clipped_drops_overhanging_faults(self):
        schedule = FaultSchedule().outage("embb", 1.0, 1.0).outage("embb", 5.0, 2.0)
        clipped = schedule.clipped(4.0)
        assert len(clipped) == 1 and clipped.faults[0].start == 1.0
        with pytest.raises(ScenarioError):
            schedule.clipped(0.0)


class TestRecoverySLOs:
    def test_catalogue_covers_every_requirement_class(self):
        from repro.steering.requirements import REQUIREMENT_CLASSES

        assert set(RECOVERY_SLOS) == set(REQUIREMENT_CLASSES)
        assert all(slo.ttr_target_s > 0 for slo in RECOVERY_SLOS.values())
        assert RECOVERY_SLOS["latency"].ttr_target_s < RECOVERY_SLOS["background"].ttr_target_s

    def test_violation_rate(self):
        assert violation_rate([], 1.0) == 0.0
        assert violation_rate([0.5, 1.5, 2.5, 0.1], 1.0) == pytest.approx(0.5)
        with pytest.raises(ScenarioError):
            violation_rate([0.5], 0.0)
