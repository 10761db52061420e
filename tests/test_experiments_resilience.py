"""The recovery-SLO scorecard: grid completeness, determinism, caching,
and the fleet cell's blackout-survival contract."""

import pytest

from repro.experiments.resilience import (
    fleet_regime_rows,
    regime_rows,
    resilience_fleet_unit,
    resilience_unit,
    run_resilience,
)
from repro.faults import FaultSchedule
from repro.runner import ParallelRunner, ResultCache

QUICK = dict(
    duration=6.0,
    regimes=("handover", "starlink-leo"),
    policies=("single", "dchannel"),
    ccas=("cubic",),
    fleet_tenants=800,
    fleet_duration=4.0,
)


class TestRegimeRows:
    def test_handover_is_scripted_blackout(self):
        rows = regime_rows("handover", 8.0)
        schedule = FaultSchedule.from_params(rows)
        assert len(schedule) == 1
        assert schedule.faults[0].kind == "blackout"
        assert schedule.faults[0].channel == "embb"

    def test_trace_regimes_derive_from_catalog(self):
        rows = regime_rows("starlink-leo", 8.0)
        schedule = FaultSchedule.from_params(rows)
        assert len(schedule) >= 1
        assert all(f.channel == "embb" for f in schedule)
        assert schedule.horizon <= 8.0

    def test_fleet_handover_blacks_out_every_channel(self):
        rows = fleet_regime_rows("handover", 8.0, ("embb", "urllc"))
        schedule = FaultSchedule.from_params(rows)
        assert {f.channel for f in schedule} == {"embb", "urllc"}
        assert all(f.kind == "blackout" for f in schedule)


class TestPacketCell:
    def test_cell_reports_full_metric_set(self):
        rows = regime_rows("handover", 6.0)
        payload = resilience_unit(
            regime="handover", steering="dchannel", cc="cubic",
            fault_rows=rows, duration=6.0,
        )
        for key in (
            "ttr_p50_s", "ttr_p99_s", "failovers", "slo_violation_rates",
            "goodput_mbps", "goodput_during_outage_mbps", "outage_window_s",
        ):
            assert key in payload
        assert set(payload["slo_violation_rates"]) == {
            "latency", "deadline", "throughput", "background",
        }
        assert payload["outages"] == 1
        assert payload["ttr_p50_s"] <= payload["ttr_p99_s"] + 1e-12

    def test_single_stalls_dchannel_fails_over(self):
        rows = regime_rows("handover", 8.0)
        single = resilience_unit(
            regime="handover", steering="single", cc="cubic",
            fault_rows=rows, duration=8.0,
        )
        dchannel = resilience_unit(
            regime="handover", steering="dchannel", cc="cubic",
            fault_rows=rows, duration=8.0,
        )
        assert single["failovers"] == 0
        assert dchannel["failovers"] > 0
        assert single["ttr_p99_s"] > 0.0


class TestFleetCell:
    def test_full_blackout_survived_with_invariants(self):
        rows = fleet_regime_rows("handover", 4.0, ("embb", "urllc"))
        payload = resilience_fleet_unit(
            regime="handover", fault_rows=rows, tenants=800, duration=4.0,
        )
        # The blackout stalled tenants; every stall closed after restore
        # and the invariant catalogue stayed silent (no raise).
        assert payload["stall_events"] > 0
        assert payload["stalled_at_end"] == 0
        assert payload["outages"] == 2
        assert payload["invariant_checks"] > 0
        assert payload["completed"] > 0


class TestScorecard:
    def test_every_cell_reports_ttr_p99(self):
        result = run_resilience(**QUICK)
        for regime in QUICK["regimes"]:
            for policy in QUICK["policies"]:
                for cc in QUICK["ccas"]:
                    assert f"{regime}/{policy}/{cc}/ttr_p99_s" in result.values
            assert f"fleet/{regime}/stalled_at_end" in result.values
            assert result.values[f"fleet/{regime}/stalled_at_end"] == 0
        assert len(result.tables) == 2

    def test_rows_are_labelled_with_the_cell_that_produced_them(self):
        # Axis order is the caller's: "dchannel" listed before "single".
        result = run_resilience(
            duration=6.0, regimes=("handover",), policies=("dchannel", "single"),
            ccas=("cubic",), fleet_tenants=200, fleet_duration=2.0,
        )
        assert result.values["handover/single/cubic/failovers"] == 0
        assert result.values["handover/dchannel/cubic/failovers"] > 0
        assert result.values["handover/single/cubic/ttr_p99_s"] > 0.0
        rows = result.tables[0].rows
        assert [row[1] for row in rows] == ["dchannel", "single"]
        assert [row[5] for row in rows] == [
            str(result.values[f"handover/{policy}/cubic/failovers"])
            for policy in ("dchannel", "single")
        ]
        assert [row[0] for row in result.tables[1].rows] == ["handover"]

    def test_deterministic_and_cache_stable(self, tmp_path):
        runner1 = ParallelRunner(cache=ResultCache(tmp_path / "cache"))
        cold = run_resilience(runner=runner1, **QUICK)
        assert runner1.executed > 0 and runner1.cache_hits == 0
        runner2 = ParallelRunner(cache=ResultCache(tmp_path / "cache"))
        warm = run_resilience(runner=runner2, **QUICK)
        assert runner2.executed == 0
        assert runner2.cache_hits == runner1.executed
        assert warm.render() == cold.render()
        assert warm.values == cold.values

    def test_unknown_regime_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            run_resilience(
                duration=2.0, regimes=("no-such-regime",),
                policies=("single",), ccas=("cubic",),
                fleet_tenants=10, fleet_duration=1.0,
            )
