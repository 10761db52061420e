"""Ablation harness tests: planted regressions, rankings, determinism.

The harness's contract is that disabling a load-bearing component shows
up as a positive goodput delta against the intact stack, and that the
resulting ranking is a pure function of (scenarios, components, duration,
seed). The planted-regression tests disable a component on the scenario
engineered for it and assert the degradation is large and the ranking
puts the component above the ``noop`` control.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablation_harness import (
    COMPONENTS,
    SCENARIOS,
    ablation_unit,
    harness_units,
    run_ablation_harness,
)
from repro.runner import ParallelRunner, ResultCache


class TestUnits:
    def test_unknown_scenario_and_component_rejected(self):
        with pytest.raises(ExperimentError):
            ablation_unit(scenario="coffee-spill")
        with pytest.raises(ExperimentError):
            ablation_unit(component="flux-capacitor")

    def test_unit_grid_covers_components_x_scenarios(self):
        units = harness_units(tuple(SCENARIOS), COMPONENTS, 1.0, 0)
        assert len(units) == len(SCENARIOS) * len(COMPONENTS)

    def test_every_scenario_runs_intact(self):
        for scenario in SCENARIOS:
            payload = ablation_unit(
                scenario=scenario, component="noop", duration=2.0, seed=0
            )
            assert payload["mbps"] > 0, scenario
            assert payload["events"] > 0


class TestPlantedRegressions:
    def test_disabling_resequencer_degrades_reordering_workload(self):
        baseline = ablation_unit(
            scenario="reorder-bulk", component="noop", duration=4.0, seed=0
        )
        ablated = ablation_unit(
            scenario="reorder-bulk", component="resequencer", duration=4.0, seed=0
        )
        # The reordering workload loses most of its goodput without the
        # resequencer shim (calibrated: ~90% at this scale).
        assert ablated["mbps"] < 0.5 * baseline["mbps"], (baseline, ablated)

    def test_disabling_hysteresis_degrades_sick_recovery_workload(self):
        baseline = ablation_unit(
            scenario="outage-flap", component="noop", duration=8.0, seed=0
        )
        ablated = ablation_unit(
            scenario="outage-flap", component="hysteresis", duration=8.0, seed=0
        )
        assert ablated["mbps"] < baseline["mbps"], (baseline, ablated)

    def test_disabling_pacing_degrades_shallow_burst_workload(self):
        baseline = ablation_unit(
            scenario="paced-bulk", component="noop", duration=8.0, seed=0
        )
        ablated = ablation_unit(
            scenario="paced-bulk", component="pacing", duration=8.0, seed=0
        )
        assert ablated["mbps"] < baseline["mbps"], (baseline, ablated)
        assert ablated["rtx"] > baseline["rtx"], (baseline, ablated)


class TestRanking:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("ablate-cache"))
        return run_ablation_harness(
            duration=8.0,
            scenarios=("reorder-bulk", "outage-flap"),
            components=("noop", "resequencer", "hysteresis"),
            seed=0,
            runner=ParallelRunner(cache=cache),
        )

    def test_resequencer_and_hysteresis_rank_above_noop(self, result):
        assert result.values["rank/resequencer"] < result.values["rank/noop"]
        assert result.values["rank/hysteresis"] < result.values["rank/noop"]

    def test_noop_anchors_zero_delta(self, result):
        assert result.values["importance/noop"] == 0.0
        for scenario in ("reorder-bulk", "outage-flap"):
            assert result.values[f"noop/{scenario}/delta"] == 0.0

    def test_ranking_note_emitted(self, result):
        assert any(note.startswith("ranking:") for note in result.notes)


class TestGridLabels:
    def test_rows_are_labelled_with_the_cell_that_produced_them(self):
        # Axis order is the caller's: neither list is in catalogue order.
        scenarios = ("outage-flap", "reorder-bulk")
        components = ("resequencer", "noop")
        result = run_ablation_harness(
            duration=2.0, scenarios=scenarios, components=components, seed=0
        )
        for component in components:
            for scenario in scenarios:
                unit = ablation_unit(
                    scenario=scenario, component=component, duration=2.0, seed=0
                )
                assert result.values[f"{component}/{scenario}/mbps"] == round(
                    unit["mbps"], 3
                )
        grid = result.tables[0]
        assert grid.headers == ["component"] + [f"{s} (Mbps)" for s in scenarios]
        assert [row[0] for row in grid.rows] == list(components)


class TestDeterminism:
    def test_same_seed_same_ranking_and_values(self, tmp_path):
        kwargs = dict(
            duration=2.0,
            scenarios=("reorder-bulk",),
            components=("noop", "resequencer"),
            seed=0,
        )
        first = run_ablation_harness(
            runner=ParallelRunner(cache=ResultCache(tmp_path / "a")), **kwargs
        )
        second = run_ablation_harness(
            runner=ParallelRunner(cache=ResultCache(tmp_path / "b")), **kwargs
        )
        assert first.values == second.values
        assert first.render() == second.render()

    def test_noop_is_injected_when_omitted(self, tmp_path):
        result = run_ablation_harness(
            duration=2.0,
            scenarios=("reorder-bulk",),
            components=("resequencer",),
            seed=0,
            runner=ParallelRunner(cache=ResultCache(tmp_path)),
        )
        assert "rank/noop" in result.values
        assert result.values["rank/resequencer"] < result.values["rank/noop"]
