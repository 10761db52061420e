"""End-to-end: experiments export traces via --trace-dir wiring."""

from repro.experiments.fig1 import run_fig1a
from repro.experiments.table1 import table1_cell_unit
from repro.obs import summarize_file, validate_file
from repro.runner import ParallelRunner, ResultCache


class TestExperimentTraceExport:
    def test_fig1a_exports_valid_traces(self, tmp_path):
        result = run_fig1a(
            duration=3.0, ccas=("cubic",), trace_dir=str(tmp_path)
        )
        path = result.artifacts["trace:cubic"]
        count, errors = validate_file(path)
        assert errors == []
        assert count > 100
        summary = summarize_file(path)
        # The trace alone reproduces per-channel utilization: eMBB carried
        # a cubic bulk flow, so its uplink was busy.
        assert 0.0 < summary.utilization("embb", "up") <= 1.0
        assert "artifacts" in result.render()

    def test_traced_units_are_executed_not_served_from_the_cache(self, tmp_path):
        # The trace file is part of a traced unit's output and the cache
        # holds payloads only: a second run into an emptied directory must
        # write the files again, not list paths that do not exist.
        cache = ResultCache(tmp_path / "cache")
        traces = tmp_path / "traces"
        for _ in range(2):
            runner = ParallelRunner(cache=cache)
            result = run_fig1a(duration=1.0, runner=runner, trace_dir=str(traces))
            assert (runner.executed, runner.cache_hits) == (4, 0)
            paths = sorted(result.artifacts.values())
            assert len(paths) == 4
            assert sorted(str(path) for path in traces.iterdir()) == paths
            for path in traces.iterdir():
                path.unlink()
        assert not any((tmp_path / "cache").rglob("*.pkl"))

    def test_fig1a_without_trace_dir_has_no_artifacts(self):
        result = run_fig1a(duration=2.0, ccas=("cubic",))
        assert result.artifacts == {}

    def test_table1_cell_traces_first_realization_only(self, tmp_path):
        payload = table1_cell_unit(
            condition="stationary",
            policy="dchannel",
            page_count=2,
            page_timeout=10.0,
            trace_dir=str(tmp_path),
        )
        assert len(payload["plts"]) == 2
        _count, errors = validate_file(payload["trace"])
        assert errors == []
        # Only the first realization is traced: exactly one file.
        assert len(list(tmp_path.iterdir())) == 1
