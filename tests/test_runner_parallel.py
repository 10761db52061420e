"""Determinism tests: parallel/cached execution must match serial exactly.

The acceptance bar from the runner design: an experiment's
``ExperimentResult.values`` and ``events_processed`` are **identical** —
not approximately equal — whether units run inline, through
``ParallelRunner(jobs=1)``, fanned out over worker processes, or replayed
from a warm cache.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import RunnerError
from repro.experiments.fig1 import run_fig1a
from repro.experiments.sensitivity import (
    run_threshold_sweep,
    run_urllc_bandwidth_sweep,
    run_urllc_rtt_sweep,
)
from repro.runner import ParallelRunner, ResultCache, RunUnit, usable_cpus

PROBE_FN = "repro.runner.units:probe_unit"


def probe_units(count: int = 5):
    return [
        RunUnit.make("probe", PROBE_FN, seed=index, value=float(index))
        for index in range(count)
    ]


class TestParallelRunner:
    def test_rejects_zero_jobs(self):
        with pytest.raises(RunnerError):
            ParallelRunner(jobs=0)

    def test_results_follow_input_order(self):
        runner = ParallelRunner(jobs=4)
        results = runner.run(probe_units())
        assert [r["value"] for r in results] == [0.0, 3.0, 6.0, 9.0, 12.0]
        assert runner.executed == 5

    def test_jobs_one_matches_jobs_four(self):
        serial = ParallelRunner(jobs=1).run(probe_units())
        fanned = ParallelRunner(jobs=4).run(probe_units())
        assert serial == fanned

    def test_failing_unit_raises_runner_error(self):
        bad = RunUnit.make("probe", "repro.runner.units:no_such_fn")
        with pytest.raises(RunnerError):
            ParallelRunner().run([bad])

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache)
        warm = ParallelRunner(jobs=1, cache=cache)
        units = probe_units()
        cold = first.run(units)
        hot = warm.run(units)
        assert cold == hot
        assert first.executed == 5 and first.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == 5

    def test_partial_cache_mixes_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = probe_units()
        ParallelRunner(cache=cache).run(units[:2])
        runner = ParallelRunner(jobs=2, cache=cache)
        results = runner.run(units)
        assert [r["value"] for r in results] == [0.0, 3.0, 6.0, 9.0, 12.0]
        assert runner.cache_hits == 2 and runner.executed == 3


class TestUsableCpus:
    """What ``--jobs`` defaults to: the CPUs this process may run on, from
    the most specific query the platform offers."""

    def test_process_cpu_count_wins_where_it_exists(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert usable_cpus() == 3

    def test_affinity_mask_bounds_the_count_before_3_13(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 2

    def test_host_core_count_without_an_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6

    def test_an_unknown_count_reads_as_one(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: None, raising=False)
        assert usable_cpus() == 1
        monkeypatch.delattr(os, "process_cpu_count")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_the_library_default_stays_inline(self):
        assert ParallelRunner().jobs == 1


def _snapshot(result):
    return (result.values, result.events_processed)


class TestExperimentDeterminism:
    """Same seed ⇒ identical values and event counts on every path."""

    CCAS = ("vegas", "vivace")
    DURATION = 2.0

    def test_fig1a_identical_across_execution_modes(self, tmp_path):
        reference = _snapshot(
            run_fig1a(duration=self.DURATION, ccas=self.CCAS, seed=7)
        )
        assert reference[1] > 0
        inline = _snapshot(
            run_fig1a(
                duration=self.DURATION, ccas=self.CCAS, seed=7,
                runner=ParallelRunner(jobs=1),
            )
        )
        fanned = _snapshot(
            run_fig1a(
                duration=self.DURATION, ccas=self.CCAS, seed=7,
                runner=ParallelRunner(jobs=4),
            )
        )
        cache = ResultCache(tmp_path)
        cold_runner = ParallelRunner(jobs=1, cache=cache)
        cold = _snapshot(
            run_fig1a(
                duration=self.DURATION, ccas=self.CCAS, seed=7,
                runner=cold_runner,
            )
        )
        warm_runner = ParallelRunner(jobs=1, cache=cache)
        warm = _snapshot(
            run_fig1a(
                duration=self.DURATION, ccas=self.CCAS, seed=7,
                runner=warm_runner,
            )
        )
        assert inline == reference
        assert fanned == reference
        assert cold == reference
        assert warm == reference
        assert warm_runner.cache_hits == len(self.CCAS)
        assert warm_runner.executed == 0

    def test_bandwidth_sweep_identical_across_execution_modes(self, tmp_path):
        kwargs = {"rates_mbps": (1.0, 2.0), "page_count": 1, "seed": 5}
        reference = _snapshot(run_urllc_bandwidth_sweep(**kwargs))
        assert reference[1] > 0
        fanned = _snapshot(
            run_urllc_bandwidth_sweep(**kwargs, runner=ParallelRunner(jobs=4))
        )
        cache = ResultCache(tmp_path)
        cold = _snapshot(
            run_urllc_bandwidth_sweep(
                **kwargs, runner=ParallelRunner(jobs=1, cache=cache)
            )
        )
        warm_runner = ParallelRunner(jobs=4, cache=cache)
        warm = _snapshot(
            run_urllc_bandwidth_sweep(**kwargs, runner=warm_runner)
        )
        assert fanned == reference
        assert cold == reference
        assert warm == reference
        assert warm_runner.cache_hits == 2 and warm_runner.executed == 0

    def test_the_three_plt_sweeps_share_the_paper_point(self, tmp_path):
        # 5 rates + 4 thresholds + 4 RTTs, and (2 Mbps, 5 ms, threshold 0)
        # is on all three axes: one unit, simulated once.
        runner = ParallelRunner(cache=ResultCache(tmp_path))
        bandwidth = run_urllc_bandwidth_sweep(page_count=2, runner=runner)
        threshold = run_threshold_sweep(page_count=2, runner=runner)
        rtt = run_urllc_rtt_sweep(page_count=2, runner=runner)
        assert (runner.executed, runner.cache_hits) == (11, 2)
        assert bandwidth.values["2.0"] == threshold.values["0.0"] == rtt.values["5.0"]

    def test_seed_change_busts_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_fig1a(
            duration=self.DURATION, ccas=("vegas",), seed=1,
            runner=ParallelRunner(cache=cache),
        )
        other_seed = ParallelRunner(cache=cache)
        run_fig1a(
            duration=self.DURATION, ccas=("vegas",), seed=2,
            runner=other_seed,
        )
        assert other_seed.cache_hits == 0 and other_seed.executed == 1
