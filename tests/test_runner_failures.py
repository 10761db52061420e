"""Runner resilience tests: crashes, hangs, checkpoint/resume.

The acceptance bar from the robustness design: a sweep containing one
crashing, one hanging, and healthy units still returns a per-unit
:class:`~repro.runner.UnitOutcome` for every unit, and a rerun against the
same cache resumes from the checkpoint — only the units that never
completed execute again. ``run`` (what every experiment calls) reads the
same scheduler, so it checkpoints and blames worker deaths the same way.
Every failure here is produced by a real worker process running a real
probe unit, not by a mock.
"""

from __future__ import annotations

import time
from contextlib import closing

import pytest

from repro.errors import RunnerError
from repro.runner import ParallelRunner, ResultCache, RunUnit, parallel

PROBE_FN = "repro.runner.units:probe_unit"
ERROR_FN = "repro.runner.units:error_unit"
CRASH_FN = "repro.runner.units:crash_unit"
SLEEP_FN = "repro.runner.units:sleep_unit"


def probe(seed: int = 0) -> RunUnit:
    return RunUnit.make("probe", PROBE_FN, seed=seed, value=float(seed))


def interrupt_unit(marker: str, seed: int = 0) -> dict:
    """First call raises KeyboardInterrupt (the user hit Ctrl-C mid-batch);
    later calls succeed. Inline-only: resolved via the test module itself."""
    from pathlib import Path

    path = Path(marker)
    if not path.exists():
        path.write_text("interrupted")
        raise KeyboardInterrupt
    return {"resumed": 1, "seed": seed}


def late_error_unit(delay: float = 1.0, seed: int = 0) -> None:
    """Raises after ``delay`` seconds: a failure that lands well after its
    faster siblings have finished."""
    time.sleep(delay)
    raise ValueError(f"late failure (seed={seed})")


class TestOutcomeBasics:
    def test_error_unit_records_traceback_siblings_unaffected(self):
        runner = ParallelRunner(jobs=1)
        units = [probe(1), RunUnit.make("probe", ERROR_FN), probe(2)]
        outcomes = runner.run_outcomes(units)
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        assert outcomes[0].value == {"value": 3.0, "events": 1}
        assert "ValueError" in outcomes[1].error
        assert "probe failure" in outcomes[1].error
        with pytest.raises(RunnerError):
            outcomes[1].raise_if_failed()
        outcomes[0].raise_if_failed()  # no-op on ok


class TestTimeouts:
    def test_hung_unit_times_out_and_pool_is_killed(self):
        unit = RunUnit.make("probe", SLEEP_FN, duration=30.0)
        runner = ParallelRunner(jobs=1)
        start = time.monotonic()
        (outcome,) = runner.run_outcomes([unit], timeout=1.0)
        elapsed = time.monotonic() - start
        assert outcome.status == "timeout"
        assert "1s" in outcome.error
        assert runner.unit_timeouts == 1
        assert elapsed < 15.0  # killed, not slept through

    def test_sibling_of_timed_out_unit_still_completes(self):
        units = [
            RunUnit.make("probe", SLEEP_FN, duration=30.0),
            probe(3),
            probe(4),
        ]
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run_outcomes(units, timeout=2.0)
        assert outcomes[0].status == "timeout"
        assert outcomes[1].ok and outcomes[2].ok


class TestWorkerDeath:
    def test_crash_unit_is_attributed_and_siblings_rerun(self):
        units = [probe(1), RunUnit.make("probe", CRASH_FN), probe(2)]
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run_outcomes(units)
        assert outcomes[0].ok and outcomes[2].ok
        assert outcomes[1].status == "error"
        assert "worker process died" in outcomes[1].error
        assert runner.pool_respawns >= 1

    def test_repeated_crashes_exhaust_respawn_budget(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_MAX_POOL_RESPAWNS", 1)
        units = [RunUnit.make("probe", CRASH_FN, seed=s) for s in range(3)]
        runner = ParallelRunner(jobs=2)
        outcomes = runner.run_outcomes(units)
        assert all(o.status == "error" for o in outcomes)


class TestStrictCancellation:
    def test_first_failure_cancels_pending_units(self):
        units = [
            RunUnit.make("probe", ERROR_FN),
            RunUnit.make("probe", SLEEP_FN, duration=6.0),
            RunUnit.make("probe", SLEEP_FN, duration=6.0),
        ]
        runner = ParallelRunner(jobs=2)
        start = time.monotonic()
        with pytest.raises(RunnerError):
            runner.run(units)
        # The pending sleep was cancelled and the batch abandoned without
        # waiting out the in-flight one.
        assert time.monotonic() - start < 4.0


class TestCheckpointResume:
    def test_keyboard_interrupt_leaves_cache_consistent(self, tmp_path):
        marker = str(tmp_path / "interrupt")
        units = [
            probe(1),
            RunUnit.make(
                "probe", "tests.test_runner_failures:interrupt_unit", marker=marker
            ),
            probe(2),
        ]
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=1, cache=cache)
        with pytest.raises(KeyboardInterrupt):
            first.run_outcomes(units)
        # probe(1) finished before the interrupt and was checkpointed.
        assert first.executed == 1

        second = ParallelRunner(jobs=1, cache=cache)
        outcomes = second.run_outcomes(units)
        assert all(o.ok for o in outcomes)
        assert [o.cached for o in outcomes] == [True, False, False]
        assert second.cache_hits == 1 and second.executed == 2

    def test_corrupt_cache_blob_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = probe(9)
        path = cache.put(unit, {"value": 42.0})
        path.write_bytes(b"garbage, not a cache blob")
        hit, value = cache.get(unit)
        assert not hit and value is None
        assert cache.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").read_bytes().startswith(b"garbage")
        # The slot is free again: a recompute stores and reads back cleanly.
        runner = ParallelRunner(jobs=1, cache=cache)
        (outcome,) = runner.run_outcomes([unit])
        assert outcome.ok and not outcome.cached
        hit, value = cache.get(unit)
        assert hit and value == outcome.value

    def test_mixed_sweep_outcomes_and_resume(self, tmp_path):
        """The acceptance sweep: crash + hang + healthy units."""
        units = [
            probe(1),
            RunUnit.make("probe", CRASH_FN),
            RunUnit.make("probe", SLEEP_FN, duration=30.0),
            probe(3),
            probe(2),
        ]
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=2, cache=cache)
        outcomes = first.run_outcomes(units, timeout=3.0)
        assert [o.status for o in outcomes] == [
            "ok", "error", "timeout", "ok", "ok",
        ]
        assert first.unit_timeouts >= 1

        # Resume: completed units come from the checkpoint, only the crash
        # and the hang execute again.
        second = ParallelRunner(jobs=2, cache=cache)
        resumed = second.run_outcomes(units, timeout=2.0)
        assert [o.cached for o in resumed] == [True, False, False, True, True]
        assert second.cache_hits == 3
        assert resumed[1].status == "error"
        assert resumed[2].status == "timeout"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_interrupted_at_unit_k_resumes_from_checkpoint(self, tmp_path, jobs):
        """``run`` — the experiments' entry point — checkpoints too: the
        units that finished before the interrupt are cached, and a re-run
        executes only the rest. Inline, that is exactly the first ``k``;
        under the pool, a unit queued after the interrupted one may also
        have finished (and been stored) before the interrupt landed."""
        k = 3
        marker = str(tmp_path / "interrupt")
        interrupt = RunUnit.make(
            "probe", "tests.test_runner_failures:interrupt_unit", marker=marker
        )
        units = [probe(s) for s in range(1, k + 1)] + [interrupt, probe(7), probe(8)]
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=jobs, cache=cache)
        with pytest.raises(KeyboardInterrupt):
            first.run(units)
        assert first.executed == k
        stored = [cache.get(unit)[0] for unit in units]
        assert stored[:k + 1] == [True] * k + [False]
        if jobs == 1:
            assert sum(stored) == k

        second = ParallelRunner(jobs=jobs, cache=cache)
        results = second.run(units)
        assert results[k] == {"resumed": 1, "seed": 0}
        assert second.cache_hits == sum(stored)
        assert second.executed == len(units) - sum(stored)


class TestCheckpointOnCompletion:
    """Under the pool, a unit is cached when its worker returns it, not when
    the in-order stream reaches it."""

    @staticmethod
    def fast(seed: int) -> RunUnit:
        return RunUnit.make("probe", SLEEP_FN, duration=0.05, seed=seed)

    def test_units_finished_behind_a_failing_unit_stay_cached(self, tmp_path):
        slow = RunUnit.make("probe", "tests.test_runner_failures:late_error_unit")
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(jobs=2, cache=cache)
        with pytest.raises(RunnerError) as info:
            runner.run([slow, self.fast(1), self.fast(2)])
        assert slow.key in str(info.value)
        assert cache.get(self.fast(1)) == (True, {"slept": 0.05, "seed": 1})
        assert cache.get(self.fast(2)) == (True, {"slept": 0.05, "seed": 2})

    def test_consumer_failure_after_the_first_verdict_keeps_finished_units(
        self, tmp_path
    ):
        slow = RunUnit.make("probe", SLEEP_FN, duration=1.0)
        units = [slow, self.fast(1), self.fast(2)]
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(jobs=2, cache=cache)
        with pytest.raises(KeyboardInterrupt):
            with closing(runner._outcomes(units, cache)) as stream:
                for index, outcome in stream:
                    assert index == 0 and outcome.ok
                    raise KeyboardInterrupt
        assert all(cache.get(unit)[0] for unit in units)


class TestRunAttribution:
    def test_worker_death_is_blamed_on_the_crashing_unit(self, tmp_path):
        """A crash that breaks the pool while a sibling sleeps is blamed on
        the crash unit, not the sleeper, and both healthy payloads are
        kept."""
        sleeper = RunUnit.make("probe", SLEEP_FN, duration=1.0)
        crash = RunUnit.make("probe", CRASH_FN)
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(jobs=2, cache=cache)
        with pytest.raises(RunnerError) as info:
            runner.run([probe(1), sleeper, crash])
        message = str(info.value)
        assert crash.key in message
        assert sleeper.key not in message
        assert cache.get(probe(1)) == (True, {"value": 3.0, "events": 1})
        assert cache.get(sleeper) == (True, {"slept": 1.0, "seed": 0})
