"""Process-pool fan-out with deterministic merge and crash tolerance.

``ParallelRunner.run(units)`` returns one result per unit **in input
order**, never completion order — so an experiment assembled from the
returned list is bit-identical whether it ran serially, on one worker, or
on sixteen. ``jobs=1`` executes inline in the calling process (no pool, no
pickling of results), which is also the default every experiment uses when
no runner is passed; the parallel path exists purely to cut wall-clock.
``python -m repro`` asks for :func:`usable_cpus` workers instead.

There is one scheduler, read two ways. It gives every unit a
:class:`UnitOutcome` (ok / error / timeout), in submission order, and writes
each success to the cache the moment its worker returns it — a fast unit
queued behind a slow one is stored while the slow one still runs:

* ``run_outcomes`` collects every outcome, so one bad scenario in a
  200-run chaos campaign cannot take down the other 199;
* ``run`` raises :class:`RunnerError` naming the unit at the first failed
  outcome, kills the pool and cancels the units still pending — right for
  the paper experiments, where a failure means the code is wrong and a
  partial figure is worthless.

Both survive the failure modes a campaign of adversarial scenarios
actually produces:

* a unit raising — recorded with its traceback;
* a unit hanging — a per-unit wall-clock ``timeout`` (``run_outcomes``
  only) kills the worker pool (a stuck simulation cannot be interrupted any
  other way), records a ``timeout`` outcome, and respawns the pool for the
  remaining units;
* a worker process dying (the ``BrokenProcessPool`` family) — the pool is
  respawned and the units that were in flight are re-run one at a time, so
  the death is blamed on the unit that caused it, not on a sibling;
* ``KeyboardInterrupt`` — worker processes are terminated and the interrupt
  propagates; every unit that already completed has been written to the
  cache, so re-running the same batch resumes from that checkpoint and only
  executes the unfinished units.

Units are deterministic functions of their params and seed (the premise
the cache key rests on), so a failed unit is never retried: a retry would
only replay the failure.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    TimeoutError as FutureTimeoutError,
    wait,
)
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Generator, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RunnerError, UnitTimeoutError
from repro.runner.cache import ResultCache
from repro.runner.units import RunUnit, execute_unit

#: How many unattributable pool deaths one batch tolerates before the
#: remaining units are marked as errors instead of respawning again. In
#: attributed (single-in-flight) mode a death indicts the unit itself and
#: does not count against this budget.
DEFAULT_MAX_POOL_RESPAWNS = 3


@dataclass
class UnitOutcome:
    """What happened to one unit under the runner.

    ``status`` is ``"ok"`` (``value`` holds the payload), ``"error"``
    (``error`` holds the traceback or cause) or ``"timeout"`` (the unit
    exceeded the per-unit wall-clock budget and its worker was killed).
    ``cached`` marks results served from the result cache without executing.
    """

    unit: RunUnit
    status: str
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_if_failed(self) -> None:
        """Re-raise a failed outcome as the matching runner exception."""
        if self.status == "timeout":
            raise UnitTimeoutError(f"unit {self.unit.key} timed out: {self.error}")
        if self.status != "ok":
            raise RunnerError(f"unit {self.unit.key} failed: {self.error}")


#: What the scheduler streams: ``(index into the batch, outcome)``.
_Stream = Iterator[Tuple[int, UnitOutcome]]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (``taskset``, a
    container's cpuset), not the host's core count."""
    process_cpu_count = getattr(os, "process_cpu_count", None)  # 3.13+
    if process_cpu_count is not None:
        return process_cpu_count() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


class _Lost:
    __slots__ = ()


#: Sentinel: a future that yielded no usable result after a pool kill.
_LOST = _Lost()


def _salvage(future) -> Any:
    """A completed future's value after a pool kill, else ``_LOST``."""
    if not future.done() or future.cancelled():
        return _LOST
    try:
        return future.result(timeout=0)
    except BaseException:
        return _LOST


class ParallelRunner:
    """Executes :class:`RunUnit` batches, optionally caching results.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` (default) runs units inline — the
        reference execution mode the parallel path must match exactly. A
        batch never starts more workers than it has units to execute.
    cache:
        Optional :class:`~repro.runner.cache.ResultCache`. Hits skip
        execution entirely; each miss is stored as soon as it completes.

    Attributes
    ----------
    cache_hits / executed:
        Per-runner counters across every run, used by the benchmarks to
        prove a warm rerun did no simulation work.
    unit_timeouts / pool_respawns:
        Resilience counters: pool kills due to per-unit timeouts, and
        unattributable worker-death respawns.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None) -> None:
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = cache
        self.cache_hits = 0
        self.executed = 0
        self.unit_timeouts = 0
        self.pool_respawns = 0

    def run(self, units: Sequence[RunUnit], cached: bool = True) -> List[Any]:
        """Execute every unit; results align index-for-index with ``units``.

        The first failed outcome raises :class:`RunnerError` naming its
        unit; the pool is killed and the units still pending are never
        simulated. Units that completed before it stay cached.

        ``cached=False`` is for units whose output is more than their
        payload (a traced unit also writes a file): they are executed, and
        neither read from nor written to the cache.
        """
        units = list(units)
        results: List[Any] = [None] * len(units)
        with closing(self._outcomes(units, self.cache if cached else None)) as stream:
            for index, outcome in stream:
                outcome.raise_if_failed()
                results[index] = outcome.value
        return results

    def run_one(self, unit: RunUnit, cached: bool = True) -> Any:
        return self.run([unit], cached=cached)[0]

    def run_outcomes(
        self, units: Sequence[RunUnit], timeout: Optional[float] = None
    ) -> List[UnitOutcome]:
        """Execute every unit; one :class:`UnitOutcome` per unit, in order.

        Never raises for unit failures (only for ``KeyboardInterrupt`` and
        programming errors in the runner itself). ``timeout`` is a per-unit
        wall-clock budget in seconds; setting it forces pool execution even
        with ``jobs=1`` — an inline unit cannot be preempted.
        """
        if timeout is not None and timeout <= 0:
            raise RunnerError(f"timeout must be positive, got {timeout}")
        units = list(units)
        outcomes: List[Optional[UnitOutcome]] = [None] * len(units)
        for index, outcome in self._outcomes(units, self.cache, timeout):
            outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------
    def _outcomes(
        self,
        units: List[RunUnit],
        cache: Optional[ResultCache],
        timeout: Optional[float] = None,
    ) -> _Stream:
        """Stream ``(index, outcome)`` for every unit: cache hits first,
        then executions as their verdicts land. Closing the stream early
        kills the pool and drops the units not yet run."""
        pending: List[int] = []
        for index, unit in enumerate(units):
            if cache is not None:
                hit, value = cache.get(unit)
                if hit:
                    self.cache_hits += 1
                    yield index, UnitOutcome(unit, "ok", value=value, cached=True)
                    continue
            pending.append(index)
        if timeout is None and (self.jobs == 1 or len(pending) == 1):
            for index in pending:
                yield index, self._run_inline(units[index], cache)
        elif pending:
            yield from self._run_resilient(units, pending, cache, timeout)

    def _run_inline(self, unit: RunUnit, cache: Optional[ResultCache]) -> UnitOutcome:
        start = time.monotonic()
        try:
            value = execute_unit(unit)
        except Exception as exc:
            return UnitOutcome(
                unit, "error",
                error=self._render_error(exc),
                duration=time.monotonic() - start,
            )
        if cache is not None:
            cache.put(unit, value)  # checkpoint as results land
        return self._complete(unit, value, time.monotonic() - start)

    def _complete(self, unit: RunUnit, value: Any, duration: float) -> UnitOutcome:
        self.executed += 1
        return UnitOutcome(unit, "ok", value=value, duration=duration)

    @staticmethod
    def _render_error(exc: BaseException) -> str:
        return "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()

    @staticmethod
    def _kill_pool(pool: Executor) -> None:
        """Forcibly stop a pool whose workers may be hung or dead."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_resilient(
        self,
        units: List[RunUnit],
        pending: List[int],
        cache: Optional[ResultCache],
        timeout: Optional[float],
    ) -> _Stream:
        work = pending
        respawn_budget = DEFAULT_MAX_POOL_RESPAWNS
        while work:
            batch, work = work, []
            workers = min(self.jobs, len(batch))
            lost, broken = yield from self._run_batch(
                units, batch, cache, timeout, workers
            )
            if not broken:
                work = lost  # siblings of a timed-out unit: rerun normally
                continue
            # An unattributable worker death: some unit in `lost` (probably)
            # killed its process. Re-run them one-in-flight so the next
            # death indicts the unit that caused it.
            self.pool_respawns += 1
            if respawn_budget <= 0:
                for index in lost:
                    yield index, UnitOutcome(
                        units[index], "error",
                        error=(
                            "worker pool kept breaking "
                            f"(gave up after {self.pool_respawns} respawns)"
                        ),
                    )
                return
            respawn_budget -= 1
            for index in lost:
                sub_lost, _ = yield from self._run_batch(
                    units, [index], cache, timeout, workers=1
                )
                work.extend(sub_lost)  # single-in-flight: only submit losses

    def _run_batch(
        self,
        units: List[RunUnit],
        batch: List[int],
        cache: Optional[ResultCache],
        timeout: Optional[float],
        workers: int,
    ) -> Generator[Tuple[int, UnitOutcome], None, Tuple[List[int], bool]]:
        """Run one submission wave; returns (lost indices, pool broke?).

        Verdicts stream in submission order, but each success is cached as
        soon as its worker returns it: while the stream waits on one unit,
        every sibling that finishes meanwhile is stored. ``lost`` units were
        in flight when the pool had to be killed and carry no verdict; the
        caller decides how to re-run them. ``broken`` is True only for
        *unattributable* worker deaths (more than one unit in flight) —
        with a single unit in flight, a death is the unit's own error and
        is recorded directly.
        """
        # Imported per pool, so a --jobs 1 or warm run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [(pool.submit(execute_unit, units[index]), index) for index in batch]
        except BrokenExecutor:
            self._kill_pool(pool)
            return batch, len(batch) > 1
        running = {future: index for future, index in futures}

        def land(done) -> None:
            """Checkpoint each finished future's payload, once."""
            for future in done:
                index = running.pop(future, None)
                if index is None or cache is None or future.cancelled():
                    continue
                if future.exception() is None:
                    cache.put(units[index], future.result())

        def wait_for(future, timeout: Optional[float]) -> None:
            """Block until ``future`` finishes or ``timeout`` passes,
            landing every sibling that finishes first."""
            deadline = None if timeout is None else time.monotonic() + timeout
            while future in running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return
                land(wait(running, timeout=remaining, return_when=FIRST_COMPLETED).done)

        lost: List[int] = []
        broken = False
        dead = False
        try:
            for future, index in futures:
                unit = units[index]
                if dead:
                    # The pool is gone (timeout kill or worker death). A
                    # sibling that still managed a clean result keeps it;
                    # everything else is lost and re-run by the caller.
                    value = _salvage(future)
                    if value is _LOST:
                        lost.append(index)
                    else:
                        land([future])
                        yield index, self._complete(unit, value, 0.0)
                    continue
                start = time.monotonic()
                try:
                    wait_for(future, timeout)
                    value = future.result(timeout=0)
                except FutureTimeoutError:
                    self.unit_timeouts += 1
                    outcome = UnitOutcome(
                        unit, "timeout",
                        error=(
                            f"exceeded the per-unit timeout of {timeout:g}s; "
                            "its worker process was terminated"
                        ),
                        duration=time.monotonic() - start,
                    )
                    self._kill_pool(pool)
                    dead = True
                except BrokenExecutor:
                    self._kill_pool(pool)
                    dead = True
                    if len(futures) > 1:
                        broken = True
                        lost.append(index)
                        continue
                    outcome = UnitOutcome(
                        unit, "error",
                        error=(
                            "worker process died while executing this unit "
                            "(BrokenProcessPool — crash, os._exit or OOM kill)"
                        ),
                    )
                except Exception as exc:
                    outcome = UnitOutcome(
                        unit, "error",
                        error=self._render_error(exc),
                        duration=time.monotonic() - start,
                    )
                else:
                    outcome = self._complete(unit, value, time.monotonic() - start)
                yield index, outcome
        except BaseException:
            # KeyboardInterrupt, or the consumer closed the stream early
            # (``run`` at its first failure): keep what already finished,
            # then stop every worker now.
            if not dead:
                land([future for future in list(running) if future.done()])
                self._kill_pool(pool)
            raise
        if not dead:
            pool.shutdown(wait=True)
        return lost, broken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelRunner jobs={self.jobs} cache={self.cache!r} "
            f"hits={self.cache_hits} executed={self.executed} "
            f"timeouts={self.unit_timeouts} respawns={self.pool_respawns}>"
        )
