"""Process-pool fan-out with deterministic merge and crash tolerance.

``ParallelRunner.run(units)`` returns one result per unit **in input
order**, never completion order — so an experiment assembled from the
returned list is bit-identical whether it ran serially, on one worker, or
on sixteen. ``jobs=1`` executes inline in the calling process (no pool, no
pickling of results), which is also the default every experiment uses when
no runner is passed; the parallel path exists purely to cut wall-clock.

``run`` is *strict*: the first failing unit raises, pending futures are
cancelled, and the batch is abandoned — right for the paper experiments,
where a failure means the code is wrong and partial figures are worthless.

``run_outcomes`` is *resilient*: every unit gets a :class:`UnitOutcome`
(ok / error / timeout), so one bad scenario in a 200-run chaos campaign
cannot take down the other 199. It survives the failure modes a campaign of
adversarial scenarios actually produces:

* a unit raising — recorded with its traceback, optionally retried
  (``retries``) for flaky infrastructure errors;
* a unit hanging — a per-unit wall-clock ``timeout`` kills the worker pool
  (a stuck simulation cannot be interrupted any other way), records a
  ``timeout`` outcome, and respawns the pool for the remaining units;
* a worker process dying (the ``BrokenProcessPool`` family) — the pool is
  respawned and the units that were in flight are re-run one at a time, so
  the next death is attributable to the unit that caused it;
* ``KeyboardInterrupt`` — worker processes are terminated and the interrupt
  propagates; every unit that already completed has been written to the
  cache, so re-running the same batch resumes from that checkpoint and only
  executes the unfinished units.

Completed units are cached *as they finish* (not at batch end) precisely to
make that checkpoint/resume property hold.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import RunnerError, UnitTimeoutError
from repro.runner.cache import ResultCache
from repro.runner.units import RunUnit, execute_unit

#: How many unattributable pool deaths ``run_outcomes`` tolerates before
#: marking the remaining units as errors instead of respawning again. In
#: attributed (single-in-flight) mode a death indicts the unit itself and
#: does not count against this budget.
DEFAULT_MAX_POOL_RESPAWNS = 3


@dataclass
class UnitOutcome:
    """What happened to one unit under :meth:`ParallelRunner.run_outcomes`.

    ``status`` is ``"ok"`` (``value`` holds the payload), ``"error"``
    (``error`` holds the traceback or cause) or ``"timeout"`` (the unit
    exceeded the per-unit wall-clock budget and its worker was killed).
    ``attempts`` counts executions that ran to a verdict — re-runs of units
    merely *lost* to a sibling's pool kill do not increment it. ``cached``
    marks results served from the result cache without executing.
    """

    unit: RunUnit
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
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


@dataclass
class _WorkItem:
    """One unit's position in the resilient scheduler."""

    index: int
    attempts: int = 0


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
        reference execution mode the parallel path must match exactly.
    cache:
        Optional :class:`~repro.runner.cache.ResultCache`. Hits skip
        execution entirely; misses are stored after execution.
    timeout:
        Default per-unit wall-clock budget (seconds) for
        :meth:`run_outcomes`. Setting a timeout forces pool execution even
        with ``jobs=1`` — an inline unit cannot be preempted.
    retries:
        Default extra attempts :meth:`run_outcomes` grants a unit whose
        execution raised (timeouts are never retried: a hang is assumed
        deterministic and each retry would cost a full timeout).

    Attributes
    ----------
    cache_hits / executed:
        Per-runner counters across every run, used by the benchmarks to
        prove a warm rerun did no simulation work.
    retried / unit_timeouts / pool_respawns:
        Resilience counters: granted retries, pool kills due to per-unit
        timeouts, and unattributable worker-death respawns.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        max_pool_respawns: int = DEFAULT_MAX_POOL_RESPAWNS,
    ) -> None:
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise RunnerError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise RunnerError(f"retries must be >= 0, got {retries}")
        self.jobs = int(jobs)
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.max_pool_respawns = int(max_pool_respawns)
        self.cache_hits = 0
        self.executed = 0
        self.retried = 0
        self.unit_timeouts = 0
        self.pool_respawns = 0

    # ------------------------------------------------------------------
    # Strict execution (experiments): first failure raises
    # ------------------------------------------------------------------
    def run(self, units: Sequence[RunUnit], cached: bool = True) -> List[Any]:
        """Execute every unit; results align index-for-index with ``units``.

        Strict mode: the first failure raises :class:`RunnerError` after
        cancelling every not-yet-started unit — no point simulating the
        rest of a figure whose experiment code is broken.

        ``cached=False`` is for units whose output is more than their
        payload (a traced unit also writes a file): they are executed, and
        neither read from nor written to the cache.
        """
        units = list(units)
        cache = self.cache if cached else None
        results: List[Any] = [None] * len(units)
        pending: List[int] = []
        for index, unit in enumerate(units):
            if cache is not None:
                hit, value = cache.get(unit)
                if hit:
                    results[index] = value
                    self.cache_hits += 1
                    continue
            pending.append(index)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                computed = [self._execute(units[index]) for index in pending]
            else:
                computed = self._execute_pool([units[index] for index in pending])
            for index, value in zip(pending, computed):
                results[index] = value
                self.executed += 1
                if cache is not None:
                    cache.put(units[index], value)
        return results

    def run_one(self, unit: RunUnit, cached: bool = True) -> Any:
        return self.run([unit], cached=cached)[0]

    # ------------------------------------------------------------------
    # Resilient execution (campaigns): every unit gets an outcome
    # ------------------------------------------------------------------
    def run_outcomes(
        self,
        units: Sequence[RunUnit],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> List[UnitOutcome]:
        """Execute every unit; one :class:`UnitOutcome` per unit, in order.

        Never raises for unit failures (only for ``KeyboardInterrupt`` and
        programming errors in the runner itself). Successful results are
        cached the moment they complete, so an interrupted batch re-run
        resumes from its checkpoint: cached units come back instantly and
        only the unfinished ones execute again.
        """
        timeout = self.timeout if timeout is None else timeout
        retries = self.retries if retries is None else retries
        if timeout is not None and timeout <= 0:
            raise RunnerError(f"timeout must be positive, got {timeout}")
        units = list(units)
        outcomes: List[Optional[UnitOutcome]] = [None] * len(units)
        pending: List[int] = []
        for index, unit in enumerate(units):
            if self.cache is not None:
                hit, value = self.cache.get(unit)
                if hit:
                    outcomes[index] = UnitOutcome(unit, "ok", value=value, cached=True)
                    self.cache_hits += 1
                    continue
            pending.append(index)

        if pending:
            if timeout is None and (self.jobs == 1 or len(pending) == 1):
                for index in pending:
                    outcomes[index] = self._attempt_inline(units[index], retries)
            else:
                self._run_resilient(units, outcomes, pending, timeout, retries)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals — strict
    # ------------------------------------------------------------------
    @staticmethod
    def _execute(unit: RunUnit) -> Any:
        try:
            return execute_unit(unit)
        except RunnerError:
            raise
        except Exception as exc:
            raise RunnerError(f"unit {unit.key} failed: {exc}") from exc

    def _execute_pool(self, units: List[RunUnit]) -> List[Any]:
        workers = min(self.jobs, len(units))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            # Submission order == input order; gathering each future in that
            # same order makes the merge independent of completion order.
            futures = [pool.submit(execute_unit, unit) for unit in units]
            computed: List[Any] = []
            for unit, future in zip(units, futures):
                try:
                    computed.append(future.result())
                except RunnerError:
                    raise
                except Exception as exc:
                    raise RunnerError(f"unit {unit.key} failed in worker: {exc}") from exc
        except BaseException:
            # Strict mode stops at the first failure; drop everything that
            # has not started instead of simulating doomed siblings.
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return computed

    # ------------------------------------------------------------------
    # Internals — resilient
    # ------------------------------------------------------------------
    def _attempt_inline(self, unit: RunUnit, retries: int) -> UnitOutcome:
        attempts = 0
        while True:
            attempts += 1
            start = time.monotonic()
            try:
                value = execute_unit(unit)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                if attempts <= retries:
                    self.retried += 1
                    continue
                return UnitOutcome(
                    unit, "error",
                    error=self._render_error(exc),
                    attempts=attempts,
                    duration=time.monotonic() - start,
                )
            return self._complete(unit, value, attempts, time.monotonic() - start)

    def _complete(
        self, unit: RunUnit, value: Any, attempts: int, duration: float
    ) -> UnitOutcome:
        self.executed += 1
        if self.cache is not None:
            self.cache.put(unit, value)  # checkpoint as results land
        return UnitOutcome(unit, "ok", value=value, attempts=attempts, duration=duration)

    @staticmethod
    def _render_error(exc: BaseException) -> str:
        return "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
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
        outcomes: List[Optional[UnitOutcome]],
        pending: List[int],
        timeout: Optional[float],
        retries: int,
    ) -> None:
        work = deque(_WorkItem(index) for index in pending)
        respawn_budget = self.max_pool_respawns
        while work:
            batch = list(work)
            work.clear()
            workers = min(self.jobs, len(batch))
            lost, broken = self._run_batch(
                units, outcomes, batch, work, timeout, retries, workers
            )
            if not broken:
                work.extend(lost)  # siblings of a timed-out unit: rerun normally
                continue
            # An unattributable worker death: some unit in `lost` (probably)
            # killed its process. Re-run them one-in-flight so the next
            # death indicts the unit that caused it.
            self.pool_respawns += 1
            if respawn_budget <= 0:
                for item in lost + list(work):
                    outcomes[item.index] = UnitOutcome(
                        units[item.index], "error",
                        error=(
                            "worker pool kept breaking "
                            f"(gave up after {self.pool_respawns} respawns)"
                        ),
                        attempts=item.attempts,
                    )
                work.clear()
                return
            respawn_budget -= 1
            for item in lost:
                sub_lost, _ = self._run_batch(
                    units, outcomes, [item], work, timeout, retries, workers=1
                )
                work.extend(sub_lost)  # single-in-flight: only timeout losses

    def _run_batch(
        self,
        units: List[RunUnit],
        outcomes: List[Optional[UnitOutcome]],
        batch: List[_WorkItem],
        work: "deque[_WorkItem]",
        timeout: Optional[float],
        retries: int,
        workers: int,
    ) -> Tuple[List[_WorkItem], bool]:
        """Run one submission wave; returns (lost work items, pool broke?).

        ``lost`` items were in flight when the pool had to be killed and
        carry no verdict; the caller decides how to re-run them. ``broken``
        is True only for *unattributable* worker deaths (more than one unit
        in flight) — with a single unit in flight, a death is the unit's
        own error and is recorded directly.
        """
        pool = ProcessPoolExecutor(max_workers=workers)
        lost: List[_WorkItem] = []
        broken = False
        dead = False
        futures = []
        try:
            for item in batch:
                futures.append((pool.submit(execute_unit, units[item.index]), item))
        except BrokenExecutor:
            self._kill_pool(pool)
            return batch, len(batch) > 1
        try:
            for future, item in futures:
                index = item.index
                unit = units[index]
                if dead:
                    # The pool is gone (timeout kill or worker death). A
                    # sibling that still managed a clean result keeps it;
                    # everything else is lost and re-run by the caller.
                    value = _salvage(future)
                    if value is _LOST:
                        lost.append(item)
                    else:
                        outcomes[index] = self._complete(
                            unit, value, item.attempts + 1, 0.0
                        )
                    continue
                start = time.monotonic()
                try:
                    value = future.result(timeout=timeout)
                except FutureTimeoutError:
                    self.unit_timeouts += 1
                    outcomes[index] = UnitOutcome(
                        unit, "timeout",
                        error=(
                            f"exceeded the per-unit timeout of {timeout:g}s; "
                            "its worker process was terminated"
                        ),
                        attempts=item.attempts + 1,
                        duration=time.monotonic() - start,
                    )
                    self._kill_pool(pool)
                    dead = True
                except BrokenExecutor:
                    self._kill_pool(pool)
                    dead = True
                    if len(futures) == 1:
                        outcomes[index] = UnitOutcome(
                            unit, "error",
                            error=(
                                "worker process died while executing this unit "
                                "(BrokenProcessPool — crash, os._exit or OOM kill)"
                            ),
                            attempts=item.attempts + 1,
                        )
                    else:
                        broken = True
                        lost.append(item)
                except KeyboardInterrupt:
                    self._kill_pool(pool)
                    raise
                except Exception as exc:
                    item.attempts += 1
                    if item.attempts <= retries:
                        self.retried += 1
                        work.append(item)
                    else:
                        outcomes[index] = UnitOutcome(
                            unit, "error",
                            error=self._render_error(exc),
                            attempts=item.attempts,
                            duration=time.monotonic() - start,
                        )
                else:
                    outcomes[index] = self._complete(
                        unit, value, item.attempts + 1, time.monotonic() - start
                    )
        finally:
            if not dead:
                pool.shutdown(wait=True)
        return lost, broken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelRunner jobs={self.jobs} cache={self.cache!r} "
            f"hits={self.cache_hits} executed={self.executed} "
            f"retried={self.retried} timeouts={self.unit_timeouts} "
            f"respawns={self.pool_respawns}>"
        )
