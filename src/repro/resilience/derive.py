"""Derive fault schedules from trace discontinuities.

A :class:`~repro.traces.model.NetworkTrace` already encodes the disruption
events the paper cares about — it just encodes them as rate/delay samples
instead of faults. This module recovers them:

* **dead intervals** — maximal runs of samples at (or below) a dead-rate
  threshold. These are true connectivity gaps (LEO handoffs, radio
  re-association) and map to ``outage`` faults whose endpoints sit exactly
  on the trace's sample grid.
* **rate collapses** — sustained runs below a fraction of the healthy
  median rate (mmWave blockage, deep fades) → ``capacity`` faults whose
  severity is the observed rate ratio.
* **delay spikes** — sustained runs above a multiple of the median one-way
  delay (bufferbloat excursions, path stretch after a handoff) →
  ``rtt_spike`` faults whose severity is the mean *excess* delay.

Each detector excludes samples claimed by a stronger one (dead beats
collapse beats spike) so the derived faults never double-count a window.
The schedule targets a channel name (default: the trace's own name), so
arming it against a same-named channel replays the trace's weather on any
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Type

from repro.errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule
    from repro.traces.model import NetworkTrace


@dataclass(frozen=True)
class DeadInterval:
    """One maximal run of dead (or degraded) samples, ``[start, end)``."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_end(trace: "NetworkTrace", index: int) -> float:
    """The time at which sample ``index`` stops applying."""
    if index + 1 < len(trace.times):
        return trace.times[index + 1]
    return trace.duration


def _runs(flags: Sequence[bool]) -> List[Tuple[int, int]]:
    """Maximal ``[i, j)`` index runs where ``flags`` is true."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(flags)))
    return runs


def dead_intervals(
    trace: "NetworkTrace", dead_rate_bps: float = 0.0
) -> List[DeadInterval]:
    """Maximal intervals where the trace rate is <= ``dead_rate_bps``.

    Interval endpoints lie exactly on the trace's sample grid: an interval
    starts at its first dead sample's time and ends where the next live
    sample takes over (or at ``trace.duration`` for a trailing run).
    """
    if dead_rate_bps < 0:
        raise ScenarioError(f"dead_rate_bps must be >= 0, got {dead_rate_bps}")
    flags = [rate <= dead_rate_bps for rate in trace.rates_bps]
    return [
        DeadInterval(trace.times[i], _sample_end(trace, j - 1))
        for i, j in _runs(flags)
    ]


def _healthy_median(values: Sequence[float], excluded: Sequence[bool]) -> float:
    healthy = sorted(v for v, dead in zip(values, excluded) if not dead)
    if not healthy:
        return 0.0
    mid = len(healthy) // 2
    if len(healthy) % 2:
        return healthy[mid]
    return 0.5 * (healthy[mid - 1] + healthy[mid])


def collapse_intervals(
    trace: "NetworkTrace",
    collapse_frac: float = 0.25,
) -> List[Tuple[DeadInterval, float]]:
    """Sustained rate collapses: (interval, severity) pairs.

    A sample collapses when its rate is below ``collapse_frac`` times the
    median of the *healthy* (non-zero-rate) samples; dead samples never
    count (they are outages, not collapses). Severity is the run's mean
    rate over the reference, clamped into the open interval a ``capacity``
    fault accepts.
    """
    if not 0.0 < collapse_frac < 1.0:
        raise ScenarioError(f"collapse_frac must be in (0,1), got {collapse_frac}")
    dead = [rate <= 0.0 for rate in trace.rates_bps]
    reference = _healthy_median(trace.rates_bps, dead)
    if reference <= 0.0:
        return []
    threshold = collapse_frac * reference
    flags = [
        (not is_dead) and rate < threshold
        for rate, is_dead in zip(trace.rates_bps, dead)
    ]
    out: List[Tuple[DeadInterval, float]] = []
    for i, j in _runs(flags):
        run_mean = sum(trace.rates_bps[i:j]) / (j - i)
        severity = min(max(run_mean / reference, 1e-6), 1.0 - 1e-6)
        out.append((DeadInterval(trace.times[i], _sample_end(trace, j - 1)), severity))
    return out


def delay_spike_intervals(
    trace: "NetworkTrace",
    delay_spike_factor: float = 3.0,
    min_spike_s: float = 0.02,
) -> List[Tuple[DeadInterval, float]]:
    """Sustained delay excursions: (interval, mean excess delay) pairs.

    A sample spikes when its one-way delay exceeds ``delay_spike_factor``
    times the healthy median *and* the excess clears ``min_spike_s`` (so a
    3x excursion on a 2 ms baseline is noise, not a fault). Dead (zero-rate)
    samples are excluded — their delay is unobservable in a real trace.
    """
    if delay_spike_factor <= 1.0:
        raise ScenarioError(
            f"delay_spike_factor must be > 1, got {delay_spike_factor}"
        )
    if min_spike_s <= 0:
        raise ScenarioError(f"min_spike_s must be positive, got {min_spike_s}")
    dead = [rate <= 0.0 for rate in trace.rates_bps]
    reference = _healthy_median(trace.delays, dead)
    if reference <= 0.0:
        return []
    threshold = max(delay_spike_factor * reference, reference + min_spike_s)
    flags = [
        (not is_dead) and delay > threshold
        for delay, is_dead in zip(trace.delays, dead)
    ]
    out: List[Tuple[DeadInterval, float]] = []
    for i, j in _runs(flags):
        excess = sum(trace.delays[i:j]) / (j - i) - reference
        out.append((DeadInterval(trace.times[i], _sample_end(trace, j - 1)), excess))
    return out


def schedule_from_trace(
    trace: "NetworkTrace",
    channel: Optional[str] = None,
    schedule_cls: Optional[Type["FaultSchedule"]] = None,
) -> "FaultSchedule":
    """Build the full derived schedule (outages + collapses + spikes).

    This is the engine behind :meth:`FaultSchedule.from_trace`; prefer that
    entry point. The derived outage intervals match
    :func:`dead_intervals` exactly — round-trip tested.
    """
    if schedule_cls is None:
        from repro.faults.schedule import FaultSchedule as schedule_cls  # noqa: N813

    target = channel if channel is not None else trace.name
    schedule = schedule_cls()
    for interval in dead_intervals(trace):
        schedule.outage(target, interval.start, interval.duration)
    for interval, severity in collapse_intervals(trace):
        schedule.capacity_collapse(target, interval.start, interval.duration, severity)
    for interval, excess in delay_spike_intervals(trace):
        schedule.rtt_spike(target, interval.start, interval.duration, excess)
    return schedule
