"""Composable, declarative fault schedules.

A :class:`FaultSchedule` is an ordered set of :class:`Fault` records — plain
data, picklable and hashable, so experiments can put schedules into
:class:`~repro.runner.RunUnit` parameters and the result cache keys stay
content-addressed. The :class:`~repro.faults.injector.FaultInjector` turns a
schedule into simulator events against a live network.

Fault kinds (severity semantics per kind):

========== =========================================================
kind        meaning
========== =========================================================
outage      channel down for ``duration``
blackout    outage that also *flushes* the channel's queued packets on
            entry (handover semantics: the old cell's buffers are gone)
loss_burst  extra Bernoulli loss of ``severity`` on both directions
rtt_spike   ``severity`` seconds added to both one-way delays
capacity    both direction rates multiplied by ``severity`` (< 1)
========== =========================================================

Schedules compose: builder calls append and may overlap freely (outages are
reference-counted by the channel; loss bursts stack probabilistically;
capacity factors multiply). :meth:`FaultSchedule.random` draws a seeded
random schedule — the deterministic "weather" used by the resilience
experiments.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (traces ↔ faults)
    from repro.traces.model import NetworkTrace

from repro.errors import ScenarioError

#: Valid fault kinds.
KINDS = ("outage", "blackout", "loss_burst", "rtt_spike", "capacity")


def _finite_number(value) -> bool:
    """A finite real that is not a ``bool`` (``True`` would run as 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True, order=True)
class Fault:
    """One scheduled fault against one channel (plain data, picklable)."""

    start: float
    channel: str
    kind: str
    duration: float
    severity: float = 0.0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if not isinstance(self.channel, str):
            raise ScenarioError(f"fault channel must be a name, got {self.channel!r}")
        for name in ("start", "duration", "severity"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ScenarioError(f"fault {name} must be a finite number, got {value!r}")
        if self.start < 0:
            raise ScenarioError(f"fault start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ScenarioError(f"fault duration must be positive, got {self.duration}")
        if self.kind == "loss_burst" and not 0.0 < self.severity < 1.0:
            raise ScenarioError(f"loss_burst severity must be in (0,1), got {self.severity}")
        if self.kind == "rtt_spike" and self.severity <= 0:
            raise ScenarioError(f"rtt_spike severity must be positive, got {self.severity}")
        if self.kind == "capacity" and not 0.0 < self.severity < 1.0:
            # A full stall is an outage; keeping the factor positive lets
            # overlapping collapses stack multiplicatively and revert cleanly.
            raise ScenarioError(f"capacity severity must be in (0,1), got {self.severity}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def describe(self) -> str:
        extra = f" sev={self.severity:g}" if self.severity else ""
        return f"{self.kind}@{self.channel} [{self.start:g},{self.end:g}){extra}"


class FaultSchedule:
    """An ordered, composable collection of faults."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: List[Fault] = []
        for fault in faults:
            fault.validate()
            self.faults.append(fault)
        self.faults.sort()

    # -- builders (chainable) -------------------------------------------
    def _add(self, fault: Fault) -> "FaultSchedule":
        fault.validate()
        self.faults.append(fault)
        self.faults.sort()
        return self

    def outage(self, channel: str, start: float, duration: float) -> "FaultSchedule":
        """Channel down over ``[start, start+duration)``."""
        return self._add(Fault(start, channel, "outage", duration))

    def blackout(self, channel: str, start: float, duration: float) -> "FaultSchedule":
        """Handover blackout: outage + queued packets flushed on entry."""
        return self._add(Fault(start, channel, "blackout", duration))

    def loss_burst(
        self, channel: str, start: float, duration: float, loss: float = 0.3
    ) -> "FaultSchedule":
        """Extra Bernoulli loss probability on both directions."""
        return self._add(Fault(start, channel, "loss_burst", duration, loss))

    def rtt_spike(
        self, channel: str, start: float, duration: float, extra_delay: float = 0.1
    ) -> "FaultSchedule":
        """``extra_delay`` seconds added to each one-way propagation delay."""
        return self._add(Fault(start, channel, "rtt_spike", duration, extra_delay))

    def capacity_collapse(
        self, channel: str, start: float, duration: float, factor: float = 0.1
    ) -> "FaultSchedule":
        """Rates multiplied by ``factor`` in (0, 1); use an outage to stall."""
        return self._add(Fault(start, channel, "capacity", duration, factor))

    def correlated(
        self,
        channels: Sequence[str],
        start: float,
        duration: float,
        kind: str = "outage",
        stagger: float = 0.0,
        severity: float = 0.0,
    ) -> "FaultSchedule":
        """The same fault on several channels, optionally staggered.

        Models shared-fate events (one mast carrying both carriers, a tunnel
        swallowing every radio): ``stagger`` seconds between consecutive
        channels' onsets, 0 for simultaneous failure.
        """
        for i, channel in enumerate(channels):
            self._add(Fault(start + i * stagger, channel, kind, duration, severity))
        return self

    # -- inspection ------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Time by which every fault has been reverted."""
        return max((f.end for f in self.faults), default=0.0)

    def to_params(self) -> List[Tuple[float, str, str, float, float]]:
        """Primitive-tuple form, safe inside :class:`RunUnit` params."""
        return [
            (f.start, f.channel, f.kind, f.duration, f.severity) for f in self.faults
        ]

    @classmethod
    def from_params(cls, rows: Iterable[Sequence]) -> "FaultSchedule":
        return cls(Fault(r[0], r[1], r[2], r[3], r[4]) for r in rows)

    def to_json(self) -> str:
        """Stable JSON form; :meth:`from_json` inverts it exactly."""
        rows = [
            {
                "start": f.start,
                "channel": f.channel,
                "kind": f.kind,
                "duration": f.duration,
                "severity": f.severity,
            }
            for f in self.faults
        ]
        return json.dumps({"faults": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            payload = json.loads(text)
            rows = payload["faults"]
            faults = [
                Fault(r["start"], r["channel"], r["kind"], r["duration"], r["severity"])
                for r in rows
            ]
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise ScenarioError(f"malformed fault-schedule JSON: {exc}") from exc
        return cls(faults)

    def clipped(self, horizon: float) -> "FaultSchedule":
        """A new schedule keeping only faults fully reverted by ``horizon``.

        Experiments with short (quick-mode) durations use this to avoid
        arming faults whose revert events would land past the simulation
        end and leave channels down at teardown.
        """
        if horizon <= 0:
            raise ScenarioError(f"clip horizon must be positive, got {horizon}")
        return FaultSchedule(f for f in self.faults if f.end <= horizon)

    # -- trace derivation ------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: "NetworkTrace",
        channel: Optional[str] = None,
    ) -> "FaultSchedule":
        """Derive a fault schedule from a trace's discontinuities.

        Dead intervals (rate 0) become ``outage`` faults aligned exactly to
        the trace's sample grid; sustained rate collapses below a quarter
        of the healthy median become ``capacity`` faults; delay excursions
        above 3x the median one-way delay (and 20 ms) become ``rtt_spike``
        faults. The schedule targets ``channel`` (default: the trace's own
        name), so any catalog trace doubles as a fault campaign against a
        same-named channel.
        """
        from repro.resilience.derive import schedule_from_trace

        return schedule_from_trace(trace, channel=channel, schedule_cls=cls)

    # -- random generation ----------------------------------------------
    @classmethod
    def random(
        cls,
        channels: Sequence[str],
        duration: float,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        outage_rate: float = 0.05,
        outage_mean: float = 1.0,
        loss_burst_rate: float = 0.05,
        loss_burst_mean: float = 2.0,
        loss_burst_severity: float = 0.3,
        rtt_spike_rate: float = 0.0,
        rtt_spike_mean: float = 1.0,
        rtt_spike_delay: float = 0.1,
        blackout_rate: float = 0.0,
        blackout_mean: float = 0.5,
        capacity_rate: float = 0.0,
        capacity_mean: float = 1.0,
        capacity_factor: float = 0.2,
    ) -> "FaultSchedule":
        """Draw a Poisson fault process per channel, deterministically.

        ``*_rate`` are events per second; ``*_mean`` the mean of the
        exponential duration. The same ``seed`` always produces the same
        schedule — random weather, reproducible runs. Blackout and capacity
        processes default to off so existing callers' draws are unchanged.
        """
        if duration <= 0:
            raise ScenarioError(f"schedule duration must be positive, got {duration}")
        rng = rng if rng is not None else random.Random(seed)
        schedule = cls()
        for channel in channels:
            for rate, mean, kind, severity in (
                (outage_rate, outage_mean, "outage", 0.0),
                (loss_burst_rate, loss_burst_mean, "loss_burst", loss_burst_severity),
                (rtt_spike_rate, rtt_spike_mean, "rtt_spike", rtt_spike_delay),
                (blackout_rate, blackout_mean, "blackout", 0.0),
                (capacity_rate, capacity_mean, "capacity", capacity_factor),
            ):
                if rate <= 0:
                    continue
                t = rng.expovariate(rate)
                while t < duration:
                    length = max(1e-3, rng.expovariate(1.0 / mean))
                    schedule._add(Fault(t, channel, kind, length, severity))
                    t += length + rng.expovariate(rate)
        return schedule

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {len(self.faults)} faults horizon={self.horizon:g}s>"
