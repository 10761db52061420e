"""Applying a :class:`FaultSchedule` to a live network, deterministically.

The injector turns declarative faults into ordinary simulator callbacks,
so injected faults compose with traces and everything else that runs on
the kernel. Every apply/revert is recorded (for inspection and tests) and
counted into the network's metrics registry when one is attached.

State discipline per fault kind:

* ``outage``/``blackout`` — :meth:`Channel.fail` on entry,
  :meth:`Channel.restore` on exit; the channel's reference counting makes
  overlapping outages compose. A blackout additionally flushes both
  directions' queues on entry.
* ``loss_burst`` — a :class:`FaultLossOverlay` is installed (lazily, once)
  over the link's own loss model; each active burst pushes its probability,
  so overlapping bursts combine as independent processes.
* ``rtt_spike`` — adds to :attr:`Link.delay_offset` on entry, subtracts on
  exit (additive, so spikes stack).
* ``capacity`` — multiplies :attr:`Link.rate_factor` on entry, divides on
  exit (multiplicative, so collapses stack).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ScenarioError
from repro.net.channel import Channel
from repro.net.link import Link
from repro.net.loss import LossModel
from repro.faults.schedule import Fault, FaultSchedule


class FaultLossOverlay(LossModel):
    """Stacks transient burst-loss probabilities over a base loss model."""

    def __init__(self, base: LossModel) -> None:
        self.base = base
        self.active: List[float] = []
        self._store_rate()

    def push(self, probability: float) -> None:
        self.active.append(probability)
        self._store_rate()

    def pop(self, probability: float) -> None:
        self.active.remove(probability)
        self._store_rate()

    def _store_rate(self) -> None:
        """Base + active burst loss — steering cost estimates see the burst."""
        survive = 1.0
        for p in self.active:
            survive *= 1.0 - p
        extra = 1.0 - survive
        self.long_run_rate = 1.0 - (1.0 - self.base.long_run_rate) * (1.0 - extra)

    def should_drop(self, rng: random.Random, now: float) -> bool:
        if self.base.should_drop(rng, now):
            return True
        for p in self.active:
            if rng.random() < p:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultLossOverlay({self.base!r}, active={self.active})"


@dataclass
class AppliedFault:
    """One apply or revert action, recorded for inspection."""

    time: float
    action: str  # "apply" | "revert"
    description: str


class FaultInjector:
    """Arms a schedule against an :class:`~repro.core.api.HvcNetwork`."""

    def __init__(self, net, schedule: FaultSchedule) -> None:
        self.net = net
        self.schedule = schedule
        self.log: List[AppliedFault] = []
        #: Faults applied but not yet reverted, in apply order. The invariant
        #: monitor audits this against the channels' fault holds and the
        #: links' delay/rate/loss overlays (apply/revert balance law).
        self.active: List[Fault] = []
        self._armed = False
        obs = getattr(net, "obs", None)
        self.registry = obs.registry if obs is not None else None

    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every fault's apply/revert; validates channel names."""
        if self._armed:
            raise ScenarioError("fault schedule already armed")
        self._armed = True
        for fault in self.schedule:
            channel = self.net.channel_named(fault.channel)  # validates name
            if fault.start < self.net.sim.now:
                raise ScenarioError(
                    f"fault {fault.describe()} starts in the past "
                    f"(now={self.net.sim.now})"
                )
            self.net.sim.schedule_at(fault.start, self._apply, fault, channel)
            self.net.sim.schedule_at(fault.end, self._revert, fault, channel)
        return self

    # ------------------------------------------------------------------
    def _count(self, fault: Fault) -> None:
        if self.registry is not None:
            self.registry.counter(
                "faults.injected", kind=fault.kind, channel=fault.channel
            ).inc()

    def _record(self, action: str, fault: Fault) -> None:
        self.log.append(
            AppliedFault(self.net.sim.now, action, fault.describe())
        )

    def _links(self, channel: Channel) -> List[Link]:
        return [channel.uplink, channel.downlink]

    def _overlay_for(self, link: Link) -> FaultLossOverlay:
        if not isinstance(link.loss, FaultLossOverlay):
            link.loss = FaultLossOverlay(link.loss)
        return link.loss

    def _apply(self, fault: Fault, channel: Channel) -> None:
        self._record("apply", fault)
        self._count(fault)
        self.active.append(fault)
        if fault.kind in ("outage", "blackout"):
            if fault.kind == "blackout":
                for link in self._links(channel):
                    link.flush()
            channel.fail()
        elif fault.kind == "loss_burst":
            for link in self._links(channel):
                self._overlay_for(link).push(fault.severity)
        elif fault.kind == "rtt_spike":
            for link in self._links(channel):
                link.delay_offset += fault.severity
        elif fault.kind == "capacity":
            for link in self._links(channel):
                link.rate_factor *= fault.severity

    def _revert(self, fault: Fault, channel: Channel) -> None:
        self._record("revert", fault)
        self.active.remove(fault)
        if fault.kind in ("outage", "blackout"):
            channel.restore()
        elif fault.kind == "loss_burst":
            for link in self._links(channel):
                self._overlay_for(link).pop(fault.severity)
        elif fault.kind == "rtt_spike":
            for link in self._links(channel):
                link.delay_offset -= fault.severity
        elif fault.kind == "capacity":
            for link in self._links(channel):
                link.rate_factor /= fault.severity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector {len(self.schedule)} faults armed={self._armed}>"
