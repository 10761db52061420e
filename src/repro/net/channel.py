"""Bidirectional channels: the HVC unit of steering.

A channel bundles an *uplink* (host A → host B) and a *downlink*
(host B → host A), plus steering-relevant metadata: monetary cost per byte,
a reliability flag (e.g. URLLC's five-nines / MLO-replicated service), and a
human-readable name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.errors import NetworkError
from repro.net.link import Link, LinkSpec
from repro.sim.kernel import Simulator

#: Index of the client (A) side of a channel.
END_A = 0
#: Index of the server (B) side of a channel.
END_B = 1


@dataclass
class DirectionSpec:
    """Per-direction shorthand that expands into a :class:`LinkSpec`."""

    rate_bps: float = 0.0
    delay: float = 0.0
    queue_bytes: int = 256_000
    loss: Optional[object] = None
    trace: Optional[object] = None
    priority_queue: bool = False

    def to_link_spec(self) -> LinkSpec:
        return LinkSpec(
            rate_bps=self.rate_bps,
            delay=self.delay,
            queue_bytes=self.queue_bytes,
            loss=self.loss,
            trace=self.trace,
            priority_queue=self.priority_queue,
        )


@dataclass
class ChannelSpec:
    """Full description of one HVC."""

    name: str
    up: DirectionSpec
    down: DirectionSpec
    #: Monetary cost of carrying one byte (for latency-vs-cost steering).
    cost_per_byte: float = 0.0
    #: Hint that the channel offers a reliability guarantee.
    reliable: bool = False

    @classmethod
    def symmetric(
        cls,
        name: str,
        rate_bps: float,
        one_way_delay: float,
        queue_bytes: int = 256_000,
        loss: Optional[object] = None,
        cost_per_byte: float = 0.0,
        reliable: bool = False,
    ) -> "ChannelSpec":
        """Identical characteristics in both directions.

        Note the two directions still get *separate* queues and loss-model
        instances must not be shared; pass a loss factory result per call if
        the model is stateful (handled by :class:`Channel`, which never
        shares one instance across directions — supply distinct instances
        via explicit up/down specs when using stateful loss).
        """
        up = DirectionSpec(rate_bps=rate_bps, delay=one_way_delay, queue_bytes=queue_bytes, loss=loss)
        down = DirectionSpec(rate_bps=rate_bps, delay=one_way_delay, queue_bytes=queue_bytes, loss=loss)
        return cls(name=name, up=up, down=down, cost_per_byte=cost_per_byte, reliable=reliable)


class Channel:
    """A live bidirectional channel between host ends A and B."""

    def __init__(
        self,
        sim: Simulator,
        spec: ChannelSpec,
        index: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.index = index
        rng = rng if rng is not None else random.Random(index)
        self.uplink = Link(sim, spec.up.to_link_spec(), name=f"{spec.name}.up", rng=rng)
        self.downlink = Link(sim, spec.down.to_link_spec(), name=f"{spec.name}.down", rng=rng)
        #: Active fault holds (:meth:`fail`/:meth:`restore`). Reference
        #: counting is what makes overlapping outages compose: the channel
        #: is up only when *every* hold has been released.
        self._down_refs = 0
        #: Observers called as ``fn(channel, up, now)`` on every up/down
        #: *transition* (redundant holds do not re-fire).
        self.on_transition: List[Callable[["Channel", bool, float], None]] = []
        #: Host views whose ``up`` slot :meth:`_apply_state` writes.
        self._views: list = []
        #: Down/up bookkeeping for resilience metrics.
        self.outage_count = 0
        self.downtime_total = 0.0
        self.last_down_at: Optional[float] = None
        self.last_up_at: float = 0.0
        #: Total bytes billed on this channel (both directions).
        self.cost_bytes = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def out_link(self, end: int) -> Link:
        """The link a host at ``end`` transmits on."""
        if end == END_A:
            return self.uplink
        if end == END_B:
            return self.downlink
        raise NetworkError(f"channel end must be {END_A} or {END_B}, got {end}")

    def in_link(self, end: int) -> Link:
        """The link a host at ``end`` receives from."""
        return self.out_link(END_B if end == END_A else END_A)

    def base_rtt(self) -> float:
        """Propagation-only round-trip time right now."""
        return self.uplink.current_delay() + self.downlink.current_delay()

    @property
    def up(self) -> bool:
        """Up iff no fault holds it down."""
        return self._down_refs == 0

    @property
    def fault_holds(self) -> int:
        """Outstanding :meth:`fail` holds (the invariant monitor audits
        this against the injector's set of active outage faults)."""
        return self._down_refs

    def fail(self) -> None:
        """Acquire one fault hold (the channel goes down if it was up)."""
        was_up = self.up
        self._down_refs += 1
        self._apply_state(was_up)

    def restore(self) -> None:
        """Release one fault hold (up again once all holds are released)."""
        if self._down_refs <= 0:
            raise NetworkError(f"channel {self.name!r}: restore() without fail()")
        was_up = self.up
        self._down_refs -= 1
        self._apply_state(was_up)

    def _apply_state(self, was_up: bool) -> None:
        now_up = self.up
        self.uplink.up = now_up
        self.downlink.up = now_up
        for view in self._views:
            view.up = now_up
        if now_up == was_up:
            return
        now = self.sim.now
        if now_up:
            self.last_up_at = now
            if self.last_down_at is not None:
                self.downtime_total += now - self.last_down_at
                self.last_down_at = None
        else:
            self.outage_count += 1
            self.last_down_at = now
        for hook in self.on_transition:
            hook(self, now_up, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.index}:{self.name} rtt={self.base_rtt() * 1e3:.1f}ms>"
