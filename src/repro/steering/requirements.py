"""Per-tenant requirement classes (Hercules, arXiv:2403.00590).

Hercules argues that at fleet scale the useful abstraction is not "which
channel does this packet take" but "what does this *tenant* require" —
each flow declares a requirement class and the system maps the class onto
channels and congestion behaviour. This module is that catalogue:

* ``latency``     — interactive RPCs, game state: lowest base RTT wins.
* ``throughput``  — bulk sync, video upload: widest pipe wins.
* ``deadline``    — uploads with a due time: reliable first, then fast.
* ``background``  — prefetch, telemetry: cheapest channel, back off early.

A class carries (a) the channel preference used when a tenant (fluid or
packet-level) is assigned to a channel, (b) the flow priority its foreground
flows are opened with (the ``flow_priority=`` hint of §3.3), and (c) the
congestion "manners" the fluid background engine applies (how much of the
link the class lets itself consume, and how hard it backs off when the
channel is loaded past that target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SteeringError
from repro.steering.base import Steerer

#: Flow category -> flow priority (lower = more important). ``background``
#: never takes the scarce low-latency channel: Table 1's "DChannel w.
#: priority" hint.
FLOW_PRIORITIES = {
    "interactive": 0,
    "realtime": 0,
    "bulk": 1,
    "background": 2,
}


@dataclass(frozen=True)
class ChannelTraits:
    """The per-channel facts a requirement class ranks by.

    A deliberately tiny, engine-agnostic view: the fluid background engine
    builds these from :class:`~repro.net.channel.Channel` specs and the
    packet-level world builds them from
    :class:`~repro.net.node.ChannelView`, so both engines make the *same*
    assignment decision for the same world state.
    """

    index: int
    up: bool
    base_rtt: float
    capacity_bps: float
    cost_per_byte: float
    reliable: bool


@dataclass(frozen=True)
class RequirementClass:
    """One Hercules-style requirement class."""

    name: str
    #: Flow category (a :data:`FLOW_PRIORITIES` key) whose priority
    #: foreground flows of this class pass as ``flow_priority=``.
    intent_category: str
    #: Ranking key: smaller tuple = better channel.
    rank: Callable[[ChannelTraits], Tuple]
    #: Fraction of channel capacity at which fluid tenants of this class
    #: start backing off (delay-sensitive classes yield before the queue
    #: builds; loss-driven classes push to the brim).
    load_target: float
    #: Multiplicative backoff aggressiveness in the fluid model (the
    #: AIMD "beta" analogue, applied per RTT of sustained overload).
    backoff: float

    @property
    def flow_priority(self) -> int:
        return FLOW_PRIORITIES[self.intent_category]

    def choose(
        self,
        traits: Sequence[ChannelTraits],
        preferred: Optional[Sequence[int]] = None,
    ) -> ChannelTraits:
        """Best up channel for this class; raises when none is up.

        ``preferred`` restricts the choice to those channel indices (an
        operator pin, e.g. "deadline traffic stays off LEO"). It must be
        validated non-empty by the caller — see
        :func:`validate_preferred_channels` — so an empty set can never
        silently degrade to "first channel wins".
        """
        alive = [t for t in traits if t.up]
        if preferred is not None:
            allowed = set(preferred)
            alive = [t for t in alive if t.index in allowed]
        if not alive:
            raise SteeringError("no channel is up")
        return min(alive, key=self.rank)


#: The catalogue. Ordering of the rank tuples:
#:  latency    — smallest propagation RTT, capacity as tiebreak.
#:  throughput — widest pipe, RTT as tiebreak.
#:  deadline   — reliable channels first, then fastest completion proxy.
#:  background — cheapest $/byte first, then widest, and *never* the
#:               scarce lowest-RTT channel while another is up (the §3.3
#:               lesson: two background flows cost 138 ms of web PLT by
#:               squatting on URLLC).
REQUIREMENT_CLASSES: Dict[str, RequirementClass] = {
    "latency": RequirementClass(
        name="latency",
        intent_category="interactive",
        rank=lambda t: (t.base_rtt, -t.capacity_bps),
        load_target=0.85,
        backoff=0.25,
    ),
    "throughput": RequirementClass(
        name="throughput",
        intent_category="bulk",
        rank=lambda t: (-t.capacity_bps, t.base_rtt),
        load_target=1.0,
        backoff=0.35,
    ),
    "deadline": RequirementClass(
        name="deadline",
        intent_category="realtime",
        rank=lambda t: (not t.reliable, t.base_rtt, -t.capacity_bps),
        load_target=0.95,
        backoff=0.3,
    ),
    "background": RequirementClass(
        name="background",
        intent_category="background",
        rank=lambda t: (t.cost_per_byte, -t.capacity_bps, -t.base_rtt),
        load_target=0.8,
        backoff=0.5,
    ),
}


def requirement_class(name: str) -> RequirementClass:
    try:
        return REQUIREMENT_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(REQUIREMENT_CLASSES))
        raise SteeringError(
            f"unknown requirement class {name!r}; known: {known}"
        ) from None


def validate_preferred_channels(
    preferred: Optional[Dict[str, Sequence[int]]]
) -> Dict[str, Tuple[int, ...]]:
    """Validate a class-name -> preferred-channel-indices mapping.

    Rejects unknown class names and — the config hazard this guards —
    a class whose preferred set is *empty*. Before this check, an empty
    set fell through ranking and silently pinned the class to channel 0,
    which is exactly the misconfiguration (background traffic squatting
    on URLLC) that §3.3 measures. The error names the offending class.
    """
    if not preferred:
        return {}
    validated: Dict[str, Tuple[int, ...]] = {}
    for class_name, indices in preferred.items():
        requirement_class(class_name)  # unknown names raise here
        channels = tuple(indices)
        if not channels:
            raise SteeringError(
                f"requirement class {class_name!r} has an empty preferred "
                "channel set; list at least one channel index or omit the "
                "class to allow all channels"
            )
        validated[class_name] = channels
    return validated


def traits_of_channels(channels) -> List[ChannelTraits]:
    """Build :class:`ChannelTraits` from :class:`~repro.net.channel.Channel`s.

    Capacity/RTT come from the data direction the fleet background uses
    (uplink — client-side data, matching foreground connections) and the
    channel's advertised base RTT.
    """
    return [
        ChannelTraits(
            index=channel.index,
            up=channel.up,
            base_rtt=channel.base_rtt(),
            capacity_bps=channel.uplink.capacity_bps(),
            cost_per_byte=channel.spec.cost_per_byte,
            reliable=channel.spec.reliable,
        )
        for channel in channels
    ]


def traits_of_views(views) -> List[ChannelTraits]:
    """Build :class:`ChannelTraits` from steering's ``ChannelView`` list.

    Capacity is the raw link capacity (before background subtraction) so a
    packet-level flow and a fluid tenant looking at the same world rank
    the channels identically.
    """
    return [
        ChannelTraits(
            index=view.index,
            up=view.up,
            base_rtt=view.base_rtt,
            capacity_bps=view.capacity_bps,
            cost_per_byte=view.cost_per_byte,
            reliable=view.reliable,
        )
        for view in views
    ]


class RequirementPinnedSteerer(Steerer):
    """Steer every packet of a flow to its requirement class's channel.

    The packet-level twin of the fluid engine's tenant assignment: both
    call :meth:`RequirementClass.choose` over the same
    :class:`ChannelTraits`, so a flow run as real packets lands on the
    same channel its fluid approximation would — the property the
    hybrid-vs-packet validation suite depends on.

    Flows are registered up front (``flow_classes``: flow id -> class
    name); unregistered flows fall back to ``"throughput"``. The pin is
    re-evaluated only when the pinned channel is down, mirroring the
    fluid engine's outage reassignment.
    """

    name = "requirement-pinned"

    def __init__(
        self,
        flow_classes: Optional[Dict[int, str]] = None,
        preferred_channels: Optional[Dict[str, Sequence[int]]] = None,
    ) -> None:
        self.flow_classes = dict(flow_classes or {})
        #: Optional operator pins: class name -> allowed channel indices.
        #: Validated eagerly — an empty set is a config error, not a
        #: silent fall-through to channel 0.
        self.preferred_channels = validate_preferred_channels(preferred_channels)
        self._pins: Dict[int, int] = {}

    def assign(self, flow_id: int, class_name: str) -> None:
        """Register (or change) a flow's requirement class."""
        requirement_class(class_name)  # validate eagerly
        self.flow_classes[flow_id] = class_name
        self._pins.pop(flow_id, None)

    def choose(self, packet, views, now: float) -> Sequence[int]:
        pinned = self._pins.get(packet.flow_id)
        if pinned is not None:
            for view in views:
                if view.index == pinned and view.up:
                    return (pinned,)
        rclass = requirement_class(
            self.flow_classes.get(packet.flow_id, "throughput")
        )
        chosen = rclass.choose(
            traits_of_views(views),
            preferred=self.preferred_channels.get(rclass.name),
        ).index
        self._pins[packet.flow_id] = chosen
        return (chosen,)


def assignment_table(
    classes: Sequence[str],
    channels,
    preferred: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, Optional[int]]:
    """class name -> chosen channel index for the current up-set.

    ``None`` when no channel is up (total blackout): tenants hold their
    bytes and make no progress until a channel returns. ``preferred``
    optionally restricts classes to channel subsets; an empty subset is a
    config error (raised, with the class name) — not a silent fallback.
    """
    pins = validate_preferred_channels(preferred)
    traits = traits_of_channels(channels)
    table: Dict[str, Optional[int]] = {}
    for name in classes:
        rclass = requirement_class(name)
        try:
            table[name] = rclass.choose(
                traits, preferred=pins.get(rclass.name)
            ).index
        except SteeringError:
            table[name] = None
    return table
