"""Receiver-side resequencing buffer (DChannel's shim reorder protection).

Splitting one flow's packets across channels with very different delays
re-orders them, and a SACK-based transport misreads the resulting holes as
loss. DChannel's shim therefore restores per-flow order at the receiver
before handing packets up, holding early arrivals until their predecessors
land or a timeout expires (the predecessor was genuinely lost).

Only in-order transports need this, so the device applies it to reliable
DATA packets; pure control packets (cumulative ACKs are order-tolerant) and
real-time datagrams bypass the buffer — holding them would destroy exactly
the acceleration steering buys.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.net.packet import Packet
from repro.sim.events import Event
from repro.sim.kernel import Simulator

DEFAULT_HOLD_TIMEOUT = 0.08
#: Safety valve: flush if a flow accumulates this many held packets.
MAX_HELD_PACKETS = 2048

#: Debug fault: when True, :meth:`Resequencer._drain` releases the first
#: drained packet twice. Exists purely so the invariant monitor's
#: no-duplicate-release law can be demonstrated against a real violation
#: (``python -m repro chaos --seed-bug reseq-double-release``); never set
#: in production code paths.
DEBUG_DOUBLE_RELEASE = False


class _FlowState:
    """Everything the resequencer tracks for one flow."""

    __slots__ = ("expected", "held", "chan_max", "chan_count", "flush_event")

    def __init__(self) -> None:
        self.expected = 0
        #: shim_seq → (packet, deadline), in arrival order. Deadlines are
        #: ``now + timeout``, so the first entry carries the earliest.
        self.held: Dict[int, Tuple[Packet, float]] = {}
        #: channel → highest shim_seq delivered on that channel. Channels
        #: are FIFO, so once *every* channel the flow uses has delivered
        #: beyond seq s, a missing s is provably lost and its hole can be
        #: flushed immediately instead of waiting out the timeout (the
        #: timeout remains as a backstop for idle channels).
        self.chan_max: Dict[int, int] = {}
        #: Channel count advertised by the sender's shim; the FIFO proof
        #: needs delivery evidence from this many channels.
        self.chan_count = 1
        self.flush_event: Optional[Event] = None


class Resequencer:
    """Per-flow in-order delivery with a hold timeout."""

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Packet], None],
        timeout: float = DEFAULT_HOLD_TIMEOUT,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.sim = sim
        self.deliver = deliver
        self.timeout = timeout
        self._flows: Dict[int, _FlowState] = {}
        self.packets_held = 0
        self.timeout_flushes = 0

    def push(self, packet: Packet) -> None:
        """Offer a packet; it is delivered now or once order permits."""
        seq = packet.shim_seq
        if seq is None:
            self.deliver(packet)
            return
        state = self._flows.get(packet.flow_id)
        if state is None:
            state = self._flows[packet.flow_id] = _FlowState()
        channel = packet.channel_index
        if channel is not None:
            previous = state.chan_max.get(channel)
            if previous is None or seq > previous:
                state.chan_max[channel] = seq
        if packet.shim_channel_count > state.chan_count:
            state.chan_count = packet.shim_channel_count
        expected = state.expected
        held = state.held
        if seq < expected:
            # A straggler whose hole was already flushed: pass it through.
            self.deliver(packet)
        elif seq == expected:
            self.deliver(packet)
            state.expected = expected + 1
            if held:
                self._drain(state)
        elif seq not in held:  # else: duplicate copy of a held packet
            self.packets_held += 1
            held[seq] = (packet, self.sim.now + self.timeout)
            if len(held) > MAX_HELD_PACKETS:
                self._flush_through(state, min(held))
            self._flush_proven_losses(state)
            self._schedule_flush(state)

    # ------------------------------------------------------------------
    def _flush_proven_losses(self, state: _FlowState) -> None:
        """Flush holes below every channel's delivery high-water mark.

        Valid only once every channel the sender's shim has used for this
        flow has delivered something — a channel with no deliveries yet may
        still be carrying the missing packets.
        """
        marks = state.chan_max
        if not marks or len(marks) < state.chan_count:
            return
        safe = min(marks.values())
        if state.expected <= safe:
            self._flush_through(state, safe)

    @property
    def pending_count(self) -> int:
        """Packets currently held across every flow (audit hook)."""
        return sum(len(state.held) for state in self._flows.values())

    def _drain(self, state: _FlowState) -> None:
        held = state.held
        if not held:
            return
        expected = state.expected
        first = True
        while expected in held:
            packet, _ = held.pop(expected)
            self.deliver(packet)
            if first and DEBUG_DOUBLE_RELEASE:
                self.deliver(packet)
            first = False
            expected += 1
        state.expected = expected
        event = state.flush_event
        if event is not None:
            # The timer stands while the earliest (first) held deadline stays.
            if held and next(iter(held.values()))[1] == event.time:
                return
            state.flush_event = None
            event.cancel()
        self._schedule_flush(state)

    def _schedule_flush(self, state: _FlowState) -> None:
        held = state.held
        if state.flush_event is None and held:
            _, deadline = next(iter(held.values()))
            state.flush_event = self.sim.schedule_at(
                deadline, self._on_flush_timer, state
            )

    def _on_flush_timer(self, state: _FlowState) -> None:
        state.flush_event = None
        held = state.held
        if not held:
            return
        expired = [
            seq for seq, (_, deadline) in held.items() if deadline <= self.sim.now
        ]
        if expired:
            self.timeout_flushes += 1
            self._flush_through(state, max(expired))
        self._schedule_flush(state)

    def _flush_through(self, state: _FlowState, seq: int) -> None:
        """Give up on holes at or below ``seq``; deliver held packets in order."""
        held = state.held
        for s in sorted(s for s in held if s <= seq):
            packet, _ = held.pop(s)
            self.deliver(packet)
        if state.expected <= seq:
            state.expected = seq + 1
        self._drain(state)
