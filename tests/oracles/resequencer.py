"""The resequencer before it kept one record per flow.

:class:`NaiveResequencer` holds its state in five parallel per-flow dicts
and finds the next flush deadline with ``min()`` over every held packet,
cancelling and re-filing its flush timer whenever it drains — the
reference for :class:`repro.net.resequencer.Resequencer`.
"""

from __future__ import annotations

from repro.net import resequencer as resequencer_module


class NaiveResequencer:
    """Reference: five parallel per-flow dicts, ``min()`` over all held."""

    def __init__(self, sim, deliver, timeout):
        self.sim = sim
        self.deliver = deliver
        self.timeout = timeout
        self._expected = {}
        self._held = {}
        self._chan_max = {}
        self._chan_count = {}
        self._flush_events = {}
        self.packets_held = 0
        self.timeout_flushes = 0
        self.timer_instants = []
        #: Re-files of a pending flush timer whose deadline changed (or
        #: that found nothing left to hold).
        self.deadline_moves = 0

    def push(self, packet):
        if packet.shim_seq is None:
            self.deliver(packet)
            return
        flow = packet.flow_id
        if packet.channel_index is not None:
            marks = self._chan_max.setdefault(flow, {})
            previous = marks.get(packet.channel_index, -1)
            marks[packet.channel_index] = max(previous, packet.shim_seq)
        self._chan_count[flow] = max(
            self._chan_count.get(flow, 1), packet.shim_channel_count
        )
        expected = self._expected.get(flow, 0)
        if packet.shim_seq < expected:
            self.deliver(packet)
            return
        held = self._held.setdefault(flow, {})
        if packet.shim_seq in held:
            return
        if packet.shim_seq == expected:
            self.deliver(packet)
            self._expected[flow] = expected + 1
            self._drain(flow)
        else:
            self.packets_held += 1
            held[packet.shim_seq] = (packet, self.sim.now + self.timeout)
            if len(held) > resequencer_module.MAX_HELD_PACKETS:
                self._flush_through(flow, min(held))
            self._flush_proven_losses(flow)
            self._schedule_flush(flow)

    def _flush_proven_losses(self, flow):
        marks = self._chan_max.get(flow)
        if not marks or len(marks) < self._chan_count.get(flow, 1):
            return
        safe = min(marks.values())
        if self._expected.get(flow, 0) <= safe:
            self._flush_through(flow, safe)

    @property
    def pending_count(self):
        return sum(len(held) for held in self._held.values())

    def _drain(self, flow):
        held = self._held.get(flow)
        if not held:
            return
        expected = self._expected.get(flow, 0)
        while expected in held:
            packet, _ = held.pop(expected)
            self.deliver(packet)
            expected += 1
        self._expected[flow] = expected
        self._reschedule_flush(flow)

    def _schedule_flush(self, flow):
        if flow in self._flush_events:
            return
        deadline = self._earliest_deadline(flow)
        if deadline is not None:
            self._flush_events[flow] = self.sim.schedule_at(
                deadline, self._on_flush_timer, flow
            )

    def _reschedule_flush(self, flow):
        event = self._flush_events.pop(flow, None)
        if event is not None:
            self.sim.cancel(event)
            if event.time != self._earliest_deadline(flow):
                self.deadline_moves += 1
        self._schedule_flush(flow)

    def _earliest_deadline(self, flow):
        held = self._held.get(flow)
        if not held:
            return None
        return min(deadline for _, deadline in held.values())

    def _on_flush_timer(self, flow):
        self.timer_instants.append(self.sim.now)
        self._flush_events.pop(flow, None)
        held = self._held.get(flow)
        if not held:
            return
        expired = [
            seq for seq, (_, deadline) in held.items() if deadline <= self.sim.now
        ]
        if expired:
            self.timeout_flushes += 1
            self._flush_through(flow, max(expired))
        self._schedule_flush(flow)

    def _flush_through(self, flow, seq):
        held = self._held.get(flow, {})
        ready = sorted(s for s in held if s <= seq)
        for s in ready:
            packet, _ = held.pop(s)
            self.deliver(packet)
        self._expected[flow] = max(self._expected.get(flow, 0), seq + 1)
        self._drain(flow)
