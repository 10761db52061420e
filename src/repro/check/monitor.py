"""Runtime invariant checking for a live :class:`~repro.core.api.HvcNetwork`.

The :class:`InvariantMonitor` taps the same instrumentation seams the
observability layer uses — the kernel's invariant hook (one call per
event, before its callback), the per-link and per-device ``obs`` adapter
slots, the resequencer's release callback — and continuously asserts the
stack's conservation laws while a simulation runs:

========================== ==========================================
law                         guards
========================== ==========================================
clock-monotonic             kernel: the clock never moves backwards
link-fifo                   link: delivery order == serialization order
link-exactly-once           link: no packet delivered twice by one link
link-loss-order             link: losses strike the departing packet
link-deliver-monotonic      link: arrival timestamps never regress
link-conservation           link: enqueued == transmitted+flushed+pending,
                            transmitted == delivered+lost+propagating
link-stats-reconcile        link: live taps agree with ``LinkStats``
device-conservation         device: sends/receives balance link totals;
                            dispatches == receives − resequencer holds
reseq-no-dup-release        resequencer: each (flow, shim_seq) released once
transport-sequence          connection: 0 ≤ snd_una ≤ snd_nxt ≤ write_end
transport-flight            connection: flight ledger == Σ live segments,
                            per loss key
transport-segments          connection: segment list sorted and disjoint;
                            remembered SACK blocks likewise, each segment
                            wholly inside one sacked
transport-bytes             connection: bytes ACKed ≤ bytes sent
transport-receive           connection: OOO ranges disjoint, non-touching,
                            above rcv_nxt
transport-cross             pair: sender's ACKed prefix ≤ peer's contiguous
                            receive prefix ≤ sender's sent prefix
transport-cc-bounds         connection, per loss key: cwnd finite and > 0,
                            pacing rate (when paced) finite and > 0, RTO in
                            [min, max]
fault-balance               injector: channel holds / link overlays match
                            the set of applied-but-unreverted faults
fault-final                 injector: everything reverted past the horizon
========================== ==========================================

Event-level laws (FIFO, exactly-once, duplicate release, clock) fire the
instant they are violated; ledger laws run from a periodic audit event plus
:meth:`InvariantMonitor.final_check`. A violation raises
:class:`~repro.errors.InvariantError` carrying a minimal structured report:
time, law, entity, the counter deltas that disagree, and the last few
events the monitor observed.

Arm the monitor on a freshly built network, *before* creating workloads
(packets the taps never saw enqueue cannot be audited) and after
``attach_obs`` if observability is also wanted (the taps chain to whatever
adapter already occupies the ``obs`` slot)::

    net = HvcNetwork([...])
    monitor = InvariantMonitor(net).arm()
    injector = FaultInjector(net, schedule).arm()
    monitor.watch_injector(injector)
    ... workloads ...
    net.run(until=duration)
    monitor.final_check()

When no monitor is armed the production code paths pay nothing beyond the
pre-existing ``obs is None`` checks plus one branch per kernel event
(``benchmarks/test_bench_check.py`` gates this at ≤ 3%).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InvariantError
from repro.faults.injector import FaultLossOverlay

#: Default audit period (simulated seconds).
DEFAULT_AUDIT_PERIOD = 0.1
#: Size of the recent-event ring included in violation reports.
RECENT_EVENTS = 40
#: Per-link window of remembered deliveries for the exactly-once law.
DELIVERED_WINDOW = 4096
#: Per-flow cap on remembered resequencer releases before compaction.
RELEASED_CAP = 65536
#: Absolute tolerance for additive float state (delay offsets).
ADDITIVE_EPS = 1e-9
#: Relative tolerance for multiplicative float state (rate factors).
RELATIVE_EPS = 1e-9


class _LinkLedger:
    """Event-driven bookkeeping for one link, chained before any obs adapter.

    Implements the :class:`repro.obs.trace.LinkObs` protocol so it can sit
    in the link's single ``obs`` slot, forwarding every callback to the
    adapter (if any) it displaced.
    """

    __slots__ = (
        "monitor", "link", "name", "inner",
        "offered", "enqueued", "overflow", "down_drops", "flushed",
        "transmitted", "lost", "delivered", "bytes_delivered",
        "propagating", "delivered_recent", "delivered_order",
        "last_deliver_time",
        "base_sent", "base_delivered", "base_lost", "base_overflow",
        "base_flushed", "base_bytes",
    )

    def __init__(self, monitor: "InvariantMonitor", link, inner) -> None:
        self.monitor = monitor
        self.link = link
        self.name = link.name
        self.inner = inner
        self.offered = 0
        self.enqueued = 0
        self.overflow = 0       # queue-full drops (counted in offered)
        self.down_drops = 0     # link-down drops (not offered)
        self.flushed = 0
        self.transmitted = 0
        self.lost = 0
        self.delivered = 0
        self.bytes_delivered = 0
        #: (packet_id, copy) keys in serialization order, still in the air.
        self.propagating = deque()
        #: Recently delivered keys, for the exactly-once law.
        self.delivered_recent: Set[Tuple[int, int]] = set()
        self.delivered_order = deque()
        self.last_deliver_time = -1.0
        stats = link.stats
        self.base_sent = stats.sent
        self.base_delivered = stats.delivered
        self.base_lost = stats.lost
        self.base_overflow = stats.overflow_drops
        self.base_flushed = stats.flushed
        self.base_bytes = stats.bytes_delivered

    # -- LinkObs protocol ------------------------------------------------
    def on_offered(self) -> None:
        self.offered += 1
        if self.inner is not None:
            self.inner.on_offered()

    def on_enqueue(self, packet, now: float) -> None:
        self.enqueued += 1
        self.monitor._observe("enqueue", self.name, packet, now)
        if self.inner is not None:
            self.inner.on_enqueue(packet, now)

    def on_overflow(self, packet, now: float, reason: str = "overflow") -> None:
        if reason == "flush":
            self.flushed += 1
        elif reason == "down":
            self.down_drops += 1
        else:
            self.overflow += 1
        self.monitor._observe(f"drop[{reason}]", self.name, packet, now)
        if self.inner is not None:
            self.inner.on_overflow(packet, now, reason=reason)

    def on_transmit(self, packet, now: float) -> None:
        self.transmitted += 1
        self.propagating.append((packet.packet_id, packet.copy_index))
        self.monitor._observe("transmit", self.name, packet, now)
        if self.inner is not None:
            self.inner.on_transmit(packet, now)

    def on_loss(self, packet, now: float) -> None:
        self.lost += 1
        key = (packet.packet_id, packet.copy_index)
        if self.propagating and self.propagating[-1] == key:
            self.propagating.pop()
        elif key in self.propagating:
            self.monitor._violate(
                "link-loss-order",
                self.name,
                f"loss of packet {key} which is not the departing packet",
                departing=self.propagating[-1] if self.propagating else None,
            )
        self.monitor._observe("loss", self.name, packet, now)
        if self.inner is not None:
            self.inner.on_loss(packet, now)

    def on_deliver(self, packet, now: float) -> None:
        key = (packet.packet_id, packet.copy_index)
        if key in self.delivered_recent:
            self.monitor._violate(
                "link-exactly-once",
                self.name,
                f"packet {key} delivered twice by the same link",
            )
        if self.propagating and self.propagating[0] == key:
            self.propagating.popleft()
        elif key in self.propagating:
            self.monitor._violate(
                "link-fifo",
                self.name,
                f"packet {key} delivered ahead of {self.propagating[0]}",
                in_flight=len(self.propagating),
            )
        if now < self.last_deliver_time:
            self.monitor._violate(
                "link-deliver-monotonic",
                self.name,
                f"delivery at t={now:.9f} after one at t={self.last_deliver_time:.9f}",
            )
        self.last_deliver_time = now
        self.delivered += 1
        self.bytes_delivered += packet.size_bytes
        self.delivered_recent.add(key)
        self.delivered_order.append(key)
        if len(self.delivered_order) > DELIVERED_WINDOW:
            self.delivered_recent.discard(self.delivered_order.popleft())
        self.monitor._observe("deliver", self.name, packet, now)
        if self.inner is not None:
            self.inner.on_deliver(packet, now)

    # -- audit -----------------------------------------------------------
    def audit(self) -> None:
        check = self.monitor._check
        pending = self.link.pending_packets
        check(
            "link-conservation", self.name,
            self.enqueued == self.transmitted + self.flushed + pending,
            "enqueued != transmitted + flushed + pending",
            enqueued=self.enqueued, transmitted=self.transmitted,
            flushed=self.flushed, pending=pending,
        )
        check(
            "link-conservation", self.name,
            self.transmitted == self.delivered + self.lost + len(self.propagating),
            "transmitted != delivered + lost + propagating",
            transmitted=self.transmitted, delivered=self.delivered,
            lost=self.lost, propagating=len(self.propagating),
        )
        check(
            "link-conservation", self.name,
            self.offered == self.enqueued + self.overflow,
            "offered != enqueued + overflow drops",
            offered=self.offered, enqueued=self.enqueued, overflow=self.overflow,
        )
        stats = self.link.stats
        for label, live, recorded in (
            ("sent", self.offered, stats.sent - self.base_sent),
            ("delivered", self.delivered, stats.delivered - self.base_delivered),
            ("lost", self.lost, stats.lost - self.base_lost),
            ("flushed", self.flushed, stats.flushed - self.base_flushed),
            (
                "overflow_drops",
                self.overflow + self.down_drops,
                stats.overflow_drops - self.base_overflow,
            ),
            (
                "bytes_delivered",
                self.bytes_delivered,
                stats.bytes_delivered - self.base_bytes,
            ),
        ):
            check(
                "link-stats-reconcile", self.name,
                live == recorded,
                f"tap count disagrees with LinkStats.{label}",
                tap=live, stats=recorded, counter=label,
            )


class _DeviceLedger:
    """Device-slot tap: steering/dispatch counts, chained like the link tap."""

    __slots__ = ("monitor", "device", "inner", "steered", "dispatched",
                 "blackout_drops", "base_stats")

    def __init__(self, monitor: "InvariantMonitor", device, inner) -> None:
        self.monitor = monitor
        self.device = device
        self.inner = inner
        self.steered = 0
        self.dispatched = 0
        self.blackout_drops = 0
        stats = device.stats
        self.base_stats = (
            stats.packets_sent,
            stats.packets_received,
            stats.duplicates_discarded,
            stats.blackout_drops,
        )

    # -- DeviceObs protocol ----------------------------------------------
    def on_steer(self, packet, choices, now: float) -> None:
        self.steered += 1
        if self.inner is not None:
            self.inner.on_steer(packet, choices, now)

    def on_blackout_drop(self, packet, now: float) -> None:
        self.blackout_drops += 1
        self.monitor._observe("blackout-drop", self.device.name, packet, now)
        if self.inner is not None:
            self.inner.on_blackout_drop(packet, now)

    def on_dispatch(self, packet, now: float) -> None:
        self.dispatched += 1
        self.monitor._observe("dispatch", self.device.name, packet, now)
        if self.inner is not None:
            self.inner.on_dispatch(packet, now)

    # -- audit -----------------------------------------------------------
    def audit(self, out_ledgers: List[_LinkLedger], in_ledgers: List[_LinkLedger]) -> None:
        check = self.monitor._check
        stats = self.device.stats
        base_sent, base_received, base_dupes, base_blackout = self.base_stats
        sent = stats.packets_sent - base_sent
        received = stats.packets_received - base_received
        dupes = stats.duplicates_discarded - base_dupes
        blackout = stats.blackout_drops - base_blackout
        enqueued = sum(ledger.enqueued for ledger in out_ledgers)
        delivered = sum(ledger.delivered for ledger in in_ledgers)
        check(
            "device-conservation", self.device.name,
            sent == enqueued,
            "packets_sent != packets accepted by outbound links",
            packets_sent=sent, link_enqueued=enqueued,
        )
        check(
            "device-conservation", self.device.name,
            received + dupes == delivered,
            "received + duplicates != inbound link deliveries",
            received=received, duplicates=dupes, link_delivered=delivered,
        )
        check(
            "device-conservation", self.device.name,
            blackout == self.blackout_drops,
            "DeviceStats.blackout_drops disagrees with the device tap",
            stats=blackout, tap=self.blackout_drops,
        )
        reseq = self.device.resequencer
        held = reseq.pending_count if reseq is not None else 0
        check(
            "device-conservation", self.device.name,
            self.dispatched + held == received,
            "dispatched + resequencer holds != packets received",
            dispatched=self.dispatched, held=held, received=received,
        )


class InvariantMonitor:
    """Continuously asserts the stack's conservation laws on one network.

    Parameters
    ----------
    net:
        The :class:`~repro.core.api.HvcNetwork` to guard.
    period:
        Simulated seconds between ledger audits (event-level laws are
        always immediate). The audit event reschedules itself for as long
        as the simulation keeps running.
    """

    def __init__(self, net, period: float = DEFAULT_AUDIT_PERIOD) -> None:
        if period <= 0:
            raise ValueError(f"audit period must be positive, got {period}")
        self.net = net
        self.period = period
        self.recent = deque(maxlen=RECENT_EVENTS)
        self.armed = False
        self.checks_run = 0
        self.audits_run = 0
        self.events_seen = 0
        self.violation: Optional[dict] = None
        self._link_ledgers: List[_LinkLedger] = []
        self._device_ledgers: Dict[str, _DeviceLedger] = {}
        self._out_links: Dict[str, List[_LinkLedger]] = {}
        self._in_links: Dict[str, List[_LinkLedger]] = {}
        self._injectors: List[object] = []
        #: flow -> (floor, released-set) for the no-duplicate-release law.
        self._released: Dict[int, Tuple[int, Set[int]]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def arm(self) -> "InvariantMonitor":
        """Install every tap and start the periodic audit.

        Arm on a freshly wired network, before workloads send traffic and
        after ``attach_obs`` (the taps chain to installed obs adapters).
        """
        if self.armed:
            raise InvariantError("invariant monitor already armed")
        self.armed = True
        net = self.net
        ledger_for = {}
        for channel in net.channels:
            for link in (channel.uplink, channel.downlink):
                ledger = _LinkLedger(self, link, link.obs)
                link.obs = ledger
                self._link_ledgers.append(ledger)
                ledger_for[link.name] = ledger
        for device in (net.client, net.server):
            tap = _DeviceLedger(self, device, device.obs)
            device.obs = tap
            self._device_ledgers[device.name] = tap
            self._out_links[device.name] = [
                ledger_for[ch.out_link(device.end).name] for ch in net.channels
            ]
            self._in_links[device.name] = [
                ledger_for[ch.in_link(device.end).name] for ch in net.channels
            ]
            if device.resequencer is not None:
                self._wrap_resequencer(device)
        # One call per event, before its callback: events_seen equals
        # sim.events_processed and a backwards clock is reported before
        # the offending callback can act on it.
        net.sim.attach_invariant_hook(self._on_kernel_event)
        net.sim.schedule(self.period, self._audit_event)
        return self

    def watch_injector(self, injector) -> "InvariantMonitor":
        """Audit a :class:`~repro.faults.FaultInjector`'s apply/revert balance.

        Valid when the injector is the only holder of ``Channel.fail`` on
        this network (true for every experiment in this repo).
        """
        self._injectors.append(injector)
        return self

    def _wrap_resequencer(self, device) -> None:
        reseq = device.resequencer
        inner = reseq.deliver
        released = self._released

        def checked_deliver(packet):
            seq = packet.shim_seq
            if seq is not None:
                floor, seen = released.setdefault(packet.flow_id, (-1, set()))
                if seq <= floor or seq in seen:
                    self._violate(
                        "reseq-no-dup-release",
                        device.name,
                        f"flow {packet.flow_id} shim_seq {seq} released twice",
                        flow=packet.flow_id, shim_seq=seq,
                    )
                seen.add(seq)
                if len(seen) > RELEASED_CAP:
                    floor = self._compact_released(packet.flow_id, floor, seen)
                released[packet.flow_id] = (floor, seen)
            inner(packet)

        reseq.deliver = checked_deliver

    @staticmethod
    def _compact_released(flow: int, floor: int, seen: Set[int]) -> int:
        # Advance the contiguous floor, then (if holes pin the set) drop the
        # oldest half — a late straggler below the new floor would misreport
        # as a duplicate, but only after 2**16 releases with a live hole.
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        if len(seen) > RELEASED_CAP // 2:
            for seq in sorted(seen)[: len(seen) // 2]:
                seen.discard(seq)
                floor = max(floor, seq)
        return floor

    # ------------------------------------------------------------------
    # Event-level hooks
    # ------------------------------------------------------------------
    def _on_kernel_event(self, now: float, event_time: float) -> None:
        self.events_seen += 1
        if event_time < now:
            self._violate(
                "clock-monotonic",
                "kernel",
                f"event at t={event_time:.9f} dispatched with clock at t={now:.9f}",
                now=now, event_time=event_time,
            )

    def _observe(self, kind: str, entity: str, packet, now: float) -> None:
        self.recent.append(
            {
                "time": round(now, 9),
                "kind": kind,
                "entity": entity,
                "packet": packet.packet_id,
                "copy": packet.copy_index,
                "flow": packet.flow_id,
            }
        )

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def _audit_event(self) -> None:
        self.audit()
        self.net.sim.schedule(self.period, self._audit_event)

    def audit(self) -> None:
        """Run every ledger law right now (also called periodically)."""
        self.audits_run += 1
        for ledger in self._link_ledgers:
            ledger.audit()
        for name, tap in self._device_ledgers.items():
            tap.audit(self._out_links[name], self._in_links[name])
        for pair in self.net.connections:
            self._audit_connection("client", pair.client)
            self._audit_connection("server", pair.server)
            self._audit_pair(pair)
        for injector in self._injectors:
            self._audit_injector(injector)

    def final_check(self) -> None:
        """Full audit plus end-state laws; call once the run is over."""
        self.audit()
        for injector in self._injectors:
            if self.net.sim.now >= injector.schedule.horizon:
                self._check(
                    "fault-final", "injector",
                    not injector.active,
                    "faults still active past the schedule horizon",
                    active=[f.describe() for f in injector.active],
                    horizon=injector.schedule.horizon,
                )

    # -- transport laws --------------------------------------------------
    def _audit_connection(self, side: str, conn) -> None:
        state = conn.audit_state()
        entity = f"{side}/flow{conn.flow_id}"
        check = self._check
        snd_una, snd_nxt = state["snd_una"], state["snd_nxt"]
        check(
            "transport-sequence", entity,
            0 <= snd_una <= snd_nxt <= state["write_end"],
            "sequence bounds violated (need 0 <= una <= nxt <= write_end)",
            snd_una=snd_una, snd_nxt=snd_nxt, write_end=state["write_end"],
        )
        # Flight is booked per loss key (one list entry per key).
        flight = state["flight_bytes"]
        check(
            "transport-flight", entity,
            flight == state["segment_flight"],
            "flight-byte ledger disagrees with the live segment list",
            flight_bytes=flight,
            segment_flight=state["segment_flight"],
        )
        check(
            "transport-flight", entity,
            min(flight) >= 0 and sum(flight) <= snd_nxt - snd_una,
            "flight bytes outside [0, outstanding]",
            flight_bytes=flight, outstanding=snd_nxt - snd_una,
        )
        segments = state["segments"]
        ok = all(
            seg[0] < seg[1] and seg[1] <= snd_nxt and seg[1] > snd_una
            for seg in segments
        ) and all(
            segments[i][1] <= segments[i + 1][0] for i in range(len(segments) - 1)
        )
        check(
            "transport-segments", entity, ok,
            "segment list not sorted/disjoint within (snd_una, snd_nxt]",
            segments=segments[:8], snd_una=snd_una, snd_nxt=snd_nxt,
        )
        blocks = state["sack_blocks"]
        ok = all(
            lo < hi and hi > snd_una and hi <= snd_nxt for lo, hi in blocks
        ) and all(
            blocks[i][1] <= blocks[i + 1][0] for i in range(len(blocks) - 1)
        ) and not any(
            lo <= seg[0] and seg[1] <= hi for seg in state["unsacked"] for lo, hi in blocks
        )
        check(
            "transport-segments", entity, ok,
            "remembered SACK blocks unsorted, outside (snd_una, snd_nxt], "
            "or covering an unsacked segment",
            sack_blocks=blocks[:8], unsacked=state["unsacked"][:8],
            snd_una=snd_una, snd_nxt=snd_nxt,
        )
        check(
            "transport-bytes", entity,
            state["bytes_acked"] <= state["bytes_sent"],
            "bytes ACKed exceed bytes sent",
            bytes_acked=state["bytes_acked"], bytes_sent=state["bytes_sent"],
        )
        ranges = state["ooo_ranges"]
        rcv_nxt = state["rcv_nxt"]
        ok = all(lo < hi for lo, hi in ranges) and all(
            ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1)
        ) and all(lo > rcv_nxt for lo, _ in ranges)
        check(
            "transport-receive", entity, ok,
            "out-of-order ranges overlap, touch or sit inside the contiguous prefix",
            rcv_nxt=rcv_nxt, ranges=ranges[:8],
        )
        for key, envelope in enumerate(state["keys"]):
            cwnd = envelope["cwnd_bytes"]
            check(
                "transport-cc-bounds", entity,
                cwnd > 0 and math.isfinite(cwnd),
                "congestion window collapsed to zero or escaped to infinity",
                key=key, cwnd_bytes=cwnd,
            )
            pacing_rate = envelope["pacing_rate_bps"]
            check(
                "transport-cc-bounds", entity,
                pacing_rate is None
                or (pacing_rate > 0 and math.isfinite(pacing_rate)),
                "pacing rate is zero, negative, or non-finite",
                key=key, pacing_rate_bps=pacing_rate,
            )
            rto, min_rto, max_rto = envelope["rto"], envelope["min_rto"], envelope["max_rto"]
            check(
                "transport-cc-bounds", entity,
                min_rto - ADDITIVE_EPS <= rto <= max_rto + ADDITIVE_EPS,
                "RTO escaped its [min_rto, max_rto] envelope",
                key=key, rto=rto, min_rto=min_rto, max_rto=max_rto,
            )

    def _audit_pair(self, pair) -> None:
        for sender, receiver, label in (
            (pair.client, pair.server, "client->server"),
            (pair.server, pair.client, "server->client"),
        ):
            s = sender.audit_state()
            r = receiver.audit_state()
            entity = f"{label}/flow{sender.flow_id}"
            self._check(
                "transport-cross", entity,
                s["snd_una"] <= r["rcv_nxt"] <= s["snd_nxt"],
                "ACKed prefix / receive prefix / sent prefix out of order",
                snd_una=s["snd_una"], peer_rcv_nxt=r["rcv_nxt"],
                snd_nxt=s["snd_nxt"],
            )

    # -- fault laws ------------------------------------------------------
    def _audit_injector(self, injector) -> None:
        active = injector.active
        by_channel: Dict[str, List] = {}
        for fault in active:
            by_channel.setdefault(fault.channel, []).append(fault)
        for channel in self.net.channels:
            faults = by_channel.get(channel.name, [])
            holds = sum(1 for f in faults if f.kind in ("outage", "blackout"))
            self._check(
                "fault-balance", channel.name,
                channel.fault_holds == holds,
                "channel fault holds != active outage/blackout faults",
                fault_holds=channel.fault_holds, active_outages=holds,
                active=[f.describe() for f in faults],
            )
            spike = sum(f.severity for f in faults if f.kind == "rtt_spike")
            factor = 1.0
            for f in faults:
                if f.kind == "capacity":
                    factor *= f.severity
            bursts = sorted(f.severity for f in faults if f.kind == "loss_burst")
            for link in (channel.uplink, channel.downlink):
                self._check(
                    "fault-balance", link.name,
                    abs(link.delay_offset - spike) <= ADDITIVE_EPS,
                    "link delay offset != sum of active rtt_spike severities",
                    delay_offset=link.delay_offset, expected=spike,
                )
                self._check(
                    "fault-balance", link.name,
                    abs(link.rate_factor - factor) <= RELATIVE_EPS * max(1.0, factor),
                    "link rate factor != product of active capacity faults",
                    rate_factor=link.rate_factor, expected=factor,
                )
                overlay_active = (
                    sorted(link.loss.active)
                    if isinstance(link.loss, FaultLossOverlay)
                    else []
                )
                self._check(
                    "fault-balance", link.name,
                    overlay_active == bursts,
                    "loss overlay stack != active loss_burst severities",
                    overlay=overlay_active, expected=bursts,
                )

    # ------------------------------------------------------------------
    # Violation machinery
    # ------------------------------------------------------------------
    def _check(self, law: str, entity: str, ok: bool, message: str, **deltas) -> None:
        self.checks_run += 1
        if not ok:
            self._violate(law, entity, message, **deltas)

    def _violate(self, law: str, entity: str, message: str, **deltas) -> None:
        now = self.net.sim.now
        report = {
            "law": law,
            "entity": entity,
            "time": round(now, 9),
            "message": message,
            "deltas": {k: v for k, v in deltas.items()},
            "recent_events": list(self.recent),
            "checks_run": self.checks_run,
        }
        self.violation = report
        rendered = ", ".join(f"{k}={v!r}" for k, v in deltas.items())
        tail = "\n".join(
            f"    t={e['time']:.6f} {e['kind']:<14} {e['entity']} "
            f"pkt={e['packet']}/{e['copy']} flow={e['flow']}"
            for e in list(self.recent)[-10:]
        )
        raise InvariantError(
            f"[{law}] {entity} at t={now:.6f}: {message}"
            + (f" ({rendered})" if rendered else "")
            + (f"\n  last events:\n{tail}" if tail else ""),
            report=report,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InvariantMonitor armed={self.armed} checks={self.checks_run} "
            f"audits={self.audits_run}>"
        )
