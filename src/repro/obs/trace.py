"""Packet-lifecycle tracing and the :class:`Observability` context.

A trace is an in-memory list of flat dict records (one JSON object per
line once exported). A packet's *span* is the set of records sharing its
``packet_id``/``copy`` — ``steer`` at the device, then per link
``enqueue → transmit → deliver`` (or ``drop``), then ``dispatch`` once the
receiving device hands it up (after resequencing, so spans survive both
steering channel switches and the reorder buffer: the channel is stamped
on every record and the ``deliver → dispatch`` gap is the resequencer's
hold time).

The fast path is opt-in by construction: components carry an ``obs``
attribute that stays ``None`` unless tracing is enabled, so a disabled
trace costs one attribute load + identity check per instrumented site —
measured and gated by ``benchmarks/test_bench_obs.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry

#: Trace format version, stamped into every export's ``meta`` record.
TRACE_VERSION = 1

#: Default cap on in-memory trace records (drops are counted, not silent).
DEFAULT_TRACE_CAPACITY = 2_000_000


class TraceBuffer:
    """Bounded append-only record buffer with a drop counter."""

    __slots__ = ("records", "capacity", "dropped")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.records: List[dict] = []
        self.capacity = capacity
        self.dropped = 0

    def append(self, record: dict) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.dropped += 1


class Observability:
    """One run's observability context: registry + trace + probe config.

    Parameters
    ----------
    tracing:
        Record packet-lifecycle and channel-sample trace records. Off by
        default; everything else (registry collectors, gauges) still works.
    probes:
        Attach per-connection transport probes (cwnd/srtt/inflight/RTO
        time series). Defaults to following ``tracing``.
    trace_capacity:
        Cap on buffered trace records.
    channel_sample_period:
        Period of the channel sampler the network wires up on attach.
    """

    def __init__(
        self,
        tracing: bool = False,
        probes: Optional[bool] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        channel_sample_period: float = 0.1,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracing = bool(tracing)
        self.probes = self.tracing if probes is None else bool(probes)
        self.trace: Optional[TraceBuffer] = (
            TraceBuffer(trace_capacity) if self.tracing else None
        )
        self.channel_sample_period = channel_sample_period
        #: (host, flow[, subflow]) -> TransportSeries, filled by probes.
        self.transport_series: Dict[tuple, object] = {}
        self._meta: dict = {"kind": "meta", "time": 0.0, "version": TRACE_VERSION}

    # ------------------------------------------------------------------
    def describe_network(self, channels: Sequence, hosts: Sequence[str]) -> None:
        """Stamp the channel/host layout into the export's meta record."""
        self._meta["channels"] = [
            {"index": ch.index, "name": ch.name} for ch in channels
        ]
        self._meta["hosts"] = list(hosts)

    def export_records(self) -> List[dict]:
        """All records for export: meta first, then the trace, then metrics."""
        records: List[dict] = [dict(self._meta)]
        if self.trace is not None:
            records.extend(self.trace.records)
            if self.trace.dropped:
                self.registry.counter("trace.records_dropped").set_total(
                    self.trace.dropped
                )
        records.append(
            {"kind": "metrics", "time": 0.0, "metrics": self.registry.snapshot()}
        )
        return records

    def export_jsonl(self, path) -> int:
        """Write the trace as JSON Lines; returns the record count."""
        from repro.obs.export import write_jsonl

        return write_jsonl(self.export_records(), path)


class LinkObs:
    """Per-link tracing adapter; installed only when tracing is on.

    Counter handles are cached here at attach time, so the per-event cost
    is one method call + a few attribute increments.
    """

    __slots__ = (
        "trace", "channel", "direction",
        "c_offered", "c_delivered", "c_lost", "c_overflow", "c_bytes",
    )

    def __init__(self, obs: Observability, channel_name: str, direction: str) -> None:
        labels = {"channel": channel_name, "direction": direction}
        registry = obs.registry
        self.trace = obs.trace
        self.channel = channel_name
        self.direction = direction
        self.c_offered = registry.counter("trace.link.offered", **labels)
        self.c_delivered = registry.counter("trace.link.delivered", **labels)
        self.c_lost = registry.counter("trace.link.lost", **labels)
        self.c_overflow = registry.counter("trace.link.overflow_drops", **labels)
        self.c_bytes = registry.counter("trace.link.bytes_delivered", **labels)

    def _packet_record(self, kind: str, now: float, packet) -> dict:
        return {
            "kind": kind,
            "time": now,
            "channel": self.channel,
            "direction": self.direction,
            "packet_id": packet.packet_id,
            "copy": packet.copy_index,
            "flow": packet.flow_id,
            "ptype": packet.ptype.value,
            "bytes": packet.size_bytes,
        }

    def on_offered(self) -> None:
        """Mirrors ``LinkStats.sent`` (offered while up, even if tail-dropped)."""
        self.c_offered.inc()

    def on_enqueue(self, packet, now: float) -> None:
        if self.trace is not None:
            self.trace.append(self._packet_record("enqueue", now, packet))

    def on_overflow(self, packet, now: float, reason: str = "overflow") -> None:
        self.c_overflow.inc()
        if self.trace is not None:
            record = self._packet_record("drop", now, packet)
            record["reason"] = reason
            self.trace.append(record)

    def on_transmit(self, packet, now: float) -> None:
        if self.trace is not None:
            self.trace.append(self._packet_record("transmit", now, packet))

    def on_loss(self, packet, now: float) -> None:
        self.c_lost.inc()
        if self.trace is not None:
            record = self._packet_record("drop", now, packet)
            record["reason"] = "loss"
            self.trace.append(record)

    def on_deliver(self, packet, now: float) -> None:
        self.c_delivered.inc()
        self.c_bytes.add(packet.size_bytes)
        if self.trace is not None:
            self.trace.append(self._packet_record("deliver", now, packet))


class DeviceObs:
    """Per-device tracing adapter: steering decisions and final dispatch."""

    __slots__ = ("trace", "host", "policy", "c_decisions", "registry")

    def __init__(self, obs: Observability, host: str, policy: str) -> None:
        self.trace = obs.trace
        self.host = host
        self.policy = policy
        self.registry = obs.registry
        #: channel index -> decision counter, grown lazily.
        self.c_decisions: Dict[int, object] = {}

    def on_steer(self, packet, choices, now: float) -> None:
        for channel_index in choices:
            counter = self.c_decisions.get(channel_index)
            if counter is None:
                counter = self.registry.counter(
                    "steer.decisions",
                    host=self.host,
                    policy=self.policy,
                    channel=channel_index,
                )
                self.c_decisions[channel_index] = counter
            counter.inc()
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "steer",
                    "time": now,
                    "host": self.host,
                    "policy": self.policy,
                    "packet_id": packet.packet_id,
                    "flow": packet.flow_id,
                    "ptype": packet.ptype.value,
                    "bytes": packet.size_bytes,
                    "channels": list(choices),
                }
            )

    def on_blackout_drop(self, packet, now: float) -> None:
        """Packet dropped at the device: every channel down, nothing to steer to.

        Emitted with the link-drop schema (reason "down") so span tooling
        attributes the loss; channel is "-" because none was selectable.
        """
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "drop",
                    "time": now,
                    "channel": "-",
                    "direction": "up",
                    "packet_id": packet.packet_id,
                    "copy": packet.copy_index,
                    "flow": packet.flow_id,
                    "ptype": packet.ptype.value,
                    "bytes": packet.size_bytes,
                    "reason": "down",
                }
            )

    def on_dispatch(self, packet, now: float) -> None:
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "dispatch",
                    "time": now,
                    "host": self.host,
                    "packet_id": packet.packet_id,
                    "copy": packet.copy_index,
                    "flow": packet.flow_id,
                    "channel": packet.channel_index,
                }
            )


def wire_network(net, obs: Observability):
    """Wire an :class:`~repro.core.api.HvcNetwork` into ``obs``.

    * registers pull collectors for every link's ``LinkStats``, both
      devices' ``DeviceStats`` and the kernel event count (zero data-path
      cost — this is the tracing-off fast path);
    * starts a :class:`~repro.net.monitor.ChannelMonitor` feeding the
      registry gauges (and ``channel`` trace records when tracing);
    * when tracing is on, installs :class:`LinkObs`/:class:`DeviceObs`
      adapters on every link and device.

    Returns the monitor so callers can read its series directly.
    """
    from repro.net.monitor import ChannelMonitor

    net.sim.attach_obs(obs)
    obs.describe_network(net.channels, [net.client.name, net.server.name])

    for channel in net.channels:
        for direction, link in (("up", channel.uplink), ("down", channel.downlink)):
            _add_link_collector(obs.registry, channel.name, direction, link)
            if obs.tracing:
                link.obs = LinkObs(obs, channel.name, direction)
    for device in (net.client, net.server):
        _add_device_collector(obs.registry, device)
        device.obs_ctx = obs
        if obs.tracing:
            policy = getattr(device.steerer, "name", type(device.steerer).__name__)
            device.obs = DeviceObs(obs, device.name, policy)

    monitor = ChannelMonitor(
        net.sim, net.channels, period=obs.channel_sample_period, obs=obs
    )
    return monitor


def _add_link_collector(registry: MetricsRegistry, channel: str, direction: str, link) -> None:
    labels = {"channel": channel, "direction": direction}
    c_offered = registry.counter("link.offered", **labels)
    c_delivered = registry.counter("link.delivered", **labels)
    c_lost = registry.counter("link.lost", **labels)
    c_overflow = registry.counter("link.overflow_drops", **labels)
    c_bytes = registry.counter("link.bytes_delivered", **labels)
    g_backlog = registry.gauge("link.backlog_bytes", **labels)
    stats = link.stats

    def collect(_registry) -> None:
        c_offered.set_total(stats.sent)
        c_delivered.set_total(stats.delivered)
        c_lost.set_total(stats.lost)
        c_overflow.set_total(stats.overflow_drops)
        c_bytes.set_total(stats.bytes_delivered)
        g_backlog.set(link.backlog_bytes)

    registry.add_collector(collect)


def _add_device_collector(registry: MetricsRegistry, device) -> None:
    labels = {"host": device.name}
    c_sent = registry.counter("device.packets_sent", **labels)
    c_received = registry.counter("device.packets_received", **labels)
    c_dupes = registry.counter("device.duplicates_discarded", **labels)
    c_drops = registry.counter("device.send_drops", **labels)
    c_blackout = registry.counter("device.blackout_drops", **labels)
    c_bytes_sent = registry.counter("device.bytes_sent", **labels)
    c_bytes_received = registry.counter("device.bytes_received", **labels)
    stats = device.stats

    def collect(_registry) -> None:
        c_sent.set_total(stats.packets_sent)
        c_received.set_total(stats.packets_received)
        c_dupes.set_total(stats.duplicates_discarded)
        c_drops.set_total(stats.send_drops)
        c_blackout.set_total(stats.blackout_drops)
        c_bytes_sent.set_total(stats.bytes_sent)
        c_bytes_received.set_total(stats.bytes_received)

    registry.add_collector(collect)
