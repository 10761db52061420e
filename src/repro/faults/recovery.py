"""Resilience metrics: outage bookkeeping, failovers, time-to-recover.

The tracker observes three independent signal sources and folds them into
the metrics registry (:mod:`repro.obs`):

* **channel transitions** (:attr:`Channel.on_transition`) — outage counts
  and downtime histograms per channel;
* **device send hooks** — *failovers*: a flow's packet leaving on a
  different channel than its previous one while that previous channel is
  down. This is the observable signature of steering routing around a
  fault;
* **device receive hooks** — *forward progress* per flow (a cumulative ACK
  advancing, or a datagram arriving). Recovery time is measured from the
  end of an outage to the first forward progress of each flow that made
  none at all while the outage was in force — flows that kept progressing
  (because failover worked) contribute no recovery sample, which is itself
  the result: good steering makes time-to-recover vanish.

Metric families (all labelled): ``faults.outages``, ``faults.downtime``
(histogram, seconds), ``faults.failovers``, ``faults.recovery_time``
(histogram, seconds). Sends attempted during a total blackout surface as
``device.blackout_drops`` through the device collectors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.metrics import percentile
from repro.errors import ScenarioError
from repro.net.packet import PacketType


def recovery_percentile(samples: Sequence[float], q: float) -> float:
    """:func:`repro.core.metrics.percentile` of recovery times or FCTs, the
    convention trace statistics use too, but 0.0 if empty."""
    if not 0 <= q <= 100:
        raise ScenarioError(f"percentile must be in [0, 100], got {q}")
    return percentile(samples, q) if samples else 0.0


class RecoveryTracker:
    """Wires resilience metrics into a network's data path.

    Attach *before* the run::

        tracker = RecoveryTracker(net)            # uses net.obs registry,
        ...                                       # or its own if none
        net.run(until=...)
        print(tracker.summary())
    """

    #: A flow counts as stalled at outage end if it made no forward progress
    #: for this long. The grace absorbs residual in-flight deliveries that
    #: straggle in just after the outage begins (one propagation delay).
    STALL_AFTER = 0.25

    def __init__(self, net) -> None:
        self.net = net
        if getattr(net, "obs", None) is not None:
            self.registry = net.obs.registry
        else:
            from repro.obs import MetricsRegistry

            self.registry = MetricsRegistry()

        #: (host, flow) -> highest cumulative ack seen at that host.
        self._best_ack: Dict[tuple, int] = {}
        #: flow -> time of the flow's latest forward progress (either
        #: direction counts — the flow is alive).
        self.last_progress: Dict[int, float] = {}
        #: (host, flow) -> last channel index that host's packets left on.
        #: Keyed per host: the two directions steer independently, and a
        #: client DATA → server ACK ping-pong must not read as a switch.
        self._last_channel: Dict[tuple, int] = {}
        #: flow -> outage-end time awaiting the flow's first progress.
        self._pending_recovery: Dict[int, float] = {}
        #: Start time of the outage currently holding each channel down.
        self._down_since: Dict[int, float] = {}
        #: Recovery samples per flow: (flow, outage_end, recovery_seconds).
        self.recovery_samples: List[tuple] = []
        self.failovers = 0

        for channel in net.channels:
            channel.on_transition.append(self._on_transition)
        for device in (net.client, net.server):
            host = device.name
            device.on_send_hooks.append(
                lambda packet, index, host=host: self._on_send(host, packet, index)
            )
            device.on_receive_hooks.append(
                lambda packet, host=host: self._on_receive(host, packet)
            )

    # ------------------------------------------------------------------
    # Channel transitions → outages, downtime, pending recoveries
    # ------------------------------------------------------------------
    def _on_transition(self, channel, up: bool, now: float) -> None:
        if not up:
            self._down_since[channel.index] = now
            self.registry.counter("faults.outages", channel=channel.name).inc()
            return
        down_at = self._down_since.pop(channel.index, now)
        self.registry.histogram("faults.downtime", channel=channel.name).observe(
            now - down_at
        )
        # Flows that stopped progressing during the outage are stalled;
        # their next progress event closes a recovery interval. Flows that
        # kept progressing (failover worked) contribute no sample.
        for flow, last in self.last_progress.items():
            if now - last >= self.STALL_AFTER and flow not in self._pending_recovery:
                self._pending_recovery[flow] = now

    # ------------------------------------------------------------------
    # Send path → failovers
    # ------------------------------------------------------------------
    def _on_send(self, host: str, packet, channel_index: int) -> None:
        key = (host, packet.flow_id)
        previous = self._last_channel.get(key)
        self._last_channel[key] = channel_index
        if previous is None or previous == channel_index:
            return
        if not self.net.channels[previous].up:
            self.failovers += 1
            self.registry.counter(
                "faults.failovers",
                from_channel=self.net.channels[previous].name,
                to_channel=self.net.channels[channel_index].name,
            ).inc()

    # ------------------------------------------------------------------
    # Receive path → forward progress, recovery intervals
    # ------------------------------------------------------------------
    def _on_receive(self, host: str, packet) -> None:
        flow = packet.flow_id
        progressed = False
        if packet.ptype == PacketType.ACK:
            key = (host, flow)
            best = self._best_ack.get(key, 0)
            if packet.ack_seq > best:
                self._best_ack[key] = packet.ack_seq
                progressed = True
        elif packet.ptype in (PacketType.DATA, PacketType.DATAGRAM):
            progressed = True
        if not progressed:
            return
        now = self.net.sim.now
        self.last_progress[flow] = now
        recovery_from = self._pending_recovery.pop(flow, None)
        if recovery_from is not None:
            elapsed = now - recovery_from
            self.recovery_samples.append((flow, recovery_from, elapsed))
            self.registry.histogram("faults.recovery_time", flow=flow).observe(elapsed)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Scalar resilience results, picklable for runner payloads."""
        recoveries = [sample[2] for sample in self.recovery_samples]
        outages = sum(channel.outage_count for channel in self.net.channels)
        return {
            "outages": outages,
            "downtime_s": round(
                sum(channel.downtime_total for channel in self.net.channels), 9
            ),
            "failovers": self.failovers,
            "recovery_samples": len(recoveries),
            "recovery_max_s": round(max(recoveries), 9) if recoveries else 0.0,
            "recovery_mean_s": (
                round(sum(recoveries) / len(recoveries), 9) if recoveries else 0.0
            ),
            "recovery_p50_s": round(recovery_percentile(recoveries, 50.0), 9),
            "recovery_p99_s": round(recovery_percentile(recoveries, 99.0), 9),
        }

    def recovery_by_flow(self) -> Dict[int, List[float]]:
        """Recovery samples grouped per flow id (for per-class SLO grading)."""
        out: Dict[int, List[float]] = {}
        for flow, _start, elapsed in self.recovery_samples:
            out.setdefault(flow, []).append(elapsed)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecoveryTracker failovers={self.failovers} "
            f"recoveries={len(self.recovery_samples)}>"
        )
