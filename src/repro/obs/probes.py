"""Per-connection transport probes: cwnd, srtt, inflight, RTO as series.

A probe rides the connection's own ACK/RTO processing (no extra timers, no
extra kernel events): every processed ACK appends one
:class:`TransportSample`, every RTO fire appends one with
``event="timeout"`` so the exponential backoff is visible in the series.
Samples land in ``Observability.transport_series`` keyed by
``(host, flow)`` — or ``(host, flow, subflow)`` for multipath subflows —
and, when tracing is on, are mirrored as ``transport`` trace records.

Connections discover their probe through ``device.obs_ctx`` at
construction time, so both :class:`~repro.transport.connection.Connection`
and :class:`~repro.transport.multipath.MultipathConnection` are covered no
matter how they were created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(slots=True)
class TransportSample:
    """One snapshot of a connection's (or subflow's) control state."""

    time: float
    cwnd_bytes: float
    srtt: Optional[float]
    rto: float
    inflight_bytes: int
    event: str = "ack"  # "ack" | "timeout"
    subflow: Optional[int] = None


@dataclass
class TransportSeries:
    """All samples for one (host, flow[, subflow])."""

    host: str
    flow_id: int
    subflow: Optional[int] = None
    samples: List[TransportSample] = field(default_factory=list)

    def max_cwnd_bytes(self) -> float:
        return max((s.cwnd_bytes for s in self.samples), default=0.0)

    def srtt_series(self) -> List[tuple]:
        return [(s.time, s.srtt) for s in self.samples if s.srtt is not None]

    def timeouts(self) -> int:
        return sum(1 for s in self.samples if s.event == "timeout")


class ConnectionProbe:
    """Probe for a single-path :class:`Connection` endpoint."""

    __slots__ = ("series", "trace", "host", "flow_id", "c_timeouts")

    def __init__(self, obs, host: str, flow_id: int) -> None:
        self.host = host
        self.flow_id = flow_id
        self.series = TransportSeries(host=host, flow_id=flow_id)
        obs.transport_series[(host, flow_id)] = self.series
        self.trace = obs.trace
        self.c_timeouts = obs.registry.counter(
            "transport.timeouts", host=host, flow=flow_id
        )

    def _sample(self, conn, event: str, subflow: Optional[int] = None) -> TransportSample:
        return TransportSample(
            time=conn.sim.now,
            cwnd_bytes=conn.cc.cwnd_bytes,
            srtt=conn.rtt.srtt,
            rto=conn.rtt.rto,
            inflight_bytes=conn.bytes_in_flight,
            event=event,
            subflow=subflow,
        )

    def _emit(self, sample: TransportSample) -> None:
        self.series.samples.append(sample)
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "transport",
                    "time": sample.time,
                    "host": self.host,
                    "flow": self.flow_id,
                    "cwnd_bytes": sample.cwnd_bytes,
                    "srtt": sample.srtt,
                    "rto": sample.rto,
                    "inflight_bytes": sample.inflight_bytes,
                    "event": sample.event,
                    "subflow": sample.subflow,
                }
            )

    def on_ack(self, conn) -> None:
        self._emit(self._sample(conn, "ack"))

    def on_timeout(self, conn) -> None:
        self.c_timeouts.inc()
        self._emit(self._sample(conn, "timeout"))


class MultipathProbe(ConnectionProbe):
    """Probe for a :class:`MultipathConnection`: one series per subflow."""

    __slots__ = ("obs", "_subflow_series")

    def __init__(self, obs, host: str, flow_id: int) -> None:
        super().__init__(obs, host, flow_id)
        self.obs = obs
        self._subflow_series = {}

    def _series_for(self, subflow_index: int) -> TransportSeries:
        series = self._subflow_series.get(subflow_index)
        if series is None:
            series = TransportSeries(
                host=self.host, flow_id=self.flow_id, subflow=subflow_index
            )
            self._subflow_series[subflow_index] = series
            self.obs.transport_series[(self.host, self.flow_id, subflow_index)] = series
        return series

    def _emit_subflow(self, mp_conn, subflow, event: str) -> None:
        sample = TransportSample(
            time=mp_conn.sim.now,
            cwnd_bytes=subflow.cc.cwnd_bytes,
            srtt=subflow.rtt.srtt,
            rto=subflow.rtt.rto,
            inflight_bytes=subflow.in_flight,
            event=event,
            subflow=subflow.channel_index,
        )
        self._series_for(subflow.channel_index).samples.append(sample)
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "transport",
                    "time": sample.time,
                    "host": self.host,
                    "flow": self.flow_id,
                    "cwnd_bytes": sample.cwnd_bytes,
                    "srtt": sample.srtt,
                    "rto": sample.rto,
                    "inflight_bytes": sample.inflight_bytes,
                    "event": sample.event,
                    "subflow": sample.subflow,
                }
            )

    def on_subflow_ack(self, mp_conn, subflow) -> None:
        self._emit_subflow(mp_conn, subflow, "ack")

    def on_subflow_timeout(self, mp_conn, subflow) -> None:
        self.c_timeouts.inc()
        self._emit_subflow(mp_conn, subflow, "timeout")


def probe_for(device, flow_id: int, multipath: bool = False):
    """The probe a transport endpoint on ``device`` should use, or None.

    The device exposes its observability context as ``obs_ctx`` once
    :func:`repro.obs.trace.wire_network` has run; probes stay off (and the
    transport pays a single ``None`` check per ACK) otherwise.
    """
    obs = getattr(device, "obs_ctx", None)
    if obs is None or not obs.probes:
        return None
    cls = MultipathProbe if multipath else ConnectionProbe
    return cls(obs, device.name, flow_id)
