"""Per-connection transport probes: cwnd, srtt, inflight, RTO as series.

A probe rides the connection's own ACK/RTO processing (no extra timers, no
extra kernel events): every processed ACK appends one
:class:`TransportSample`, every RTO fire appends one with
``event="timeout"`` so the exponential backoff is visible in the series.
Samples land in ``Observability.transport_series`` keyed by
``(host, flow)`` — or ``(host, flow, subflow)`` for multipath subflows —
and, when tracing is on, are mirrored as ``transport`` trace records.

Endpoints discover their probe through ``device.obs_ctx`` at construction
time, so both :class:`~repro.transport.connection.Connection` and
:class:`~repro.transport.multipath.MultipathConnection` are covered no
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


class ConnectionProbe:
    """Probe for a transport endpoint: samples one loss key's sender state
    (:class:`~repro.transport.endpoint.Subflow`) per event.

    A single-path :class:`Connection` fills one series per flow. With
    ``per_key`` (a :class:`MultipathConnection`, whose keys are channels)
    each key gets its own ``(host, flow, key)`` series, created on its
    first sample; the per-flow series is still registered, and stays empty.
    """

    __slots__ = ("obs", "series", "trace", "host", "flow_id", "c_timeouts", "per_key",
                 "_key_series")

    def __init__(self, obs, host: str, flow_id: int, per_key: bool = False) -> None:
        self.obs = obs
        self.host = host
        self.flow_id = flow_id
        self.series = TransportSeries(host=host, flow_id=flow_id)
        obs.transport_series[(host, flow_id)] = self.series
        self.trace = obs.trace
        self.c_timeouts = obs.registry.counter(
            "transport.timeouts", host=host, flow=flow_id
        )
        self.per_key = per_key
        self._key_series = {}

    def _series_for(self, key: int) -> TransportSeries:
        series = self._key_series.get(key)
        if series is None:
            series = TransportSeries(host=self.host, flow_id=self.flow_id, subflow=key)
            self._key_series[key] = series
            self.obs.transport_series[(self.host, self.flow_id, key)] = series
        return series

    def _emit(self, conn, sub, event: str) -> None:
        key = sub.key if self.per_key else None
        sample = TransportSample(
            conn.sim.now, sub.cc.cwnd_bytes, sub.rtt.srtt, sub.rtt.rto, sub.in_flight, event, key
        )
        (self.series if key is None else self._series_for(key)).samples.append(sample)
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

    def on_ack(self, conn, sub) -> None:
        self._emit(conn, sub, "ack")

    def on_timeout(self, conn, sub) -> None:
        self.c_timeouts.inc()
        self._emit(conn, sub, "timeout")


def probe_for(device, flow_id: int, per_key: bool = False):
    """The probe a transport endpoint on ``device`` should use, or None.

    The device exposes its observability context as ``obs_ctx`` once
    :func:`repro.obs.trace.wire_network` has run; probes stay off (and the
    transport pays a single ``None`` check per ACK) otherwise.
    """
    obs = getattr(device, "obs_ctx", None)
    if obs is None or not obs.probes:
        return None
    return ConnectionProbe(obs, device.name, flow_id, per_key)
