"""Trace summaries: per-channel and per-connection views of a JSONL trace.

``repro obs summarize trace.jsonl`` renders, from an exported trace alone:

* per-channel/direction packet counts, drop breakdown and **utilization**
  — the latter rebuilt through the exact :class:`ChannelSeries` math the
  live :class:`~repro.net.monitor.ChannelMonitor` uses, so the number a
  trace reader computes matches the number the experiment saw;
* per-packet one-way latency (enqueue → deliver on one link) percentiles;
* per-connection transport probe summaries (srtt range, max cwnd,
  timeouts);
* steering decision shares per policy and channel.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Union

from repro.net.monitor import ChannelSample, ChannelSeries


def _percentile(ordered: List[float], pct: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[index]


class TraceSummary:
    """Aggregations over one trace's records."""

    def __init__(self, records: List[dict]) -> None:
        self.records = records
        self.meta: dict = {}
        self.metrics: dict = {}
        #: (channel, direction) -> {"offered": n, "delivered": n, ...}
        self.link_counts: Dict[tuple, Dict[str, int]] = defaultdict(
            lambda: {
                "offered": 0, "delivered": 0, "bytes_delivered": 0,
                "drop_overflow": 0, "drop_loss": 0, "drop_down": 0,
            }
        )
        #: (channel, direction) -> sorted enqueue->deliver latencies.
        self.latencies: Dict[tuple, List[float]] = defaultdict(list)
        #: channel name -> ChannelSeries rebuilt from "channel" records.
        self.channel_series: Dict[str, ChannelSeries] = {}
        #: (host, flow) -> transport record list.
        self.transport: Dict[tuple, List[dict]] = defaultdict(list)
        #: (host, policy) -> {channel_index: packets}.
        self.steer_counts: Dict[tuple, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._ingest(records)

    # ------------------------------------------------------------------
    def _ingest(self, records: List[dict]) -> None:
        enqueue_times: Dict[tuple, float] = {}
        for record in records:
            kind = record["kind"]
            if kind in ("enqueue", "transmit", "deliver", "drop"):
                key = (record["channel"], record["direction"])
                counts = self.link_counts[key]
                packet_key = key + (record["packet_id"], record["copy"])
                if kind == "enqueue":
                    counts["offered"] += 1
                    enqueue_times[packet_key] = record["time"]
                elif kind == "deliver":
                    counts["delivered"] += 1
                    counts["bytes_delivered"] += record["bytes"]
                    start = enqueue_times.pop(packet_key, None)
                    if start is not None:
                        self.latencies[key].append(record["time"] - start)
                elif kind == "drop":
                    counts["drop_" + record["reason"]] += 1
                    enqueue_times.pop(packet_key, None)
            elif kind == "channel":
                series = self.channel_series.get(record["channel"])
                if series is None:
                    series = self.channel_series[record["channel"]] = ChannelSeries(
                        name=record["channel"]
                    )
                series.samples.append(
                    ChannelSample(
                        time=record["time"],
                        up_backlog_bytes=record["up_backlog_bytes"],
                        down_backlog_bytes=record["down_backlog_bytes"],
                        up_delivered_bytes=record["up_delivered_bytes"],
                        down_delivered_bytes=record["down_delivered_bytes"],
                        up_rate_bps=record["up_rate_bps"],
                        down_rate_bps=record["down_rate_bps"],
                        base_rtt=record["base_rtt"],
                        # Fleet background fields are optional: traces
                        # written before they existed rebuild as 0.
                        up_background_bytes=record.get("up_background_bytes", 0),
                        down_background_bytes=record.get("down_background_bytes", 0),
                        up_background_bps=record.get("up_background_bps", 0.0),
                        down_background_bps=record.get("down_background_bps", 0.0),
                    )
                )
            elif kind == "transport":
                self.transport[(record["host"], record["flow"])].append(record)
            elif kind == "steer":
                key = (record["host"], record["policy"])
                for channel in record["channels"]:
                    self.steer_counts[key][channel] += 1
            elif kind == "meta":
                self.meta = record
            elif kind == "metrics":
                self.metrics = record.get("metrics", {})
        for values in self.latencies.values():
            values.sort()

    # ------------------------------------------------------------------
    def utilization(self, channel: str, direction: str = "down") -> float:
        """Channel utilization, identical to the live monitor's math."""
        series = self.channel_series.get(channel)
        if series is None:
            return 0.0
        return series.utilization(direction)

    def to_dict(self) -> dict:
        """The whole summary as one JSON-serializable dict."""
        channels = {}
        for (channel, direction), counts in sorted(self.link_counts.items()):
            entry = dict(counts)
            ordered = self.latencies.get((channel, direction), [])
            if ordered:
                entry["latency_p50"] = _percentile(ordered, 50)
                entry["latency_p95"] = _percentile(ordered, 95)
                entry["latency_p99"] = _percentile(ordered, 99)
            if channel in self.channel_series:
                entry["utilization"] = self.utilization(channel, direction)
            channels[f"{channel}/{direction}"] = entry
        connections = {}
        for (host, flow), samples in sorted(self.transport.items()):
            srtts = [s["srtt"] for s in samples if s["srtt"] is not None]
            connections[f"{host}/flow{flow}"] = {
                "samples": len(samples),
                "timeouts": sum(1 for s in samples if s["event"] == "timeout"),
                "max_cwnd_bytes": max((s["cwnd_bytes"] for s in samples), default=0),
                "max_inflight_bytes": max(
                    (s["inflight_bytes"] for s in samples), default=0
                ),
                "srtt_min": min(srtts) if srtts else None,
                "srtt_max": max(srtts) if srtts else None,
                "subflows": sorted(
                    {s["subflow"] for s in samples if s.get("subflow") is not None}
                ),
            }
        steering = {}
        for (host, policy), counts in sorted(self.steer_counts.items()):
            steering[f"{host}/{policy}"] = {
                str(channel): count for channel, count in sorted(counts.items())
            }
        return {
            "meta": {k: v for k, v in self.meta.items() if k != "kind"},
            "channels": channels,
            "connections": connections,
            "steering": steering,
        }

    def render(self) -> str:
        """Human-readable multi-section summary."""
        data = self.to_dict()
        lines: List[str] = []
        meta = data["meta"]
        if meta.get("channels"):
            names = ", ".join(c["name"] for c in meta["channels"])
            lines.append(f"trace v{meta.get('version', '?')} — channels: {names}")
        lines.append("")
        lines.append("per-channel links:")
        for key, entry in data["channels"].items():
            util = (
                f" util={entry['utilization']:.3f}" if "utilization" in entry else ""
            )
            latency = (
                f" lat p50/p95={entry['latency_p50'] * 1e3:.1f}/"
                f"{entry['latency_p95'] * 1e3:.1f}ms"
                if "latency_p50" in entry
                else ""
            )
            drops = entry["drop_overflow"] + entry["drop_loss"] + entry["drop_down"]
            lines.append(
                f"  {key:<16} offered={entry['offered']:<7} "
                f"delivered={entry['delivered']:<7} drops={drops:<5}"
                f"{util}{latency}"
            )
        if data["connections"]:
            lines.append("")
            lines.append("per-connection transport probes:")
            for key, entry in data["connections"].items():
                srtt = (
                    f"srtt {entry['srtt_min'] * 1e3:.1f}–{entry['srtt_max'] * 1e3:.1f}ms"
                    if entry["srtt_min"] is not None
                    else "srtt -"
                )
                subflows = (
                    f" subflows={entry['subflows']}" if entry["subflows"] else ""
                )
                lines.append(
                    f"  {key:<20} samples={entry['samples']:<6} {srtt} "
                    f"max_cwnd={entry['max_cwnd_bytes']:.0f}B "
                    f"timeouts={entry['timeouts']}{subflows}"
                )
        if data["steering"]:
            lines.append("")
            lines.append("steering decisions (packets per channel):")
            for key, counts in data["steering"].items():
                share = ", ".join(f"ch{c}={n}" for c, n in counts.items())
                lines.append(f"  {key:<20} {share}")
        return "\n".join(lines)


def summarize_file(path: Union[str, "object"]) -> TraceSummary:
    """Load a JSONL trace and build its :class:`TraceSummary`."""
    from repro.obs.export import read_jsonl

    return TraceSummary(read_jsonl(path))
