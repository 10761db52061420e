"""Tests for trace summaries, the obs CLI, and counter reconciliation.

The headline acceptance check lives here: ``repro obs summarize`` must
reproduce the live ChannelMonitor's per-channel utilization from an
exported trace alone, and the obs counters (both the pull-collected
``link.*`` family and the push-incremented ``trace.link.*`` family) must
reconcile exactly with ``LinkStats`` on mixed workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import HvcNetwork
from repro.apps.bulk import BulkTransfer
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.obs import Observability, TraceSummary, summarize_file
from repro.obs.cli import main as obs_main
from repro.units import kb


def traced_bulk_net(duration=6.0, steering="dchannel", cc="cubic"):
    net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steering)
    obs = net.attach_obs(Observability(tracing=True))
    BulkTransfer(net, cc=cc)
    net.run(until=duration)
    return net, obs


class TestMonitorEquivalence:
    def test_summary_utilization_matches_live_monitor(self, tmp_path):
        net, obs = traced_bulk_net()
        path = tmp_path / "bulk.jsonl"
        obs.export_jsonl(path)
        summary = summarize_file(path)
        monitor = net.obs_monitor
        for channel in net.channels:
            for direction in ("up", "down"):
                live = monitor.series[channel.name].utilization(direction)
                from_trace = summary.utilization(channel.name, direction)
                # Identical math over identical samples: exact, not approx.
                assert from_trace == live, (channel.name, direction)

    def test_summary_link_counts_match_stats(self):
        net, obs = traced_bulk_net()
        summary = TraceSummary(obs.export_records())
        for channel in net.channels:
            for direction, link in (("up", channel.uplink), ("down", channel.downlink)):
                counts = summary.link_counts[(channel.name, direction)]
                assert counts["delivered"] == link.stats.delivered
                assert counts["bytes_delivered"] == link.stats.bytes_delivered
                drops = (
                    counts["drop_overflow"] + counts["drop_loss"] + counts["drop_down"]
                )
                assert drops == link.stats.overflow_drops + link.stats.lost

    def test_latency_spans_positive_and_ordered(self):
        _net, obs = traced_bulk_net(duration=4.0)
        summary = TraceSummary(obs.export_records())
        embb_up = summary.latencies[("embb", "up")]
        assert embb_up
        assert all(lat > 0 for lat in embb_up)
        assert embb_up == sorted(embb_up)

    def test_to_dict_and_render_cover_all_sections(self):
        _net, obs = traced_bulk_net(duration=4.0)
        summary = TraceSummary(obs.export_records())
        data = summary.to_dict()
        assert data["meta"]["version"] == 1
        assert any(key.startswith("embb/") for key in data["channels"])
        assert data["connections"]
        assert data["steering"]
        text = summary.render()
        for section in ("per-channel links:", "per-connection transport probes:",
                        "steering decisions"):
            assert section in text

    def test_empty_trace_summary(self):
        summary = TraceSummary([])
        assert summary.utilization("embb") == 0.0
        assert summary.to_dict()["channels"] == {}


class TestObsCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        _net, obs = traced_bulk_net(duration=3.0)
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(path)
        return path

    def test_summarize_renders(self, trace_path, capsys):
        assert obs_main(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-channel links:" in out
        assert "util=" in out

    def test_summarize_json(self, trace_path, capsys):
        import json

        assert obs_main(["summarize", str(trace_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "channels" in data

    def test_validate_ok(self, trace_path, capsys):
        assert obs_main(["validate", str(trace_path)]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_validate_bad_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "nope", "time": 0.0}\n')
        assert obs_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_repro_module_dispatches_obs(self, trace_path, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["obs", "validate", str(trace_path)]) == 0
        assert "schema valid" in capsys.readouterr().out


class TestCounterReconciliation:
    """Property: obs counters == LinkStats totals on mixed workloads."""

    @staticmethod
    def _reconcile(net, obs):
        registry = obs.registry
        for channel in net.channels:
            for direction, link in (("up", channel.uplink), ("down", channel.downlink)):
                labels = {"channel": channel.name, "direction": direction}
                stats = link.stats
                # Pull family: collectors sync from LinkStats.
                assert registry.value("link.offered", **labels) == stats.sent
                assert registry.value("link.delivered", **labels) == stats.delivered
                assert registry.value("link.lost", **labels) == stats.lost
                assert (
                    registry.value("link.overflow_drops", **labels)
                    == stats.overflow_drops
                )
                assert (
                    registry.value("link.bytes_delivered", **labels)
                    == stats.bytes_delivered
                )
                # Push family: LinkObs incremented these per event.
                assert registry.value("trace.link.offered", **labels) == stats.sent
                assert (
                    registry.value("trace.link.delivered", **labels)
                    == stats.delivered
                )
                assert registry.value("trace.link.lost", **labels) == stats.lost
                assert (
                    registry.value("trace.link.overflow_drops", **labels)
                    == stats.overflow_drops
                )
                assert (
                    registry.value("trace.link.bytes_delivered", **labels)
                    == stats.bytes_delivered
                )

    @settings(max_examples=8, deadline=None)
    @given(
        message_kb=st.integers(min_value=5, max_value=120),
        datagram_kb=st.integers(min_value=1, max_value=30),
        cc=st.sampled_from(["cubic", "bbr", "vegas"]),
        steering=st.sampled_from(["dchannel", "round-robin", "redundant"]),
        flap_urllc=st.booleans(),
    )
    def test_mixed_workload_reconciles(
        self, message_kb, datagram_kb, cc, steering, flap_urllc
    ):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering=steering)
        obs = net.attach_obs(Observability(tracing=True))
        received = []
        pair = net.open_connection(cc=cc, on_server_message=received.append)
        dgram = net.open_datagram()
        pair.client.send_message(kb(message_kb), message_id=1)
        dgram.client.send_message(kb(datagram_kb), message_id=2)
        if flap_urllc:
            net.sim.schedule(0.2, lambda: net.channel_named("urllc").fail())
            net.sim.schedule(1.0, lambda: net.channel_named("urllc").restore())
        net.run(until=15.0)
        assert received  # the reliable message completed
        self._reconcile(net, obs)
        # Device totals reconcile through the pull collectors too.
        for device in (net.client, net.server):
            for metric, attr in (
                ("device.packets_sent", "packets_sent"),
                ("device.packets_received", "packets_received"),
                ("device.bytes_sent", "bytes_sent"),
                ("device.bytes_received", "bytes_received"),
            ):
                assert obs.registry.value(metric, host=device.name) == getattr(
                    device.stats, attr
                )

    def test_lossy_channel_reconciles(self):
        from repro.net.hvc import leo_spec

        net = HvcNetwork([leo_spec(loss_rate=0.05)], steering="single")
        obs = net.attach_obs(Observability(tracing=True))
        received = []
        pair = net.open_connection(cc="cubic", on_server_message=received.append)
        pair.client.send_message(kb(150), message_id=1)
        net.run(until=20.0)
        assert received
        assert any(
            ch.uplink.stats.lost + ch.downlink.stats.lost > 0 for ch in net.channels
        )
        self._reconcile(net, obs)
