"""Tests for the repro.obs tracing layer: context, wiring, spans, probes."""

import pytest

from repro.core.api import HvcNetwork
from repro.errors import ScenarioError
from repro.net.hvc import fixed_embb_spec, urllc_spec
from repro.obs import (
    Observability,
    TraceBuffer,
    validate_record,
)
from repro.obs.probes import probe_for
from repro.transport import next_flow_id
from repro.transport.multipath import MultipathConnection
from repro.units import kb, kib, mbps


def traced_net(specs=None, steering="dchannel", **obs_kwargs):
    obs_kwargs.setdefault("tracing", True)
    net = HvcNetwork(
        specs if specs is not None else [fixed_embb_spec(), urllc_spec()],
        steering=steering,
    )
    obs = net.attach_obs(Observability(**obs_kwargs))
    return net, obs


class TestObservabilityContext:
    def test_defaults_are_off(self):
        obs = Observability()
        assert obs.trace is None
        assert not obs.tracing
        assert not obs.probes

    def test_probes_follow_tracing(self):
        assert Observability(tracing=True).probes
        assert not Observability(tracing=True, probes=False).probes
        assert Observability(tracing=False, probes=True).probes

    def test_trace_buffer_caps_and_counts_drops(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(5):
            buffer.append({"kind": "steer", "time": float(i)})
        assert len(buffer.records) == 2
        assert buffer.dropped == 3

    def test_attach_obs_is_exclusive(self):
        net, _obs = traced_net()
        with pytest.raises(ScenarioError):
            net.attach_obs(Observability())


class TestMetricsCollectors:
    """Tracing-off mode: pull collectors alone must fill the registry."""

    def test_link_counters_match_stats_after_run(self):
        net = HvcNetwork([fixed_embb_spec(), urllc_spec()], steering="dchannel")
        obs = net.attach_obs()  # default context: tracing off
        received = []
        pair = net.open_connection(on_server_message=received.append)
        pair.client.send_message(kb(200), message_id=1)
        net.run(until=10.0)
        assert received
        for channel in net.channels:
            for direction, link in (("up", channel.uplink), ("down", channel.downlink)):
                labels = {"channel": channel.name, "direction": direction}
                assert obs.registry.value("link.offered", **labels) == link.stats.sent
                assert (
                    obs.registry.value("link.delivered", **labels)
                    == link.stats.delivered
                )
                assert (
                    obs.registry.value("link.bytes_delivered", **labels)
                    == link.stats.bytes_delivered
                )

    def test_device_counters_match_stats(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        obs = net.attach_obs()
        pair = net.open_connection()
        pair.client.send_message(kb(50), message_id=1)
        net.run(until=5.0)
        for device in (net.client, net.server):
            assert (
                obs.registry.value("device.packets_sent", host=device.name)
                == device.stats.packets_sent
            )
            assert (
                obs.registry.value("device.packets_received", host=device.name)
                == device.stats.packets_received
            )

    def test_kernel_event_counter(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        obs = net.attach_obs()
        net.run(until=1.0)
        assert obs.registry.value("sim.events_processed") == net.sim.events_processed

    def test_no_trace_adapters_installed_when_off(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        net.attach_obs()
        assert net.channels[0].uplink.obs is None
        assert net.client.obs is None
        assert net.client.obs_ctx is not None  # probes still discoverable


class TestPacketSpans:
    def test_data_packet_full_span(self):
        net, obs = traced_net()
        received = []
        pair = net.open_connection(on_server_message=received.append)
        pair.client.send_message(kb(40), message_id=1)
        net.run(until=5.0)
        assert received
        records = obs.trace.records
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["kind"], []).append(r)
        # Pick one delivered uplink data packet and walk its span.
        delivered = [
            r for r in by_kind["deliver"]
            if r["direction"] == "up" and r["ptype"] == "data"
        ]
        assert delivered
        target = delivered[0]
        key = (target["packet_id"], target["copy"])
        span = [
            r for r in records
            if r.get("packet_id") == target["packet_id"]
            and r.get("copy", target["copy"]) == target["copy"]
        ]
        kinds = [r["kind"] for r in span]
        for expected in ("steer", "enqueue", "transmit", "deliver", "dispatch"):
            assert expected in kinds, (expected, kinds, key)
        # Lifecycle order: enqueue <= transmit <= deliver <= dispatch.
        times = {r["kind"]: r["time"] for r in span}
        assert times["enqueue"] <= times["transmit"] <= times["deliver"]
        assert times["deliver"] <= times["dispatch"]

    def test_steer_records_carry_choices_and_policy(self):
        net, obs = traced_net()
        pair = net.open_connection()
        pair.client.send_message(kb(20), message_id=1)
        net.run(until=3.0)
        steers = [r for r in obs.trace.records if r["kind"] == "steer"]
        assert steers
        assert all(r["policy"] for r in steers)
        assert all(len(r["channels"]) >= 1 for r in steers)
        # Steering decisions also land in the registry, per channel.
        total = sum(
            entry["value"]
            for entry in obs.registry.snapshot().get("steer.decisions", [])
        )
        assert total >= len(steers)

    def test_down_channel_drop_has_reason(self):
        net, obs = traced_net(specs=[fixed_embb_spec()], steering="single")
        pair = net.open_connection()
        pair.client.send_message(kb(20), message_id=1)
        net.sim.schedule(0.01, lambda: net.channels[0].fail())
        net.run(until=1.0)
        reasons = {r["reason"] for r in obs.trace.records if r["kind"] == "drop"}
        assert "down" in reasons

    def test_overflow_drop_has_reason(self):
        spec = fixed_embb_spec(rate_bps=mbps(1))
        spec.up.queue_bytes = kib(4)  # tiny queue: cubic overruns it fast
        net, obs = traced_net(specs=[spec], steering="single")
        pair = net.open_connection(cc="cubic")
        pair.client.send_message(kb(200), message_id=1)
        net.run(until=5.0)
        reasons = {r["reason"] for r in obs.trace.records if r["kind"] == "drop"}
        assert "overflow" in reasons
        overflow = obs.registry.value(
            "trace.link.overflow_drops", channel=net.channels[0].name, direction="up"
        )
        assert overflow == net.channels[0].uplink.stats.overflow_drops > 0

    def test_every_record_is_schema_valid(self):
        net, obs = traced_net()
        pair = net.open_connection()
        pair.client.send_message(kb(30), message_id=1)
        net.run(until=3.0)
        for record in obs.export_records():
            assert validate_record(record) == []


class TestTransportProbes:
    def test_connection_probe_samples_on_ack(self):
        net, obs = traced_net()
        pair = net.open_connection(cc="cubic")
        pair.client.send_message(kb(100), message_id=1)
        net.run(until=5.0)
        series = obs.transport_series[("client", pair.client.flow_id)]
        assert series.samples
        sample = series.samples[-1]
        assert sample.cwnd_bytes > 0
        assert sample.rto > 0
        assert any(s.srtt is not None for s in series.samples)
        times = [s.time for s in series.samples]
        assert times == sorted(times)

    def test_timeouts_recorded_with_backoff(self):
        net, obs = traced_net(specs=[fixed_embb_spec()], steering="single")
        pair = net.open_connection()
        pair.client.send_message(kb(20), message_id=1)
        # Long enough for two RTO fires before recovery: blackout-suppressed
        # timeouts probe too, but the channel-up re-probe ends the sequence,
        # so a short outage would only show one.
        net.sim.schedule(0.01, lambda: net.channels[0].fail())
        net.sim.schedule(5.0, lambda: net.channels[0].restore())
        net.run(until=20.0)
        series = obs.transport_series[("client", pair.client.flow_id)]
        rtos = [s.rto for s in series.samples if s.event == "timeout"]
        assert len(rtos) >= 2
        # Exponential backoff: consecutive timeout samples grow the RTO.
        assert any(b > a for a, b in zip(rtos, rtos[1:]))
        assert (
            obs.registry.value(
                "transport.timeouts", host="client", flow=pair.client.flow_id
            )
            == len(rtos)
        )

    def test_multipath_probe_per_subflow_series(self):
        net, obs = traced_net(steering="single")
        flow_id = next_flow_id()
        received = []
        sender = MultipathConnection(net.sim, net.client, flow_id, scheduler="hvc")
        MultipathConnection(
            net.sim, net.server, flow_id, scheduler="hvc",
            on_message=received.append,
        )
        sender.send_message(kb(200), message_id=1)
        net.run(until=10.0)
        assert received
        subflow_keys = [
            key for key in obs.transport_series
            if key[0] == "client" and key[1] == flow_id and len(key) == 3
        ]
        assert len(subflow_keys) >= 2  # both channels carried data
        for key in subflow_keys:
            assert obs.transport_series[key].samples

    def test_probe_for_off_without_context(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        assert probe_for(net.client, 1) is None
        pair = net.open_connection()
        assert pair.client.obs is None

    def test_probes_can_run_without_tracing(self):
        net = HvcNetwork([fixed_embb_spec()], steering="single")
        obs = net.attach_obs(Observability(tracing=False, probes=True))
        pair = net.open_connection()
        pair.client.send_message(kb(30), message_id=1)
        net.run(until=3.0)
        assert obs.trace is None
        assert obs.transport_series[("client", pair.client.flow_id)].samples


class TestExport:
    def test_export_meta_first_then_metrics_last(self, tmp_path):
        net, obs = traced_net()
        pair = net.open_connection()
        pair.client.send_message(kb(10), message_id=1)
        net.run(until=2.0)
        path = tmp_path / "trace.jsonl"
        count = obs.export_jsonl(path)
        from repro.obs import read_jsonl, validate_file

        records = read_jsonl(path)
        assert len(records) == count
        assert records[0]["kind"] == "meta"
        assert records[0]["version"] == 1
        assert {c["name"] for c in records[0]["channels"]} == {"embb", "urllc"}
        assert records[0]["hosts"] == ["client", "server"]
        assert records[-1]["kind"] == "metrics"
        total, errors = validate_file(path)
        assert total == count
        assert errors == []

    def test_validate_rejects_bad_records(self, tmp_path):
        from repro.obs import validate_file, write_jsonl

        path = tmp_path / "bad.jsonl"
        write_jsonl(
            [
                {"kind": "meta", "time": 0.0, "version": 1},
                {"kind": "drop", "time": 0.1, "channel": "embb", "direction": "up",
                 "packet_id": 1, "copy": 0, "flow": 1, "ptype": "data",
                 "bytes": 100, "reason": "cosmic-rays"},
                {"kind": "enqueue", "time": "soon"},
                {"kind": "wat", "time": 0.2},
            ],
            path,
        )
        _count, errors = validate_file(path)
        assert any("unknown reason" in e for e in errors)
        assert any("unknown record kind" in e for e in errors)
        assert any("missing field" in e for e in errors)

    def test_bool_does_not_satisfy_int_fields(self):
        record = {
            "kind": "dispatch", "time": 0.1, "host": "client",
            "packet_id": True, "copy": 0, "flow": 1,
        }
        assert any("packet_id" in e for e in validate_record(record))

    def test_validate_empty_and_headless_files(self, tmp_path):
        from repro.obs import validate_file, write_jsonl

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        _count, errors = validate_file(empty)
        assert any("empty" in e for e in errors)
        headless = tmp_path / "headless.jsonl"
        write_jsonl([{"kind": "steer", "time": 0.0, "host": "client",
                      "policy": "dchannel", "packet_id": 1, "flow": 1,
                      "ptype": "data", "bytes": 10, "channels": [0]}], headless)
        _count, errors = validate_file(headless)
        assert any("must be 'meta'" in e for e in errors)

    def test_trace_capacity_overflow_is_reported(self):
        net, obs = traced_net(trace_capacity=100)
        pair = net.open_connection(cc="cubic")
        pair.client.send_message(kb(100), message_id=1)
        net.run(until=5.0)
        assert obs.trace.dropped > 0
        records = obs.export_records()
        metrics = records[-1]["metrics"]
        assert metrics["trace.records_dropped"][0]["value"] == obs.trace.dropped
