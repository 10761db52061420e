"""Unit tests for the repro.obs metrics registry."""

import pytest

from repro.obs.registry import MetricsRegistry


class TestCounters:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("link.delivered", channel="embb")
        counter.inc()
        counter.add(4)
        assert counter.value == 5

    def test_set_total_adopts_but_never_regresses(self):
        registry = MetricsRegistry()
        counter = registry.counter("link.offered")
        counter.set_total(10)
        counter.set_total(7)  # stale collector read must not rewind
        assert counter.value == 10

    def test_handles_are_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("steer.decisions", host="client", channel=0)
        b = registry.counter("steer.decisions", channel=0, host="client")
        c = registry.counter("steer.decisions", host="client", channel=1)
        assert a is b
        assert a is not c

    def test_label_values_stringified(self):
        registry = MetricsRegistry()
        counter = registry.counter("steer.decisions", channel=0)
        counter.inc()
        assert registry.value("steer.decisions", channel="0") == 1


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("link.backlog_bytes", channel="embb")
        gauge.set(100)
        gauge.set(40)
        assert registry.value("link.backlog_bytes", channel="embb") == 40

    def test_histogram_summary_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("span.latency")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert sum(hist.buckets.values()) == 3


class TestCollectors:
    def test_collector_syncs_external_totals(self):
        registry = MetricsRegistry()

        class Stats:
            sent = 0

        stats = Stats()
        counter = registry.counter("link.offered")
        registry.add_collector(lambda _r: counter.set_total(stats.sent))
        stats.sent = 42
        assert registry.value("link.offered") == 42
        stats.sent = 50
        snapshot = registry.snapshot()
        assert snapshot["link.offered"][0]["value"] == 50

    def test_value_unknown_metric_is_none(self):
        assert MetricsRegistry().value("no.such.metric") is None


class TestRendering:
    def test_snapshot_groups_by_family(self):
        registry = MetricsRegistry()
        registry.counter("link.delivered", channel="embb", direction="up").add(3)
        registry.counter("link.delivered", channel="urllc", direction="up").add(1)
        registry.gauge("link.backlog_bytes", channel="embb", direction="up").set(9)
        snapshot = registry.snapshot()
        assert len(snapshot["link.delivered"]) == 2
        assert snapshot["link.backlog_bytes"][0]["labels"] == {
            "channel": "embb",
            "direction": "up",
        }

    def test_render_one_line_per_metric(self):
        registry = MetricsRegistry()
        registry.counter("sim.events_processed").add(7)
        registry.histogram("span.latency", channel="embb").observe(0.5)
        text = registry.render()
        assert "sim.events_processed 7" in text
        assert "span.latency{channel=embb} count=1" in text
