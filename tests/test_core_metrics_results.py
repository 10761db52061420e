"""Unit tests for metrics and result containers."""

import pytest

from repro.core.metrics import Cdf, mean_throughput_bps, percentile, throughput_series
from repro.core.results import ExperimentResult, PaperComparison, SeriesSet, Table


class TestPercentile:
    def test_endpoints(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        assert percentile([7.0], 95) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCdf:
    def test_summary_stats(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0, 5.0])
        assert cdf.mean == 3.0
        assert cdf.median == 3.0
        assert cdf.max == 5.0
        assert cdf.samples == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_points_monotonic(self):
        cdf = Cdf(range(100))
        points = cdf.points(count=10)
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_points_count_validation(self):
        with pytest.raises(ValueError):
            Cdf([1.0, 2.0]).points(count=1)


class TestThroughputSeries:
    def test_uniform_rate(self):
        # 1000 bytes every 0.1 s = 80 kbit/s.
        timeline = [(0.1 * (i + 1), 1000 * (i + 1)) for i in range(30)]
        series = throughput_series(timeline, interval=1.0, end_time=3.0)
        assert len(series) == 3
        # Bin 0 misses the point landing exactly on the boundary (72 kbit/s);
        # interior bins see the full 80 kbit/s.
        assert series[0][1] == pytest.approx(72_000)
        assert series[1][1] == pytest.approx(80_000)
        assert series[2][1] == pytest.approx(80_000)

    def test_idle_interval_is_zero(self):
        timeline = [(0.5, 1000), (2.5, 2000)]
        series = throughput_series(timeline, interval=1.0, end_time=3.0)
        assert series[1][1] == 0.0

    def test_empty_timeline(self):
        assert throughput_series([], interval=1.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_series([(1.0, 100)], interval=0)

    def test_mean_throughput_window(self):
        timeline = [(1.0, 1000), (2.0, 2000), (3.0, 5000)]
        assert mean_throughput_bps(timeline, start=2.0, end=3.0) == pytest.approx(
            3000 * 8
        )

    def test_mean_throughput_validation(self):
        with pytest.raises(ValueError):
            mean_throughput_bps([(1.0, 100)], start=2.0, end=2.0)


class TestTable:
    def test_render_aligns_columns(self):
        table = Table(["Traces", "eMBB-only"], title="Web PLT")
        table.add_row("Stat.", 1697.3)
        table.add_row("Drv.", 2334.3)
        text = table.render()
        assert "Web PLT" in text
        assert "1697.3" in text
        assert text.splitlines()[1].index("|") == text.splitlines()[3].index("|")

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)


class TestSeriesSetAndResult:
    def test_series_render_samples_long_series(self):
        series = SeriesSet(title="rtt", x_label="t", y_label="ms")
        series.add("bbr", [(float(i), float(i)) for i in range(1000)])
        text = series.render(max_points=5)
        bbr_line = next(line for line in text.splitlines() if "bbr" in line)
        assert bbr_line.count("(") == 5

    def test_paper_comparison_ratio(self):
        comparison = PaperComparison("PLT", paper_value=100.0, measured_value=110.0, unit="ms")
        assert comparison.ratio == pytest.approx(1.1)
        assert "1.10x" in comparison.render()

    def test_experiment_result_render(self):
        result = ExperimentResult(name="fig1a", description="CCA throughputs")
        table = Table(["cca", "mbps"])
        table.add_row("cubic", 60.0)
        result.tables.append(table)
        result.comparisons.append(PaperComparison("cubic", 60.0, 58.0, " Mbps"))
        result.notes.append("shape holds")
        text = result.render()
        assert "fig1a" in text and "cubic" in text and "shape holds" in text

    def test_shapes_and_pins_render_their_verdicts(self):
        result = ExperimentResult(
            name="fig1b",
            shapes={"cubic > bbr": True, "bbr > vegas": False},
            pins={"max RTT < 45 ms": True},
        )
        lines = result.render().splitlines()
        assert "shape: cubic > bbr: held" in lines
        assert "shape: bbr > vegas: FAILED" in lines
        assert "divergence pin: max RTT < 45 ms: held" in lines
        assert lines.index("shape: bbr > vegas: FAILED") < lines.index(
            "divergence pin: max RTT < 45 ms: held"
        )
