"""Unit tests for the benchmark reporting renderers."""

from paperbench.harness import (
    CaptureMeasurement,
    OperatorMeasurement,
    QueryMeasurement,
    SizeMeasurement,
    TitianMeasurement,
)
from paperbench.reporting import (
    format_table,
    render_capture_overhead,
    render_operator_overhead,
    render_provenance_sizes,
    render_query_times,
    render_titian_comparison,
)


class TestFormatTable:
    def test_alignment(self):
        table = format_table(("a", "bb"), [("1", "2"), ("33", "4444")])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equally wide

    def test_empty_rows(self):
        table = format_table(("x",), [])
        assert table.splitlines()[0].strip() == "x"


class TestRenderers:
    def test_capture_overhead(self):
        measurement = CaptureMeasurement("T1", 1.0, (0.1, 0.0), (0.15, 0.0), 42)
        text = render_capture_overhead([measurement], "title")
        assert "title" in text
        assert "+50%" in text
        assert "42" in text

    def test_capture_overhead_zero_plain(self):
        measurement = CaptureMeasurement("T1", 1.0, (0.0, 0.0), (0.1, 0.0), 1)
        assert measurement.overhead_pct == 0.0

    def test_provenance_sizes_units(self):
        small = SizeMeasurement("T1", 1.0, 500, 100, 10)
        big = SizeMeasurement("D3", 1.0, 2_000_000, 300_000, 99)
        text = render_provenance_sizes([small, big], "sizes")
        assert "500B" in text
        assert "2.00MB" in text

    def test_query_times_speedup(self):
        measurement = QueryMeasurement("T3", 1.0, 0.01, 0.05, 2)
        text = render_query_times([measurement], "queries")
        assert "x5.0" in text

    def test_query_times_infinite_speedup(self):
        measurement = QueryMeasurement("T3", 1.0, 0.0, 0.05, 2)
        assert measurement.speedup == float("inf")

    def test_titian(self):
        measurement = TitianMeasurement(1.0, 1.06, 1.07)
        text = render_titian_comparison(measurement)
        assert "+6.00%" in text
        assert "+7.00%" in text

    def test_operator_overhead(self):
        measurement = OperatorMeasurement("flatten", 0.1, 0.12)
        text = render_operator_overhead([measurement])
        assert "flatten" in text
        assert "+20%" in text
