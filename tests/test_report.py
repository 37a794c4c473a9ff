"""ASCII reporting helpers."""

import pytest

from repro.analysis.report import format_series, format_table, geometric_mean


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bbbb", 2.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_precision(self):
        out = format_table(["v"], [[1.23456]], precision=2)
        assert "1.23" in out
        assert "1.2345" not in out

    def test_non_float_cells_verbatim(self):
        out = format_table(["a", "b"], [["xyz", 7]])
        assert "xyz" in out and "7" in out


class TestFormatSeries:
    def test_mapping_rendered(self):
        out = format_series({1.3: 0.5, 2.2: 0.9}, key_header="GHz", value_header="share")
        assert "GHz" in out
        assert "1.3" in out and "0.9" in out


class TestSparkline:
    def test_empty(self):
        from repro.analysis.report import sparkline

        assert sparkline([]) == ""

    def test_scales_to_max(self):
        from repro.analysis.report import sparkline

        s = sparkline([0.0, 5.0, 10.0])
        assert len(s) == 3
        assert s[0] == " "
        assert s[2] == "@"

    def test_width_truncates(self):
        from repro.analysis.report import sparkline

        assert len(sparkline([1.0] * 100, width=10)) == 10


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([0.0, -1.0, 4.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0
