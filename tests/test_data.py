"""Dataset parsing, conjecture checks, report CSV, and SVG plots."""

import io
import math

import pytest

from conftest import FIXTURE_CSV, TEMPLATE_CSV
from drillvol import (
    GeodesicRecord,
    ParameterError,
    ParseError,
    PlotError,
    ValidationError,
    analyze_records,
    emit_plot,
    emit_report,
    parse_records,
)
from drillvol.data import REPORT_COLUMNS, plot_series

HEADER = "manifold,index,length,tube_radius,vol_parent,vol_drilled"


def make_record(index=1, length=0.6, tube_radius=0.5, vol_parent=0.9427, offset=-0.1):
    """Record whose drilled volume sits `offset` above the conjectured bound."""
    return GeodesicRecord(
        manifold="synthetic",
        index=index,
        length=length,
        tube_radius=tube_radius,
        vol_parent=vol_parent,
        vol_drilled=vol_parent + math.pi * length + offset,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParse:
    def test_header_only(self):
        assert parse_records(HEADER + "\n") == []

    def test_template_is_header_only(self):
        with open(TEMPLATE_CSV, encoding="utf-8") as stream:
            assert parse_records(stream) == []

    def test_optional_radius_absent(self):
        recs = parse_records(HEADER + "\nweeks,1,0.5846,,0.9427,2.8281\n")
        assert len(recs) == 1
        assert recs[0].tube_radius is None
        assert recs[0].vol_drilled == 2.8281

    def test_optional_drilled_absent(self):
        recs = parse_records(HEADER + "\nweeks,1,0.5846,0.5,0.9427,\n")
        assert recs[0].vol_drilled is None

    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_records(HEADER + "\nweeks,1,-1,,0.9427,2.8\n")

    def test_infinite_length_rejected(self):
        with pytest.raises(ValidationError,
                           match="line 2: length must be positive and finite, got inf"):
            parse_records(HEADER + "\nm,1,inf,,0.9,\n")

    def test_short_row_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_records(HEADER + "\nweeks,1,0.5,,0.9,2.8\nweeks,2,0.6\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_records(HEADER + "\nweeks,1,abc,,0.9,2.8\n")

    def test_duplicate_index_rejected(self):
        text = HEADER + "\nweeks,1,0.5,,0.9,2.8\nweeks,1,0.6,,0.9,2.9\n"
        with pytest.raises(ValidationError, match="duplicate index 1"):
            parse_records(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_records("a,b,c\n1,2,3\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_records("")

    def test_extra_columns_ignored(self):
        text = ",".join(REPORT_COLUMNS) + "\nweeks,1,0.5,,0.9,2.8,3.0,false,,,\n"
        recs = parse_records(text)
        assert recs[0].length == 0.5

    def test_record_validation_direct(self):
        with pytest.raises(ValidationError):
            GeodesicRecord("m", 0, 0.5, None, 0.9, None)
        with pytest.raises(ValidationError):
            GeodesicRecord("m", 1, 0.5, -0.3, 0.9, None)
        with pytest.raises(ValidationError):
            GeodesicRecord("", 1, 0.5, None, 0.9, None)


# ---------------------------------------------------------------------------
# Analysis: the conjecture check and the tight-bound check
# ---------------------------------------------------------------------------


class TestBridgemanCheck:
    def test_flags_exactly_constructed_violations(self):
        records = [make_record(index=i, offset=0.01 if i % 3 == 0 else -0.01)
                   for i in range(1, 13)]
        report = analyze_records(records)
        flagged = {row.record.index for row in report.rows if row.violation}
        assert flagged == {3, 6, 9, 12}
        assert report.violation_count == 4
        assert report.max_violation_margin == pytest.approx(0.01, abs=1e-12)

    def test_equality_conforms(self):
        report = analyze_records([make_record(offset=0.0)])
        assert report.rows[0].violation is False

    def test_missing_drilled_skipped_with_notice(self):
        rec = GeodesicRecord("m", 1, 0.5, None, 0.9, None)
        report = analyze_records([rec])
        assert report.rows[0].violation is None
        assert "skipped" in report.rows[0].notices[0]
        assert report.violation_count == 0

    def test_overflowing_bound_rejected(self):
        # vol_parent + pi * 1e308 is inf: no report may carry it
        rec = parse_records(HEADER + "\nm,1,1e308,,0.9,2.0\n")[0]
        with pytest.raises(ParameterError, match="not finite"):
            analyze_records([rec])


class TestBoundConsistencyCheck:
    def test_consistent_record(self):
        report = analyze_records([make_record(offset=-0.1)])
        assert report.rows[0].consistent is True
        assert report.rows[0].bound_tight is not None

    def test_inflated_record_flagged(self):
        rec = GeodesicRecord("m", 1, 0.6, 0.5, 0.9427, 50.0)
        report = analyze_records([rec])
        assert report.rows[0].consistent is False
        assert report.anomaly_count == 1

    def test_oversized_tube_warns_but_evaluates(self):
        rec = GeodesicRecord("m", 1, 5.0, 2.0, 0.1, 0.5)
        report = analyze_records([rec])
        assert report.rows[0].consistent is not None
        assert any("tube volume" in n for n in report.rows[0].notices)

    def test_missing_radius_skipped(self):
        rec = GeodesicRecord("m", 1, 0.5, None, 0.9, 2.0)
        report = analyze_records([rec])
        assert report.rows[0].consistent is None
        assert "skipped" in report.rows[0].notices[0]


# ---------------------------------------------------------------------------
# Report emission and round trip
# ---------------------------------------------------------------------------


class TestEmitReport:
    def test_empty_report(self):
        sink = io.StringIO()
        emit_report(analyze_records([]), sink)
        assert sink.getvalue().splitlines() == [",".join(REPORT_COLUMNS)]

    def test_single_record_two_lines(self):
        sink = io.StringIO()
        emit_report(analyze_records([make_record()]), sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 11

    def test_round_trip_precision(self):
        records = [make_record(index=i, length=0.1 + 0.617283945 * i, offset=-0.05 * i)
                   for i in range(1, 8)]
        sink = io.StringIO()
        emit_report(analyze_records(records), sink)
        parsed = parse_records(sink.getvalue())
        for orig, back in zip(records, parsed):
            assert back.index == orig.index
            assert back.length == pytest.approx(orig.length, abs=1e-12)
            assert back.tube_radius == pytest.approx(orig.tube_radius, abs=1e-12)
            assert back.vol_parent == pytest.approx(orig.vol_parent, abs=1e-12)
            assert back.vol_drilled == pytest.approx(orig.vol_drilled, abs=1e-12)

    @pytest.mark.parametrize("row", ["m,1,1e-13,,0.9,2.0", "m,1,1e200,,0.9,",
                                     "m,1,6e-13,,0.9,2.0", "m,1,1.23456789e-7,,0.9,"])
    def test_extreme_lengths_round_trip(self, row):
        """A length that 12 decimals would write with few significant digits,
        as 0, or as 201 digits, parses back to the same value."""
        records = parse_records(HEADER + "\n" + row + "\n")
        sink = io.StringIO()
        emit_report(analyze_records(records), sink)
        assert parse_records(sink.getvalue()) == records
        assert len(sink.getvalue()) < 200


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------


class TestEmitPlot:
    def two_record_report(self):
        return analyze_records([make_record(index=1), make_record(index=2, length=0.8)])

    def test_marker_count(self):
        sink = io.StringIO()
        emit_plot(self.two_record_report(), sink, style="linear")
        svg = sink.getvalue()
        assert svg.count('class="marker"') == 4
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="960"' in svg and 'height="640"' in svg

    def test_deterministic_bytes(self):
        a, b = io.StringIO(), io.StringIO()
        emit_plot(self.two_record_report(), a, style="linear")
        emit_plot(self.two_record_report(), b, style="linear")
        assert a.getvalue().encode() == b.getvalue().encode()

    def test_log10_maps_ten_to_one(self):
        rec = GeodesicRecord("m", 1, 0.6, 0.5, 0.9427, 10.0)
        xs, drilled, bound = plot_series(analyze_records([rec]), "log10")
        assert drilled == [pytest.approx(1.0, abs=1e-15)]
        assert xs == [1]

    def test_series_lengths_match_records(self):
        report = analyze_records([make_record(index=i) for i in range(1, 9)])
        xs, drilled, bound = plot_series(report, "linear")
        assert len(xs) == len(drilled) == len(bound) == 8

    def test_empty_report_errors(self):
        with pytest.raises(PlotError):
            emit_plot(analyze_records([]), io.StringIO())

    def test_log10_requires_radius(self):
        rec = GeodesicRecord("m", 1, 0.6, None, 0.9427, 2.0)
        with pytest.raises(PlotError):
            emit_plot(analyze_records([rec]), io.StringIO(), style="log10")

    def test_legend_labels(self):
        sink = io.StringIO()
        emit_plot(self.two_record_report(), sink, style="log10")
        svg = sink.getvalue()
        assert "log10 Vol(drilled)" in svg
        assert "log10 coarse bound" in svg


# ---------------------------------------------------------------------------
# Bundled fixture
# ---------------------------------------------------------------------------


class TestBundledFixture:
    def test_forty_records_five_violations(self):
        with open(FIXTURE_CSV, encoding="utf-8") as stream:
            records = parse_records(stream)
        assert len(records) == 40
        report = analyze_records(records)
        flagged = sorted(row.record.index for row in report.rows if row.violation)
        assert flagged == [3, 11, 18, 27, 36]
        assert report.anomaly_count == 0
        assert len(report.notices) == 2  # two records ship without a radius
