"""Drilled-geodesic datasets: parsing, conjecture checks, reports and plots.

Input CSV schema (produced by external tube/drilling software):

    manifold,index,length,tube_radius,vol_parent,vol_drilled

Comma separated, dot decimal, UTF-8, first line header, empty cell means an
optional value is absent (tube_radius and vol_drilled are optional).  Extra
columns after the six are ignored, so emitted reports parse back.

The analysis is one pass that gives each record one row.  It flags records
violating the conjectured drilling bound vol_drilled <= vol_parent + pi *
length (strict inequality flags, equality conforms) and cross-checks
vol_drilled against the tight drilled-volume bound wherever a tube radius is
present.  A check that cannot run leaves its column empty and a notice; the
bound's warnings are notices too.  Reports append five computed columns, and
the scatter plots mirror the two standard views: raw volumes against the
conjectured bound, and log10 volumes against the coarse bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Union

from .bounds import bridgeman_bound, drilled_volume_bound
from .errors import ParseError, PlotError, ValidationError

__all__ = [
    "INPUT_COLUMNS",
    "REPORT_COLUMNS",
    "GeodesicRecord",
    "AnalysisRow",
    "AnalysisReport",
    "parse_records",
    "analyze_records",
    "emit_report",
    "emit_plot",
    "plot_series",
]

INPUT_COLUMNS = ("manifold", "index", "length", "tube_radius", "vol_parent", "vol_drilled")
REPORT_COLUMNS = INPUT_COLUMNS + ("bridgeman_bound", "violation", "bound_tight", "bound_coarse", "consistent")

# Fixed 12-decimal writer, which keeps at least 9 significant digits from
# 1e-4 on.  Trailing zeros are stripped for readability.  A nonzero value
# below 1e-4, which would lose digits, and one of 1e16 or more, which would
# print every integer digit, are written as the shortest round-trip repr.
def _format_number(value: float) -> str:
    if value != 0.0 and not 1e-4 <= abs(value) < 1e16:
        return repr(float(value))
    return f"{value:.12f}".rstrip("0").rstrip(".")


@dataclass(frozen=True)
class GeodesicRecord:
    """One drilled geodesic of one parent manifold."""

    manifold: str
    index: int
    length: float
    tube_radius: Optional[float]
    vol_parent: float
    vol_drilled: Optional[float]

    def __post_init__(self) -> None:
        if not self.manifold:
            raise ValidationError("manifold id must be nonempty")
        if self.index < 1:
            raise ValidationError(f"index must be >= 1, got {self.index}")
        for name in ("length", "vol_parent"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        for name in ("tube_radius", "vol_drilled"):
            v = getattr(self, name)
            if v is not None and (not (v > 0.0) or not math.isfinite(v)):
                raise ValidationError(f"{name} must be positive and finite when present, got {v}")


def _parse_int(cell: str) -> int:
    if not cell:
        raise ValueError("missing integer value")
    return int(cell)


def _parse_float(cell: str) -> float:
    if not cell:
        raise ValueError("missing numeric value")
    return float(cell)


def _parse_optional(cell: str) -> Optional[float]:
    return float(cell) if cell else None


# One parser per input column, in column order
_PARSERS = (str, _parse_int, _parse_float, _parse_optional, _parse_float, _parse_optional)


def parse_records(source: Union[str, IO[str], Iterable[str]]) -> list[GeodesicRecord]:
    """Parse a CSV stream into validated records.

    ``source`` is a file-like object, an iterable of lines, or a whole CSV
    text; one UTF-8 byte order mark before the header is dropped.  Raises
    :class:`ParseError` with a line number for malformed rows and
    :class:`ValidationError` for well-formed rows with invalid content.
    """
    reader = csv.reader(source.splitlines() if isinstance(source, str) else source)
    records: list[GeodesicRecord] = []
    seen: dict[int, int] = {}
    header: Optional[list[str]] = None
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        if header is None:
            row[0] = row[0].removeprefix("\ufeff")
            header = [cell.strip() for cell in row]
            if tuple(header[: len(INPUT_COLUMNS)]) != INPUT_COLUMNS:
                raise ParseError(
                    f"line {lineno}: header must start with {','.join(INPUT_COLUMNS)}, "
                    f"got {','.join(header) or '<empty>'}"
                )
            continue
        if len(row) < len(INPUT_COLUMNS):
            raise ParseError(
                f"line {lineno}: expected at least {len(INPUT_COLUMNS)} columns, got {len(row)}"
            )
        try:
            record = GeodesicRecord(**{name: parse(cell.strip())
                                       for name, parse, cell in zip(INPUT_COLUMNS, _PARSERS, row)})
        except (ValueError, TypeError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        if record.index in seen:
            raise ValidationError(
                f"line {lineno}: duplicate index {record.index} (first at line {seen[record.index]})"
            )
        seen[record.index] = lineno
        records.append(record)
    if header is None:
        raise ParseError("empty input: missing header line")
    return records


@dataclass(frozen=True)
class AnalysisRow:
    """Computed columns for one record; None where a check was skipped."""

    record: GeodesicRecord
    bridgeman_bound: Optional[float] = None
    violation: Optional[bool] = None
    margin: Optional[float] = None
    bound_tight: Optional[float] = None
    bound_coarse: Optional[float] = None
    consistent: Optional[bool] = None
    notices: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class AnalysisReport:
    """Per-record analysis rows plus violation summary."""

    rows: tuple[AnalysisRow, ...]

    @property
    def violation_count(self) -> int:
        return sum(1 for row in self.rows if row.violation)

    @property
    def max_violation_margin(self) -> Optional[float]:
        margins = [row.margin for row in self.rows if row.violation and row.margin is not None]
        return max(margins) if margins else None

    @property
    def anomaly_count(self) -> int:
        return sum(1 for row in self.rows if row.consistent is False)

    @property
    def skipped_check_count(self) -> int:
        """Checks that could not run: empty ``violation`` or ``consistent``."""
        return sum((row.violation is None) + (row.consistent is None) for row in self.rows)

    @property
    def notices(self) -> tuple[str, ...]:
        return tuple(n for row in self.rows for n in row.notices)


def analyze_records(records: Iterable[GeodesicRecord]) -> AnalysisReport:
    """Check each record against both bounds in one pass.

    vol_drilled above the tight bound marks a data anomaly: that bound is a
    theorem whenever the reported radius is a genuine embedded tube radius.
    """
    rows = []
    for rec in records:
        bound = bridgeman_bound(rec.vol_parent, rec.length)
        margin = violation = tight = coarse = consistent = None
        notices = []
        if rec.vol_drilled is None:
            notices.append(f"index {rec.index}: skipped conjecture check, vol_drilled absent")
        else:
            margin = rec.vol_drilled - bound
            violation = margin > 0.0
        if rec.tube_radius is None or rec.vol_drilled is None:
            missing = "tube_radius" if rec.tube_radius is None else "vol_drilled"
            notices.append(f"index {rec.index}: skipped bound check, {missing} absent")
        else:
            est = drilled_volume_bound(rec.vol_parent, rec.length, rec.tube_radius)
            tight, coarse = est.bound_tight, est.bound_coarse
            consistent = rec.vol_drilled <= tight
            notices += [f"index {rec.index}: {w}" for w in est.warnings]
        rows.append(AnalysisRow(
            record=rec, bridgeman_bound=bound, violation=violation, margin=margin,
            bound_tight=tight, bound_coarse=coarse, consistent=consistent,
            notices=tuple(notices),
        ))
    return AnalysisReport(rows=tuple(rows))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_number(value)
    return str(value)


def emit_report(report: AnalysisReport, sink: IO[str]) -> None:
    """Write the 11-column report CSV (input columns plus computed ones)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows([_cell(getattr(row.record if name in INPUT_COLUMNS else row, name))
                      for name in REPORT_COLUMNS] for row in report.rows)


# -- SVG scatter plot ---------------------------------------------------------

_SVG_WIDTH = 960
_SVG_HEIGHT = 640
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 70

_SERIES_LABELS = {
    "linear": ("Vol(drilled)", "Vol(parent) + pi*l"),
    "log10": ("log10 Vol(drilled)", "log10 coarse bound"),
}


def plot_series(report: AnalysisReport, style: str) -> tuple[list[int], list[float], list[float]]:
    """Data series for the scatter plot: indices, drilled series, bound series.

    ``linear`` plots vol_drilled against the conjectured bound; ``log10``
    plots log10 of vol_drilled against log10 of the coarse bound.  Every
    record must carry the needed values; nothing is dropped silently.
    """
    if style not in _SERIES_LABELS:
        raise PlotError(f"unknown plot style {style!r}; expected 'linear' or 'log10'")
    if not report.rows:
        raise PlotError("nothing to plot: report has no rows")
    xs: list[int] = []
    drilled: list[float] = []
    bound: list[float] = []
    for row in sorted(report.rows, key=lambda r: r.record.index):
        rec = row.record
        if rec.vol_drilled is None:
            raise PlotError(f"index {rec.index}: vol_drilled required for plotting")
        xs.append(rec.index)
        if style == "linear":
            if row.bridgeman_bound is None:
                raise PlotError(f"index {rec.index}: conjectured bound missing from report")
            drilled.append(rec.vol_drilled)
            bound.append(row.bridgeman_bound)
        else:
            if row.bound_coarse is None:
                raise PlotError(f"index {rec.index}: coarse bound missing (tube_radius absent?)")
            drilled.append(math.log10(rec.vol_drilled))
            bound.append(math.log10(row.bound_coarse))
    return xs, drilled, bound


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def emit_plot(report: AnalysisReport, sink: IO[str], style: str = "linear") -> None:
    """Write a standalone deterministic SVG scatter plot of the two series.

    Circles mark the drilled volumes, squares the bound series; byte output
    is a pure function of the report content and style.
    """
    xs, drilled, bound = plot_series(report, style)
    label_drilled, label_bound = _SERIES_LABELS[style]

    x_lo, x_hi = min(xs) - 0.5, max(xs) + 0.5
    all_y = drilled + bound
    y_lo, y_hi = min(all_y), max(all_y)
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5
    y_lo -= pad
    y_hi += pad

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []

    # One writer per element kind; numbers are written as given, and a tick
    # writes its position to three decimals.  A square (from its corner) or
    # dot marks a point of the bound or drilled series with ``marker`` as
    # its class attribute, and stands without one in the legend
    def line(x1, y1, x2, y2) -> None:
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="1"/>')

    def text(x, y, size: int, body: str, anchor: str = "") -> None:
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        out.append(f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}">{body}</text>')

    def square(x, y, marker: str = "") -> None:
        out.append(f'<rect{marker} x="{x}" y="{y}" width="7" height="7" fill="none" stroke="darkred" '
                   'stroke-width="1.5"/>')

    def dot(x, y, marker: str = "") -> None:
        out.append(f'<circle{marker} cx="{x}" cy="{y}" r="4" fill="none" stroke="steelblue" '
                   'stroke-width="1.5"/>')

    def tick(value: float, ends: tuple, at: tuple, anchor: str) -> None:
        line(*(f"{v:.3f}" for v in ends))
        text(*(f"{v:.3f}" for v in at), 13, f"{value:.4g}", anchor)

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>')
    ax_b = _SVG_HEIGHT - _MARGIN_BOTTOM
    line(_MARGIN_LEFT, ax_b, _SVG_WIDTH - _MARGIN_RIGHT, ax_b)
    line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, ax_b)
    for value in _ticks(y_lo, y_hi):
        y = py(value)
        tick(value, (_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y), (_MARGIN_LEFT - 9, y + 4), "end")
    for value in _ticks(min(xs), max(xs), max(min(len(xs), 10), 2)):
        x = px(value)
        tick(value, (x, ax_b, x, ax_b + 5), (x, ax_b + 20), "middle")
    text(f"{_MARGIN_LEFT + plot_w / 2:.3f}", _SVG_HEIGHT - 25, 15, "geodesics ordered by length", "middle")
    for x, y in zip(xs, bound):
        square(f"{px(x) - 3.5:.3f}", f"{py(y) - 3.5:.3f}", ' class="marker"')
    for x, y in zip(xs, drilled):
        dot(f"{px(x):.3f}", f"{py(y):.3f}", ' class="marker"')
    lg_x = _MARGIN_LEFT + 16
    lg_y = _MARGIN_TOP + 10
    dot(lg_x, lg_y)
    text(lg_x + 12, lg_y + 4, 14, label_drilled)
    square(lg_x - 3.5, lg_y + 18.5)
    text(lg_x + 12, lg_y + 26, 14, label_bound)
    out.append("</svg>")
    sink.write("\n".join(out) + "\n")
