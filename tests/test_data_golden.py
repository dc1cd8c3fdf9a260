"""Golden bytes of the files ``analyze`` writes: the report CSV and the SVG plots.

The files under tests/golden/ hold what ``emit_report`` and ``emit_plot``
wrote for the bundled fixture: the report, the linear plot, and the log10
plot of the records that carry a tube radius (a log10 plot of the whole
fixture ends in ``PlotError``).  A change that should leave the data layer's
output as it is must pass this unchanged.  A change that means to alter it
regenerates the files with ``PYTHONPATH=src python tests/test_data_golden.py``
and says why.
"""

import io

import pytest

from conftest import FIXTURE_CSV, REPO_ROOT
from drillvol.data import analyze_records, emit_plot, emit_report, parse_records

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

# golden file name -> writer, given the fixture's report, the report of its
# records with a tube radius, and the sink
CASES = {
    "analyze_fixture_report.csv": lambda whole, _, sink: emit_report(whole, sink),
    "analyze_fixture_linear.svg": lambda whole, _, sink: emit_plot(whole, sink, style="linear"),
    "analyze_fixture_radius_log10.svg": lambda _, radius, sink: emit_plot(radius, sink, style="log10"),
}


def render(name: str) -> bytes:
    records = parse_records(FIXTURE_CSV.read_text(encoding="utf-8"))
    with_radius = [r for r in records if r.tube_radius is not None]
    sink = io.StringIO()
    CASES[name](analyze_records(records), analyze_records(with_radius), sink)
    return sink.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", CASES)
def test_data_output_matches_golden(name):
    assert render(name) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN_DIR / name).write_bytes(render(name))
