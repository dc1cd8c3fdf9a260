"""tools/build_ab.py times the builds of two checkouts in one process: run
against this checkout itself on 3 families and 1 round, it prints a header,
one line per eps and an overall line, whose counts, times and ratios agree."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_build_ab_against_this_checkout():
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "build_ab.py"), str(REPO_ROOT), "3", "1"],
                          capture_output=True, text=True, timeout=60, check=True)
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["eps", "n", "this_ms", "other_ms", "ratio"]
    table = {key: (int(n), float(this), float(other), float(ratio))
             for key, n, this, other, ratio in map(str.split, rows)}
    assert list(table)[-1] == "all" and len(table) >= 2
    assert sum(n for key, (n, *_) in table.items() if key != "all") == table["all"][0] == 3
    for n, this, other, ratio in table.values():
        assert this > 0.0 and other > 0.0
        assert abs(ratio - other / this) <= 1e-3 * ratio
