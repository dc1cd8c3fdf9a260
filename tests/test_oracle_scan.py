"""tools/oracle_scan.py draws its families from its seed alone and prints
the same lines on every run."""

import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("oracle_scan", REPO_ROOT / "tools" / "oracle_scan.py")
oracle_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_scan)


def test_families_are_seeded():
    pairs = oracle_scan.families(60, 11)
    assert pairs == oracle_scan.families(60, 11)
    assert pairs[12] == (0.4165008106445654, 1e-3)
    assert all(0.4 <= R <= 1.5 and eps in (1e-1, 1e-2, 1e-3) for R, eps in pairs)


def test_scan_is_deterministic():
    lines = list(oracle_scan.scan(2, 20))
    assert lines == list(oracle_scan.scan(2, 20))
    *flagged, count, worst = lines
    assert count == f"flagged={len(flagged)}"
    assert worst.startswith("worst=") and float(worst.partition("=")[2]) > 0.0
    assert all(line.startswith("family=") and " error=" in line for line in flagged)
