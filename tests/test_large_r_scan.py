"""tools/large_r_scan.py draws its pairs from its seed alone, and its first
pairs build with a build-check drift well inside the threshold."""

import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("large_r_scan", REPO_ROOT / "tools" / "large_r_scan.py")
large_r_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(large_r_scan)


def test_pairs_are_seeded():
    pairs = large_r_scan.pairs(400)
    assert pairs == large_r_scan.pairs(400, 0) and pairs != large_r_scan.pairs(400, 1)
    assert pairs[0] == (301.2590076669913, 0.032586995917526375)
    assert all(15.0 <= R <= 354.0 and 1e-6 <= eps <= 0.9 for R, eps in pairs)


def test_first_pairs_build_inside_the_check():
    """The first three pairs build, with the check's largest drift far
    below its threshold, and the check is unwrapped after the scan."""
    check = large_r_scan.smoothing._check_moments
    built, drift = large_r_scan.scan(3)
    assert built == "built=3"
    name, _, rest = drift.partition("=")
    assert name == "max_drift_share" and 0.0 <= float(rest.split()[0]) < 1e-3
    assert large_r_scan.smoothing._check_moments is check
