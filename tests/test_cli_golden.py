"""Golden CLI output: each subcommand's stdout and exit code, byte for byte.

The files under tests/golden/ hold what ``python -m drillvol <argv>`` wrote
to stdout, one file per case, with the exit code on the case's line below.
A case that fails also keeps its stderr, the error message, in
``<stem>.err``.
A change that should leave the CLI's output as it is must pass this
unchanged.  A change that means to alter the output regenerates the files
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and says why.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
SRC_ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

# (file stem, argv, exit code); paths are relative to the repository root
CASES = [
    ("smooth_R0.8_eps1e-2", ["smooth", "--R", "0.8", "--eps", "1e-2", "--samples", "33"], 0),
    ("smooth_Rln3-2_eps0.1", ["smooth", "--R", "ln3/2", "--eps", "0.1", "--samples", "17"], 0),
    ("smooth_R1.2_eps1e-3_window", ["smooth", "--R", "1.2", "--eps", "1e-3", "--samples", "21",
                                    "--lo", "1.195", "--hi", "1.2"], 0),
    ("smooth_width_error", ["smooth", "--R", "0.1", "--eps", "0.1"], 1),
    # smoothed_metric's radius checks in their order: the extension's
    # sinh(R) first, then sinh(2 (R + margin)) for the Ricci grid
    ("smooth_extension_radius_error", ["smooth", "--R", "800", "--eps", "0.1"], 1),
    ("smooth_tube_radius_error", ["smooth", "--R", "400", "--eps", "0.1"], 1),
    ("curvature_R0.8", ["curvature", "--R", "0.8"], 0),
    ("bound_quadrature", ["bound", "--vol", "0.943", "--length", "0.5", "--R", "ln3/2",
                          "--quadrature-check"], 0),
    ("minvol", ["minvol"], 0),
    ("analyze_fixture", ["analyze", "--input", "data/weeks_drill_synthetic.csv"], 0),
]


def run_cli(argv):
    """stdout and stderr bytes and exit code of ``python -m drillvol`` run
    from the repository root."""
    proc = subprocess.run([sys.executable, "-m", "drillvol", *argv], cwd=REPO_ROOT,
                          env=SRC_ENV, capture_output=True, timeout=120)
    return proc.stdout, proc.stderr, proc.returncode


@pytest.mark.parametrize("stem,argv,code", CASES, ids=[stem for stem, _, _ in CASES])
def test_cli_output_matches_golden(stem, argv, code):
    out, err, got_code = run_cli(argv)
    assert got_code == code
    assert out == (GOLDEN_DIR / f"{stem}.out").read_bytes()
    if code:
        assert err == (GOLDEN_DIR / f"{stem}.err").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, argv, code in CASES:
        out, err, got_code = run_cli(argv)
        if got_code != code:
            sys.exit(f"{stem}: exit code {got_code}, expected {code}")
        (GOLDEN_DIR / f"{stem}.out").write_bytes(out)
        if code:
            (GOLDEN_DIR / f"{stem}.err").write_bytes(err)
