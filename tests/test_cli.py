"""Command line interface: dispatch, machine block, errors, determinism."""

import math
import os
import subprocess
import sys

import pytest

from conftest import FIXTURE_CSV, REPO_ROOT, parse_kv
from drillvol.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Usage and error handling
# ---------------------------------------------------------------------------


class TestUsage:
    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys)
        assert code == 2
        assert err.startswith("error:usage:")
        assert "usage:" in err

    def test_unknown_flag(self, capsys):
        code, out, err = invoke(capsys, "minvol", "--bogus")
        assert code == 2
        assert err.startswith("error:usage:")

    def test_unknown_command(self, capsys):
        code, out, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_parameter_error_exit_one(self, capsys):
        code, out, err = invoke(capsys, "bound", "--vol", "-1", "--length", "0.5", "--R", "0.5")
        assert code == 1
        assert err.startswith("error:parameter:")

    def test_missing_input_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "analyze", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert err.startswith("error:io:")

    @pytest.mark.parametrize("env,argv,code,category", [
        ({}, ("bound", "--vol", "2", "--length", "0.5", "--R", "800"), 1, "parameter"),
        ({}, ("curvature", "--R", "800"), 1, "parameter"),
        ({"DRILLVOL_PRECISION": "abc"}, ("minvol",), 2, "usage"),
        ({}, ("smooth", "--R", "0.8", "--eps", "1e-2", "--samples", "-3"), 2, "usage"),
    ], ids=["bound-overflow", "curvature-overflow", "precision-env", "negative-samples"])
    def test_error_line_instead_of_traceback(self, capsys, monkeypatch, env, argv, code, category):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        got, out, err = invoke(capsys, *argv)
        assert got == code
        assert err.startswith(f"error:{category}:")


# ---------------------------------------------------------------------------
# minvol
# ---------------------------------------------------------------------------


class TestMinvol:
    def test_reports_corollary(self, capsys):
        code, out, err = invoke(capsys, "minvol")
        assert code == 0
        kv = parse_kv(out)
        assert kv["lower_bound"].startswith("0.3209")
        assert kv["radius_bound"].startswith("0.9557")
        assert kv["lower_bound_ok"] == "true"
        assert kv["radius_bound_ok"] == "true"
        assert float(kv["cusped_volume"]) == 2.0298
        assert float(kv["equation_volume"]) == 0.943

    def test_deterministic(self, capsys):
        _, out1, _ = invoke(capsys, "minvol")
        _, out2, _ = invoke(capsys, "minvol")
        assert out1.encode() == out2.encode()

    def test_precision_flag(self, capsys):
        _, out, _ = invoke(capsys, "--precision", "4", "minvol")
        kv = parse_kv(out)
        assert kv["lower_bound"] == "0.3209"

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DRILLVOL_PRECISION", "5")
        _, out, _ = invoke(capsys, "minvol")
        assert parse_kv(out)["lower_bound"] == "0.32094"


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


class TestBound:
    def test_reports_both_bounds(self, capsys):
        code, out, err = invoke(capsys, "bound", "--vol", "0.943", "--length", "0.5",
                                "--R", "0.5493")
        assert code == 0
        kv = parse_kv(out)
        assert {"bound_tight", "bound_coarse", "tube_fits", "k"} <= kv.keys()
        assert kv["tube_fits"] == "true"
        assert float(kv["bound_tight"]) <= float(kv["bound_coarse"])

    def test_log3_token(self, capsys):
        _, out_tok, _ = invoke(capsys, "bound", "--vol", "0.943", "--length", "0.5",
                               "--R", "ln3/2")
        kv = parse_kv(out_tok)
        assert float(kv["R"]) == pytest.approx(math.log(3.0) / 2.0, rel=1e-12)
        # coth(ln3/2) = 2, coth(ln3) = 5/4: the coarse factor is exactly 2sqrt(10)
        assert float(kv["bound_coarse"]) == pytest.approx(2.0 * math.sqrt(10.0) * 0.943, rel=1e-12)

    def test_warning_when_tube_does_not_fit(self, capsys):
        _, out, _ = invoke(capsys, "bound", "--vol", "0.1", "--length", "5", "--R", "2")
        kv = parse_kv(out)
        assert kv["tube_fits"] == "false"
        assert "warning" in kv

    def test_quadrature_check(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--vol", "0.943", "--length", "0.5",
                              "--R", "0.8", "--quadrature-check")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["tube_volume_quadrature_err"]) < 1e-8
        assert float(kv["extended_volume_quadrature_err"]) < 1e-8


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


class TestCurvature:
    def test_constants(self, capsys):
        code, out, _ = invoke(capsys, "curvature", "--R", "0.8")
        assert code == 0
        kv = parse_kv(out)
        cth = 1.0 / math.tanh(0.8)
        assert float(kv["K_rtheta"]) == pytest.approx(-cth ** 2, rel=1e-10)
        assert float(kv["K_rlambda"]) == pytest.approx(-math.tanh(0.8) ** 2, rel=1e-10)
        assert float(kv["K_thetalambda"]) == pytest.approx(-1.0, rel=1e-10)
        assert float(kv["k_limit"]) == pytest.approx(cth / math.tanh(1.6), rel=1e-10)

    def test_validate(self, capsys):
        code, out, _ = invoke(capsys, "curvature", "--R", "0.8", "--validate",
                              "--samples", "25")
        assert code == 0
        kv = parse_kv(out)
        assert kv["validate_tube_pass"] == "true"
        assert kv["validate_extension_pass"] == "true"
        assert float(kv["validate_tube_max_error"]) < 1e-5


# ---------------------------------------------------------------------------
# smooth
# ---------------------------------------------------------------------------


class TestSmooth:
    def test_summary_and_samples(self, capsys, tmp_path):
        csv_path = tmp_path / "samples.csv"
        code, out, _ = invoke(capsys, "smooth", "--R", "0.8", "--eps", "1e-2",
                              "--csv", str(csv_path), "--samples", "33")
        assert code == 0
        kv = parse_kv(out)
        for key in ("iota_f", "omega_f", "iota_g", "omega_g", "delta", "k_eps"):
            assert key in kv
        assert float(kv["delta"]) == pytest.approx(0.430887, abs=1e-5)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "r,a,a_prime,a_second"
        assert len(lines) == 34

    def test_samples_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "smooth", "--R", "0.8", "--eps", "1e-1",
                              "--samples", "9")
        assert code == 0
        assert "r,a,a_prime,a_second" in out

    def test_width_error(self, capsys):
        code, out, err = invoke(capsys, "smooth", "--R", "0.1", "--eps", "1e-1")
        assert code == 1
        assert err.startswith("error:width:")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


class TestAnalyze:
    def test_fixture_summary(self, capsys, tmp_path):
        report_path = tmp_path / "report.csv"
        code, out, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                              "--output", str(report_path))
        assert code == 0
        kv = parse_kv(out)
        assert kv["records"] == "40"
        assert kv["violations"] == "5"
        assert kv["anomalies"] == "0"
        lines = report_path.read_text().splitlines()
        assert len(lines) == 41

    def test_plot_output(self, capsys, tmp_path):
        plot_path = tmp_path / "plot.svg"
        code, out, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                              "--output", str(tmp_path / "r.csv"),
                              "--plot", str(plot_path), "--style", "linear")
        assert code == 0
        svg = plot_path.read_text()
        assert svg.count('class="marker"') == 80
        assert "Vol(drilled)" in svg

    def test_log10_plot_needs_all_radii(self, capsys, tmp_path):
        # two bundled records ship without a tube radius, so the coarse-bound
        # series cannot be formed for the log10 view
        code, out, err = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                                "--plot", str(tmp_path / "p.svg"), "--style", "log10")
        assert code == 1
        assert err.startswith("error:plot:")

    def test_log10_plot_with_complete_data(self, capsys, tmp_path):
        src = tmp_path / "complete.csv"
        src.write_text(
            "manifold,index,length,tube_radius,vol_parent,vol_drilled\n"
            "m,1,0.6,0.5,0.9427,2.8\n"
            "m,2,0.7,0.45,0.9427,3.1\n"
        )
        plot_path = tmp_path / "plot.svg"
        code, out, _ = invoke(capsys, "analyze", "--input", str(src),
                              "--output", str(tmp_path / "r.csv"),
                              "--plot", str(plot_path), "--style", "log10")
        assert code == 0
        svg = plot_path.read_text()
        assert svg.count('class="marker"') == 4
        assert "log10 coarse bound" in svg

    def test_log10_plot_without_radius_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "manifold,index,length,tube_radius,vol_parent,vol_drilled\n"
            "m,1,0.5,,0.9,2.0\n"
        )
        code, out, err = invoke(capsys, "analyze", "--input", str(bad),
                                "--plot", str(tmp_path / "p.svg"), "--style", "log10")
        assert code == 1
        assert err.startswith("error:plot:")

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,valid,header\n")
        code, out, err = invoke(capsys, "analyze", "--input", str(bad))
        assert code == 1
        assert err.startswith("error:parse:")

    def test_report_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        assert code == 0
        assert "manifold,index," in out

    def test_determinism(self, capsys):
        _, out1, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        _, out2, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        assert out1.encode() == out2.encode()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("drillvol ")


SRC_ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

# Runs the CLI in a fresh interpreter and reports on stderr whether scipy was
# imported; sys.argv[1:] are the CLI's arguments.
SCIPY_PROBE = """\
import runpy, sys
sys.argv[0] = "drillvol"
try:
    runpy.run_module("drillvol", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(f"scipy_loaded={'scipy' in sys.modules} code={code}", file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("minvol",),
    ("bound", "--vol", "0.943", "--length", "0.5", "--R", "0.8"),
    ("curvature", "--R", "0.8", "--validate", "--samples", "10"),
    ("analyze", "--input", str(FIXTURE_CSV)),
])
def test_scipy_loads_only_to_integrate(argv):
    """Subcommands that integrate nothing never import scipy."""
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.splitlines()[-1] == "scipy_loaded=False code=0"


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, drillvol; print('scipy' in sys.modules)"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False"
