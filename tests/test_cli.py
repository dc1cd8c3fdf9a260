"""Command line interface: dispatch, machine block, errors, determinism."""

import ast
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_CSV, REPO_ROOT, parse_kv
from drillvol.cli import run

# an output directory that does not exist
MISSING_DIR = REPO_ROOT / "data" / "no-such-directory"


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

    @pytest.mark.parametrize("argv,code,category", [
        (("bound", "--vol", "2", "--length", "0.5", "--R", "800"), 1, "parameter"),
        (("curvature", "--R", "800"), 1, "parameter"),
        (("smooth", "--R", "0.8", "--eps", "1e-2", "--samples", "-3"), 2, "usage"),
        (("bound", "--vol", "1", "--length", "1", "--R", "1e-9", "--quadrature-check"),
         1, "numeric"),
        (("smooth", "--R", "400", "--eps", "1e-2"), 1, "parameter"),
    ], ids=["bound-overflow", "curvature-overflow", "negative-samples",
            "tiny-radius-underflow", "smooth-overflow"])
    def test_error_line_instead_of_traceback(self, capsys, argv, code, category):
        got, out, err = invoke(capsys, *argv)
        assert got == code
        assert err.startswith(f"error:{category}:")

    def test_memory_error_line(self, capsys, monkeypatch):
        """An allocation the machine cannot serve ends in an error line, not
        a traceback; the oracle is patched to raise, nothing is allocated."""
        import drillvol.oracle

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB")

        monkeypatch.setattr(drillvol.oracle, "validate_lemma_curvature", exhausted)
        code, out, err = invoke(capsys, "curvature", "--R", "0.8", "--validate",
                                "--samples", "2000000000")
        assert code == 1
        assert err == "error:memory: Unable to allocate 14.9 GiB\n"


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

    def test_failed_quadrature_check_prints_nothing(self, capsys):
        """The quadratures run before any output: at R = 0.05 the extension's
        integrand underflows at its cut 40 below R, and no bound is printed."""
        code, out, err = invoke(capsys, "bound", "--vol", "1", "--length", "1",
                                "--R", "0.05", "--quadrature-check")
        assert (code, out) == (1, "")
        assert err.startswith("error:numeric:")


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

    @pytest.mark.parametrize("R,code", [("1e-4", 0), ("1e-150", 0), ("1e-160", 1), ("5e-324", 1)])
    def test_tiny_radius(self, capsys, R, code):
        """The probe stays within tanh R of R, where the extension's f has not
        underflowed: finite curvatures, or a parameter error once coth^2 R
        overflows, never a domain error."""
        got, out, err = invoke(capsys, "curvature", "--R", R)
        assert got == code
        if code == 0:
            kv = parse_kv(out)
            values = [float(kv[k]) for k in ("K_rtheta", "K_rlambda", "K_thetalambda",
                                                 "ric_1", "ric_2", "ric_3", "k_limit")]
            assert all(math.isfinite(v) for v in values)
            assert values[0] == pytest.approx(-1.0 / math.tanh(float(R)) ** 2, rel=1e-10)
        else:
            assert err.startswith("error:parameter:")
            assert "K_rtheta" not in out

    def test_bad_tolerance_is_a_parameter_error(self, capsys):
        code, out, err = invoke(capsys, "curvature", "--R", "0.8", "--validate", "--tol", "nan")
        assert code == 1
        assert err.startswith("error:parameter:")
        assert "validate_" not in out

    @pytest.mark.parametrize("flags", [("--samples", "0"), ("--tol", "nan")], ids=["samples", "tol"])
    def test_validate_parameter_error_prints_nothing(self, capsys, flags):
        """Both validations run before the first line, so a bad parameter
        leaves stdout empty instead of half a block."""
        code, out, err = invoke(capsys, "curvature", "--R", "0.8", "--validate", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:parameter:") and err.count("\n") == 1


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

    def test_negative_values_with_an_exponent(self, capsys):
        """-1e-3 is a value, as -0.001 and the form --lo=-1e-3 are."""
        base = ("smooth", "--R", "0.8", "--eps", "1e-2", "--hi", "0.9", "--samples", "2")
        spaced = invoke(capsys, *base, "--lo", "-1e-3")
        assert spaced == invoke(capsys, *base, "--lo=-1e-3")
        assert spaced[0] == 0 and "\n-0.001," in spaced[1]
        code, out, err = invoke(capsys, "smooth", "--R", "0.8", "--eps", "-1e-2")
        assert code == 1 and out == ""
        assert err.startswith("error:parameter:")

    @pytest.mark.parametrize("flag,argv", [
        ("--lo", ("smooth", "--R", "0.8", "--eps", "1e-2", "--samples", "3")),
        ("--R", ("bound", "--vol", "1", "--length", "1")),
    ])
    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity", "-INF", "-NaN"])
    def test_negative_infinity_and_nan_with_a_space(self, capsys, flag, argv, value):
        """-inf, -nan and -Infinity written after a space are values, as in
        the form --lo=-inf: the command rejects them, not the parser."""
        spaced = invoke(capsys, *argv, flag, value)
        assert spaced == invoke(capsys, *argv, f"{flag}={value}")
        code, out, err = spaced
        assert code == 1 and out == ""
        assert err.startswith("error:parameter:")


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

    def test_unopenable_plot_path_leaves_no_report(self, capsys, tmp_path):
        """A plot path in a missing directory ends the command before its
        first line, and the report file it names is never created."""
        report_path = tmp_path / "r.csv"
        code, out, err = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                                "--output", str(report_path),
                                "--plot", str(tmp_path / "missing" / "p.svg"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:io:")
        assert list(tmp_path.iterdir()) == []

    def test_log10_plot_needs_all_radii(self, capsys, tmp_path):
        # two bundled records ship without a tube radius, so the coarse-bound
        # series cannot be formed for the log10 view
        code, out, err = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                                "--plot", str(tmp_path / "p.svg"), "--style", "log10")
        assert code == 1
        assert err.startswith("error:plot:")

    def test_failed_plot_writes_nothing(self, capsys, tmp_path):
        """The plot is rendered before any output, so one that fails leaves
        stdout empty and makes neither the report nor the plot file."""
        code, out, err = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV),
                                "--output", str(tmp_path / "r.csv"),
                                "--plot", str(tmp_path / "p.svg"), "--style", "log10")
        assert (code, out) == (1, "")
        assert err.startswith("error:plot:")
        assert list(tmp_path.iterdir()) == []

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

    def test_skipped_checks_leave_out_warnings(self, capsys, tmp_path):
        # row 1's tube volume exceeds the parent volume: a warning notice, but
        # both checks run; row 2 has no radius, so its bound check is skipped
        src = tmp_path / "warned.csv"
        src.write_text(
            "manifold,index,length,tube_radius,vol_parent,vol_drilled\n"
            "m,1,0.5,3.0,0.94,2.0\n"
            "m,2,0.5,,0.94,2.0\n"
        )
        code, out, _ = invoke(capsys, "analyze", "--input", str(src))
        assert code == 0
        assert parse_kv(out)["skipped_checks"] == "1"
        assert sum(line.startswith("notice=") for line in out.splitlines()) == 2

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
        assert not (tmp_path / "p.svg").exists()

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

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + FIXTURE_CSV.read_bytes())
        _, plain, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        code, out, err = invoke(capsys, "analyze", "--input", str(marked))
        assert (code, out, err) == (0, plain, "")

    def test_determinism(self, capsys):
        _, out1, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        _, out2, _ = invoke(capsys, "analyze", "--input", str(FIXTURE_CSV))
        assert out1.encode() == out2.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("smooth", "--R", "0.8", "--eps", "0.5", "--csv", "/dev/full"),
    ("analyze", "--input", str(FIXTURE_CSV), "--output", "/dev/full"),
    ("analyze", "--input", str(FIXTURE_CSV), "--plot", "/dev/full"),
], ids=["csv", "output", "plot"])
def test_failed_file_write_prints_nothing(capsys, argv):
    """The output files are written before any line goes to stdout: a write
    that fails (/dev/full takes no data) exits 1 with an io error and leaves
    stdout empty."""
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:io:")


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("drillvol ")


SRC_ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

# Runs the CLI in a fresh interpreter and reports on stderr whether scipy and
# numpy were imported; sys.argv[1:] are the CLI's arguments.
SCIPY_PROBE = """\
import runpy, sys
sys.argv[0] = "drillvol"
try:
    runpy.run_module("drillvol", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(f"scipy_loaded={'scipy' in sys.modules} numpy_loaded={'numpy' in sys.modules} "
      f"code={code}", file=sys.stderr)
"""


def _probe(*argv):
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    return proc.stderr.splitlines()


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("minvol",),
    ("bound", "--vol", "0.943", "--length", "0.5", "--R", "0.8"),
    ("curvature", "--R", "0.8", "--validate", "--samples", "10"),
    ("analyze", "--input", str(FIXTURE_CSV)),
    ("smooth", "--R", "0.8", "--eps", "1e-2"),
    ("bound", "--vol", "0.943", "--length", "0.5", "--R", "0.8", "--quadrature-check"),
    ("analyze", "--input", str(FIXTURE_CSV), "--output", os.devnull, "--plot", os.devnull),
])
def test_cli_never_loads_scipy(argv):
    """No subcommand imports scipy, the volume quadrature included; only
    curvature, smooth and the quadrature check import numpy."""
    numpy = argv[0] in ("curvature", "smooth") or "--quadrature-check" in argv
    assert _probe(*argv)[-1] == f"scipy_loaded=False numpy_loaded={numpy} code=0"


def test_error_path_does_not_load_numpy():
    lines = _probe("bound", "--vol", "-1", "--length", "1", "--R", "1")
    assert lines[0].startswith("error:parameter:")
    assert lines[-1] == "scipy_loaded=False numpy_loaded=False code=1"


def test_import_does_not_load_scipy():
    """Neither the import nor a first ramp_beta loads scipy; the import
    alone loads no numpy, and ramp_beta loads neither the oracle nor the
    data layer."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, drillvol; print('numpy' in sys.modules); drillvol.ramp_beta(0.5); "
         "print(*(m in sys.modules for m in ('scipy', 'drillvol.oracle', 'drillvol.data')))"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines() == ["False", "False False False"]


def test_smoothing_import_leaves_out_numpy_polynomial():
    """The smoothing's Gauss-Legendre rule is written as literals, so its
    import does not load numpy.polynomial."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, drillvol.smoothing; print('numpy.polynomial' in sys.modules)"],
        env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines() == ["False"]


def test_runtime_imports_only_numpy():
    """Besides the standard library, the package imports numpy alone, at
    module level or inside a function."""
    third_party = set()
    for path in (REPO_ROOT / "src" / "drillvol").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party |= {name.partition(".")[0] for name in names} - sys.stdlib_module_names
    assert third_party == {"numpy"}


def test_empty_validation_window_is_one_error_line():
    """At R = 1e-8 the extension's sampling window is empty: the window is
    rejected before the oracle's metric is built, so stderr holds the one
    error line and not the metric's warning about its tiny step."""
    proc = subprocess.run([sys.executable, "-m", "drillvol", "curvature", "--R", "1e-8", "--validate"],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:parameter:")


def test_large_radius_smooth_is_quiet():
    """At R = 25 the build check prints no warning and passes."""
    proc = subprocess.run([sys.executable, "-m", "drillvol", "smooth", "--R", "25", "--eps", "1e-2"],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


# ---------------------------------------------------------------------------
# Fuzzing argv
# ---------------------------------------------------------------------------

NON_FINITE = {"inf", "-inf", "nan"}
EDGE_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e-9", "400", "800", "1e308",
                "ln3/2", "ln3", "junk", "")


def numbers(lo: float, hi: float):
    """An edge token or a plain decimal in [lo, hi]."""
    return st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats(lo, hi).map(repr))


def optional(flag: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


COUNTS = st.integers(-2, 50).map(str)

CURVATURE = st.tuples(
    st.just(["curvature"]), optional("--R", numbers(0.01, 5.0)),
    st.sampled_from([[], ["--validate"]]), optional("--samples", COUNTS),
    optional("--tol", st.one_of(st.sampled_from(["nan", "-1", "0", "inf"]), numbers(0.0, 1.0))),
    optional("--seed", st.integers(-2, 5).map(str)))

SMOOTH = st.tuples(
    st.just(["smooth"]), optional("--R", numbers(0.01, 354.0)),
    optional("--eps", numbers(1e-4, 1.0)), optional("--samples", COUNTS),
    optional("--lo", numbers(-5.0, 10.0)), optional("--hi", numbers(-5.0, 10.0)))

BOUND = st.tuples(
    st.just(["bound"]), optional("--vol", numbers(0.0, 10.0)),
    optional("--length", numbers(0.0, 5.0)), optional("--R", numbers(0.0, 5.0)),
    st.sampled_from([[], ["--quadrature-check"]]))

ANALYZE = st.tuples(
    st.just(["analyze"]),
    optional("--input", st.sampled_from([str(FIXTURE_CSV), str(REPO_ROOT / "no-such.csv"),
                                         str(REPO_ROOT / "data")])),
    st.sampled_from([[], ["--style", "log10"], ["--style", "bogus"]]),
    st.sampled_from([[], ["--plot", os.devnull]]))

# token soup: flags and numbers in any order; --samples is left out so that
# no drawn list asks for hundreds of oracle samples
JUNK = st.lists(st.sampled_from(("curvature", "smooth", "bound", "minvol", "analyze",
                                 "--R", "--eps", "--vol", "--length", "--validate", "--tol",
                                 "--precision", "--help", "--version", "-x")
                                + EDGE_NUMBERS), max_size=6).map(lambda t: (t,))

ARGV = st.tuples(
    optional("--precision", st.sampled_from(["-3", "0", "5", "17", "40", "x"])),
    st.one_of(CURVATURE, SMOOTH, BOUND, ANALYZE, st.just((["minvol"],)), JUNK),
).map(lambda parts: parts[0] + [tok for part in parts[1] for tok in part])


def _tolerance_ok(argv) -> bool:
    """Whether the last ``--tol`` value in argv, if any, is positive and
    finite; a token that is not a number passes, since argparse rejects it
    before any command runs."""
    values = [text for flag, text in zip(argv, argv[1:]) if flag == "--tol"]
    try:
        value = float(values[-1]) if values else 1.0
    except ValueError:
        return True
    return 0.0 < value < math.inf


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "1e-9", "--quadrature-check"])
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "354", "--quadrature-check"])
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "0.05410567693730635",
               "--quadrature-check"])
@example(argv=["smooth", "--R", "400", "--eps", "1e-2"])
@example(argv=["curvature", "--R", "0.8", "--validate", "--samples", "5", "--seed", "-1"])
@example(argv=["curvature", "--R", "0.8", "--validate", "--samples", "5", "--tol", "0"])
@example(argv=["curvature", "--R", "0.8", "--validate", "--samples", "5", "--tol", "nan"])
@example(argv=["curvature", "--R", "0.8", "--validate", "--samples", "5", "--tol", "inf"])
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "1e308"])
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "1e-151"])
@example(argv=["bound", "--vol", "1e308", "--length", "1", "--R", "0.5"])
@example(argv=["bound", "--vol", "1", "--length", "1e308", "--R", "3"])
@example(argv=["smooth", "--R", "0.8", "--eps", "1e-2", "--lo", "nan", "--samples", "3"])
@example(argv=["smooth", "--R", "0.8", "--eps", "1e-2", "--lo=-inf", "--samples", "3"])
@example(argv=["smooth", "--R", "0.8", "--eps", "1e-2", "--hi", "inf", "--samples", "3"])
@example(argv=["smooth", "--R", "0.8", "--eps", "1e-2", "--hi", "1e300", "--samples", "3"])
@example(argv=["bound", "--vol", "1", "--length", "1", "--R", "0.05", "--quadrature-check"])
@example(argv=["analyze", "--input", str(FIXTURE_CSV), "--plot", os.devnull, "--style", "log10"])
@example(argv=["smooth", "--R", "0.8", "--eps", "1e-2", "--csv", str(MISSING_DIR / "s.csv")])
@example(argv=["analyze", "--input", str(FIXTURE_CSV), "--output", str(MISSING_DIR / "r.csv")])
@example(argv=["analyze", "--input", str(FIXTURE_CSV), "--output", str(REPO_ROOT / "data")])
@example(argv=["analyze", "--input", str(FIXTURE_CSV), "--output", os.devnull,
               "--plot", str(MISSING_DIR / "p.svg")])
def test_any_argv_ends_with_exit_code_and_error_line(argv):
    """Every input exits 0, 1 or 2, a nonzero exit prints an ``error:`` line
    and, unless the oracle rejected a report it printed, nothing else, a
    zero exit prints no infinite or NaN ``key=value`` nor CSV cell after
    the blank line, no oracle runs on a tolerance that is not positive and
    finite, and no exception escapes ``run``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv)
    assert code in (0, 1, 2)
    if not _tolerance_ok(argv):
        assert "validate_" not in out.getvalue()
    if code:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines()), \
            err.getvalue()
        if not err.getvalue().startswith("error:validation:"):
            assert out.getvalue() == "", (out.getvalue(), err.getvalue())
    else:
        lines = out.getvalue().splitlines()
        rows = lines[lines.index("") + 1:] if "" in lines else []
        non_finite = [line for line in lines if line.partition("=")[2] in NON_FINITE]
        non_finite += [line for line in rows if NON_FINITE & set(line.split(","))]
        assert not non_finite, non_finite
