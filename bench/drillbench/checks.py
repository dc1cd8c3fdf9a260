"""Per-operation correctness checks.

Each check returns a list of problems; an empty list means the operation's
output is correct.  CLI outputs are compared with values computed here from
drillvol's public functions, formatted as the CLI documents (12 significant
digits), so a mismatch at the twelfth digit fails.
"""

from __future__ import annotations

import io
import math

import numpy as np

import drillvol as dv

from .inputs import CliCall
from .tracer import Tracer

PRECISION = 12
FAMILY_FIELDS = (("f", "fp", "fpp"), ("g", "gp", "gpp"))
TUBE = ((np.sinh, np.cosh, np.sinh), (np.cosh, np.sinh, np.cosh))
ORACLE_TOLERANCE = 1e-5
# The columns of a CurvatureReport, as frame-index planes, and the floor
# under |K| in its relative errors.
ORACLE_PLANES = ((0, 1), (0, 2), (1, 2))
ORACLE_GUARD = 1e-3
RICHARDSON_STEPS = (2, 4)  # multiples of the pair's fd_step


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{PRECISION}g}"
    return str(value)


def _pairs(**kv) -> list[tuple[str, str]]:
    return [(k, fmt(v)) for k, v in kv.items()]


def parse_key_values(stdout: str) -> list[tuple[str, str]]:
    pairs = []
    for line in stdout.splitlines():
        if not line:
            break
        key, _, value = line.partition("=")
        pairs.append((key, value))
    return pairs


def _flag(argv: tuple[str, ...], name: str) -> float:
    return float(argv[argv.index(name) + 1])


class CliReference:
    """Expected CLI outputs from library calls, cached per argv.

    Library calls are traced, which is where the in-process per-layer
    figures of the CLI workload come from.
    """

    def __init__(self, tracer: Tracer, fixture: str):
        self.tracer = tracer
        self.fixture = fixture
        self._cache: dict[tuple[str, ...], tuple[list, dict]] = {}

    def expected(self, call: CliCall) -> tuple[list[tuple[str, str]], dict[str, str]]:
        """(key=value pairs, {output file name: text}) for one call."""
        if call.argv not in self._cache:
            self._cache[call.argv] = getattr(self, "_" + call.kind)(call.argv)
        return self._cache[call.argv]

    def _minvol(self, argv):
        with self.tracer.span("bounds.min_volume_corollary"):
            rep = dv.min_volume_corollary()
        return _pairs(
            cusped_volume=rep.cusped_volume_min,
            weeks_volume=rep.weeks_volume,
            equation_volume=rep.equation_volume,
            radius_threshold=rep.radius_threshold,
            coarse_factor=rep.coarse_factor_at_threshold,
            lower_bound=rep.lower_bound,
            lower_bound_target=rep.lower_bound_target,
            lower_bound_ok=rep.lower_bound > rep.lower_bound_target,
            radius_bound=rep.radius_bound,
            radius_bound_weeks=rep.radius_bound_weeks,
            radius_bound_target=rep.radius_bound_target,
            radius_bound_ok=rep.radius_bound < rep.radius_bound_target,
            case_filter=rep.case_filter,
        ), {}

    def _bound(self, argv):
        vol, length, radius = _flag(argv, "--vol"), _flag(argv, "--length"), _flag(argv, "--R")
        with self.tracer.span("bounds.drilled_volume_bound"):
            est = dv.drilled_volume_bound(vol, length, radius)
        params = dv.TubeParams(R=radius, l=length)
        pairs = _pairs(vol=est.vol_parent, length=est.l, R=est.R, k=est.k,
                       tube_volume=dv.tube_volume(params),
                       extended_tube_volume=dv.extended_tube_volume(params),
                       bound_tight=est.bound_tight, bound_coarse=est.bound_coarse,
                       tube_fits=est.tube_fits)
        pairs += [("warning", w) for w in est.warnings]
        if "--quadrature-check" in argv:
            with self.tracer.span("warped.quad.tube"):
                tube_q = dv.warped_volume_quadrature(dv.hyperbolic_tube(), 0.0, radius, length)
            with self.tracer.span("warped.quad.extension"):
                ext_q = dv.warped_volume_quadrature(dv.kerckhoff_extension(radius), -math.inf,
                                                    radius, length, truncation_depth=40.0)
            pairs += _pairs(
                tube_volume_quadrature=tube_q.value,
                tube_volume_quadrature_err=abs(tube_q.value - dv.tube_volume(params)),
                extended_volume_quadrature=ext_q.value,
                extended_volume_quadrature_err=abs(ext_q.value - dv.extended_tube_volume(params)),
                extended_volume_tail_bound=ext_q.tail_bound,
            )
        return pairs, {}

    _bound_quad = _bound

    def _curvature_validate(self, argv):
        radius = _flag(argv, "--R")
        ext = dv.kerckhoff_extension(radius)
        probe = radius - max(0.1, 0.1 * radius)
        k = dv.sectional_curvatures(ext, probe)
        ric = dv.ricci_diagonal(ext, probe)
        pairs = _pairs(R=radius, K_rtheta=k.k_rtheta, K_rlambda=k.k_rlambda,
                       K_thetalambda=k.k_thetalambda,
                       ric_1=ric.ric_1, ric_2=ric.ric_2, ric_3=ric.ric_3,
                       k_limit=dv.coth(radius) * dv.coth(2.0 * radius))
        for tag, pair in (("tube", dv.hyperbolic_tube()), ("extension", ext)):
            with self.tracer.span("oracle.validate.analytic", n=100):
                rep = dv.validate_lemma_curvature(pair, samples=100, tolerance=ORACLE_TOLERANCE, seed=0)
            self.tracer.observe("oracle.max_rel_error", rep.max_rel_error)
            pairs += _pairs(**{f"validate_{tag}_max_error": rep.max_rel_error,
                               f"validate_{tag}_pass": rep.passed})
        return pairs, {}

    def _smooth(self, argv):
        radius, eps = _flag(argv, "--R"), _flag(argv, "--eps")
        fam = build_family(self.tracer, radius, eps)
        jf, jg = fam.junction_f, fam.junction_g
        pairs = _pairs(R=fam.R, eps=fam.eps,
                       iota_f=jf.iota, omega_f=jf.omega, delta_f=jf.delta,
                       iota_g=jg.iota, omega_g=jg.omega, delta_g=jg.delta,
                       delta=fam.delta, k_eps=fam.k_eps)
        rs = np.linspace(fam.R - fam.delta - 0.5, fam.R + 0.5, 201)
        cols = (rs, np.asarray(jf.a(rs), float), np.asarray(jf.a_prime(rs), float),
                np.asarray(jf.a_second(rs), float))
        lines = ["r,a,a_prime,a_second"]
        lines += [",".join(fmt(float(v)) for v in row) for row in zip(*cols)]
        return pairs, {"smooth.csv": "\n".join(lines) + "\n"}

    def _analyze(self, argv):
        with open(self.fixture, encoding="utf-8", newline="") as stream:
            text = stream.read()
        report, report_text, plot_text = run_pipeline(self.tracer, text)
        self.tracer.observe("data.report_bytes", len(report_text.encode("utf-8")))
        self.tracer.observe("data.plot_bytes", len(plot_text.encode("utf-8")))
        pairs = _pairs(records=len(report.rows), violations=report.violation_count,
                       max_violation_margin=report.max_violation_margin
                       if report.max_violation_margin is not None else "",
                       anomalies=report.anomaly_count, skipped_checks=len(report.notices))
        pairs += [("notice", n) for n in report.notices]
        pairs += _pairs(plot=argv[argv.index("--plot") + 1], style="linear")
        return pairs, {"report.csv": report_text, "plot.svg": plot_text}


def check_cli(ref: CliReference, call: CliCall, rc: int, stdout: str, stderr: str,
              files: dict[str, str]) -> list[str]:
    if rc != 0:
        return [f"{call.argv}: exit code {rc}: {stderr.strip()[-300:]}"]
    if call.kind == "version":
        want = f"drillvol {dv.__version__}\n"
        return [] if stdout == want else [f"--version printed {stdout!r}, expected {want!r}"]
    pairs, outputs = ref.expected(call)
    problems = []
    got = parse_key_values(stdout)
    if got != pairs:
        diff = [(g, w) for g, w in zip(got, pairs) if g != w][:3]
        problems.append(f"{call.argv}: key=value mismatch {diff or (len(got), len(pairs))}")
    for name, text in outputs.items():
        if files.get(name) != text:
            problems.append(f"{call.argv}: {name} differs from the library's output")
    return problems


# -- smoothed families --------------------------------------------------------

def build_family(tracer: Tracer, radius: float, eps: float):
    """``smoothed_metric`` with its junction builds traced as child spans."""
    with tracer.patched(dv.smoothing, "smooth_junction", "smoothing.smooth_junction"):
        with tracer.span("smoothing.smoothed_metric"):
            return dv.smoothed_metric(radius, eps)


def check_family(fam) -> list[str]:
    """Exact agreement outside the collar, the k_eps floor, finiteness.

    Below R - delta the pair must equal the exponential extension bit for
    bit.  Above R it equals (sinh, cosh) to 1e-12 relative: the stage
    corrections are continued analytically there, which leaves rounding
    in the last digits.
    """
    R, delta, pair = fam.R, fam.delta, fam.pair
    problems = []
    ext = dv.kerckhoff_extension(R)
    below = np.linspace(R - delta - 1.0, R - delta, 65)[:-1]
    above = np.linspace(R, R + fam.margin, 65)[1:]
    for fields, tube in zip(FAMILY_FIELDS, TUBE):
        for name, c in zip(fields, tube):
            got = np.asarray(getattr(pair, name)(below))
            want = np.asarray(getattr(ext, name)(below))
            if not np.array_equal(got, want):
                problems.append(f"{pair.name}: {name} differs from the extension below R - delta "
                                f"by {float(np.max(np.abs(got - want))):.3e}")
            got = np.asarray(getattr(pair, name)(above))
            want = c(above)
            rel = float(np.max(np.abs(got - want) / np.abs(want)))
            if not rel <= 1e-12:
                problems.append(f"{pair.name}: {name} differs from the tube above R by {rel:.3e}")
    limit = 1.0 / (math.tanh(R) * math.tanh(2.0 * R))
    if not (math.isfinite(fam.k_eps) and math.isfinite(delta)):
        problems.append(f"{pair.name}: non-finite k_eps={fam.k_eps} or delta={delta}")
    elif fam.k_eps < limit:
        problems.append(f"{pair.name}: k_eps={fam.k_eps!r} below coth R coth 2R={limit!r}")
    return problems


def observe_criterion_7(tracer: Tracer, fam) -> None:
    """Convexity and k gap, the clauses of acceptance criterion 7 still red.

    Recorded as observed values, not failures.
    """
    if not tracer.enabled:
        return
    R = fam.R
    rs = np.linspace(R - fam.delta - 1.0, R + fam.margin, 4096)
    convex = min(float(np.min(np.asarray(fam.pair.fpp(rs), float))),
                 float(np.min(np.asarray(fam.pair.gpp(rs), float))))
    tracer.observe("smoothing.convexity_min", convex)
    tracer.observe("smoothing.k_gap", fam.k_eps - 1.0 / (math.tanh(R) * math.tanh(2.0 * R)))


def eval_grids(tracer: Tracer, pair, rs: np.ndarray, scalars: np.ndarray) -> list[str]:
    """Evaluate a, a', a'' of both warping functions, vector and scalar, in
    float64 and longdouble; check finiteness and f8/ld agreement."""
    problems = []
    vec = {}
    for label, (f_name, g_name) in (("a", ("f", "g")), ("a1", ("fp", "gp")), ("a2", ("fpp", "gpp"))):
        fns = (getattr(pair, f_name), getattr(pair, g_name))
        for tag, dtype in (("f8", np.float64), ("ld", np.longdouble)):
            x = rs.astype(dtype)
            with tracer.span(f"smoothing.eval.vec.{tag}.{label}", n=2 * len(x)):
                vec[tag] = [np.asarray(fn(x)) for fn in fns]
            xs = [dtype(r) for r in scalars]
            with tracer.span(f"smoothing.eval.scalar.{tag}.{label}", n=2 * len(xs)):
                for fn in fns:
                    for r in xs:
                        fn(r)
        for f8, ld in zip(vec["f8"], vec["ld"]):
            ld = ld.astype(float)
            if not (np.all(np.isfinite(f8)) and np.all(np.isfinite(ld))):
                problems.append(f"{pair.name}: non-finite {label} on the probe grid")
            elif not np.allclose(f8, ld, rtol=1e-9, atol=1e-9):
                problems.append(f"{pair.name}: {label} float64 and longdouble grids disagree "
                                f"by {float(np.max(np.abs(f8 - ld))):.3e}")
    return problems


def check_oracle(pair, rep) -> tuple[list[str], int]:
    """Closed-form curvatures against the oracle at 1e-5, guarded as
    ``validate_lemma_curvature`` guards its errors; returns (problems, samples
    the oracle flagged).

    At the pair's own step the oracle is second order, and in the narrow
    collars of eps = 1e-3 its truncation error, or near a zero of K_rtheta or
    K_rlambda its rounding, can pass 1e-5 where the closed form is right.  A
    sample it flags is therefore judged against a fourth-order reference:
    Richardson's extrapolation of the oracle at twice and four times the
    step, where both errors are smaller.  The tolerance stays 1e-5.
    """
    if rep.passed:
        return [], 0
    h = pair.fd_step
    coarse = [dv.DiagonalMetric.from_warping_pair(pair, h=k * h) for k in RICHARDSON_STEPS]
    flagged = np.argwhere(rep.rel_errors > rep.tolerance)
    problems = []
    for i, j in flagged:
        r, closed = float(rep.radii[i]), float(rep.closed[i, j])
        k2, k4 = (dv.sectional_fd(m, r, ORACLE_PLANES[j]) for m in coarse)
        err = abs(closed - (4.0 * k2 - k4) / 3.0) / max(abs(closed), ORACLE_GUARD)
        if not err <= rep.tolerance:
            problems.append(f"{pair.name}: K{ORACLE_PLANES[j]} at r={r!r} is {closed!r}; "
                            f"oracle error {rep.rel_errors[i, j]:.3e}, "
                            f"fourth-order error {err:.3e} > {rep.tolerance:g}")
    return problems, len(flagged)


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced values."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# -- data pipeline ------------------------------------------------------------

def run_pipeline(tracer: Tracer, text: str):
    """parse -> analyze -> report -> linear plot, one span per stage."""
    with tracer.span("data.parse_records"):
        records = dv.parse_records(text)
    with tracer.span("data.analyze_records"):
        report = dv.analyze_records(records)
    with tracer.span("data.emit_report"):
        sink = io.StringIO()
        dv.emit_report(report, sink)
        report_text = sink.getvalue()
    with tracer.span("data.emit_plot"):
        sink = io.StringIO()
        dv.emit_plot(report, sink, style="linear")
        plot_text = sink.getvalue()
    return report, report_text, plot_text
