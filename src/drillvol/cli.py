"""Command line interface.

Subcommands wire the library into deterministic, machine-parseable reports:

    curvature --R <r> [--validate]      closed-form curvatures + oracle check
    smooth --R <r> --eps <e> [--csv]    smoothed junction samples and widths
    bound --vol <v> --length <l> --R <r>   drilled-volume bounds
    minvol                              the minimum-volume corollary chain
    analyze --input data.csv [--plot]   dataset checks, report CSV, SVG plot

Every subcommand prints stable ``key=value`` lines; errors go to stderr with
an ``error:<category>:`` prefix.  Exit codes: 0 success, 1 data, validation
or memory errors, 2 usage errors.  Numeric flags accept the literal tokens
``ln3/2`` and ``ln3`` alongside plain decimals.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
from dataclasses import dataclass

# Each command imports what else it uses when it runs: --version, minvol,
# bound and analyze need only the standard library, and numpy loads for
# curvature, smooth and bound --quadrature-check alone.
from . import __version__
from .bounds import coth, drilled_volume_bound, k_limit, min_volume_corollary
from .errors import ParameterError, ToolkitError, UsageError, ValidationError


def _scalar(text: str) -> float:
    """Parse a numeric flag; the tokens ln3/2 and ln3 are accepted exactly."""
    if text == "ln3/2":
        return math.log(3.0) / 2.0
    if text == "ln3":
        return math.log(3.0)
    return float(text)


def _count(text: str) -> int:
    """Parse a nonnegative integer flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


@dataclass
class CliConfig:
    precision: int = 12

    def fmt(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.{self.precision}g}"
        return str(value)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a value such as -1e-3, -inf or -nan is a number, not an option;
        # argparse reads only -1 and -0.5 so.  Subparsers are made of this
        # class too.
        self._negative_number_matcher = re.compile(r"(?i)^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$")

    def error(self, message: str) -> None:  # argparse's exit point
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="drillvol", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"drillvol {__version__}")
    parser.add_argument("--precision", type=int, default=12,
                        help="significant digits for numeric output (default 12)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("curvature", help="tube curvatures and optional oracle validation")
    p.add_argument("--R", type=_scalar, required=True, help="tube radius")
    p.add_argument("--validate", action="store_true",
                   help="cross-check closed forms against the finite-difference oracle")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=_scalar, default=1e-5)
    p.add_argument("--seed", type=_count, default=0)

    p = sub.add_parser("smooth", help="smoothed junction summary and samples")
    p.add_argument("--R", type=_scalar, required=True, help="tube radius")
    p.add_argument("--eps", type=_scalar, required=True, help="smoothing width")
    p.add_argument("--csv", default=None, help="write samples CSV here instead of stdout")
    p.add_argument("--samples", type=_count, default=201)
    p.add_argument("--lo", type=_scalar, default=None, help="sample range start")
    p.add_argument("--hi", type=_scalar, default=None, help="sample range end")

    p = sub.add_parser("bound", help="drilled-volume bounds for one geodesic")
    p.add_argument("--vol", type=_scalar, required=True, help="parent volume")
    p.add_argument("--length", type=_scalar, required=True, help="geodesic length")
    p.add_argument("--R", type=_scalar, required=True, help="embedded tube radius")
    p.add_argument("--quadrature-check", action="store_true",
                   help="cross-check the tube volumes by numeric integration")

    sub.add_parser("minvol", help="minimum-volume corollary report")

    p = sub.add_parser("analyze", help="check a drilled-geodesic dataset")
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--output", default=None, help="report CSV path (default: stdout)")
    p.add_argument("--plot", default=None, help="write an SVG scatter plot here")
    p.add_argument("--style", choices=("linear", "log10"), default="linear")

    return parser


def _emit(cfg: CliConfig, out, **pairs) -> None:
    for key, value in pairs.items():
        print(f"{key}={cfg.fmt(value)}", file=out)


def _cmd_curvature(args, cfg: CliConfig, out) -> int:
    from .warped import hyperbolic_tube, kerckhoff_extension, ricci_diagonal, sectional_curvatures

    R = args.R
    ext = kerckhoff_extension(R)
    # coth(R)^2 overflows before k does as R -> 0; k_limit rejects an
    # overflowing sinh(2R) before the curvatures overflow
    if not math.isfinite(coth(R) * coth(R)):
        raise ParameterError(f"tube radius {R:g} is too small: K_rtheta = -coth(R)^2 overflows")
    k_lim = k_limit(R)
    # 0.1 below R, or 0.1 R for R > 1; tanh R for R < 0.1, where 0.1 coth R
    # grows until f = sinh R exp(coth R (r - R)) underflows
    probe = R - max(min(0.1, math.tanh(R)), 0.1 * R)
    k = sectional_curvatures(ext, probe)
    ric = ricci_diagonal(ext, probe)
    reports = {}
    if args.validate:  # both run before any output, so a bad parameter prints nothing
        from .oracle import validate_lemma_curvature

        for tag, pair in (("tube", hyperbolic_tube()), ("extension", ext)):
            reports[tag] = validate_lemma_curvature(pair, samples=args.samples,
                                                    tolerance=args.tol, seed=args.seed)
    _emit(cfg, out, R=R,
          K_rtheta=k.k_rtheta, K_rlambda=k.k_rlambda, K_thetalambda=k.k_thetalambda,
          ric_1=ric.ric_1, ric_2=ric.ric_2, ric_3=ric.ric_3,
          k_limit=k_lim)
    for tag, report in reports.items():
        _emit(cfg, out, **{
            f"validate_{tag}_max_error": report.max_rel_error,
            f"validate_{tag}_pass": report.passed,
        })
    if not all(report.passed for report in reports.values()):
        raise ValidationError(f"closed-form curvatures disagree with the oracle "
                              f"beyond tolerance {args.tol:g}")
    return 0


def _cmd_smooth(args, cfg: CliConfig, out) -> int:
    import numpy as np

    from .smoothing import smoothed_metric

    for flag in ("lo", "hi"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"--{flag} must be finite, got {value}")
    fam = smoothed_metric(args.R, args.eps)
    jf, jg = fam.junction_f, fam.junction_g
    lo = args.lo if args.lo is not None else fam.R - fam.delta - 0.5
    hi = args.hi if args.hi is not None else fam.R + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        rs = np.linspace(lo, hi, args.samples)
        cols = [np.asarray(col(rs), float) for col in (jf.a, jf.a_prime, jf.a_second)]
    if not all(np.all(np.isfinite(col)) for col in [rs] + cols):
        raise ParameterError(f"the sample range [{lo:g}, {hi:g}] gives a non-finite "
                             f"r, a, a' or a''")
    rows = zip(rs, *cols)
    lines = ["r,a,a_prime,a_second"]
    lines += [",".join(cfg.fmt(float(v)) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.csv:  # written before any output, so a failed write prints nothing
        with open(args.csv, "w", encoding="utf-8") as sink:
            sink.write(text)
    _emit(cfg, out, R=fam.R, eps=fam.eps,
          iota_f=jf.iota, omega_f=jf.omega, delta_f=jf.delta,
          iota_g=jg.iota, omega_g=jg.omega, delta_g=jg.delta,
          delta=fam.delta, k_eps=fam.k_eps)
    if not args.csv:
        print("", file=out)
        out.write(text)
    return 0


def _cmd_bound(args, cfg: CliConfig, out) -> int:
    est = drilled_volume_bound(args.vol, args.length, args.R)
    quadrature = {}
    if args.quadrature_check:  # before any output, so a failure prints nothing
        from .warped import hyperbolic_tube, kerckhoff_extension, warped_volume_quadrature

        tube_q = warped_volume_quadrature(hyperbolic_tube(), 0.0, args.R, args.length)
        ext_q = warped_volume_quadrature(kerckhoff_extension(args.R), -math.inf, args.R, args.length)
        quadrature = dict(
            tube_volume_quadrature=tube_q.value,
            tube_volume_quadrature_err=abs(tube_q.value - est.tube_volume),
            extended_volume_quadrature=ext_q.value,
            extended_volume_quadrature_err=abs(ext_q.value - est.extended_tube_volume),
            extended_volume_tail_bound=ext_q.tail_bound)
    _emit(cfg, out, vol=est.vol_parent, length=est.l, R=est.R, k=est.k,
          tube_volume=est.tube_volume,
          extended_tube_volume=est.extended_tube_volume,
          bound_tight=est.bound_tight, bound_coarse=est.bound_coarse,
          tube_fits=est.tube_fits)
    for warning in est.warnings:
        _emit(cfg, out, warning=warning)
    _emit(cfg, out, **quadrature)
    return 0


def _cmd_minvol(args, cfg: CliConfig, out) -> int:
    rep = min_volume_corollary()
    _emit(cfg, out,
          cusped_volume=rep.cusped_volume_min,
          weeks_volume=rep.weeks_volume,
          equation_volume=rep.equation_volume,
          radius_threshold=rep.radius_threshold,
          coarse_factor=rep.coarse_factor_at_threshold,
          lower_bound=rep.lower_bound,
          lower_bound_target=rep.lower_bound_target,
          lower_bound_ok=rep.lower_bound_ok,
          radius_bound=rep.radius_bound,
          radius_bound_weeks=rep.radius_bound_weeks,
          radius_bound_target=rep.radius_bound_target,
          radius_bound_ok=rep.radius_bound_ok,
          case_filter=rep.case_filter)
    return 0


def _cmd_analyze(args, cfg: CliConfig, out) -> int:
    from .data import analyze_records, emit_plot, emit_report, parse_records

    with open(args.input, "r", encoding="utf-8", newline="") as stream:
        records = parse_records(stream)
    report = analyze_records(records)
    if args.plot:  # rendered before any file or output, so a plot that fails writes nothing
        svg = io.StringIO()
        emit_plot(report, svg, style=args.style)
    # the files are written before any output, so a failed write prints nothing
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as sink:
            emit_report(report, sink)
    if args.plot:
        with open(args.plot, "w", encoding="utf-8", newline="") as sink:
            sink.write(svg.getvalue())
    _emit(cfg, out,
          records=len(report.rows),
          violations=report.violation_count,
          max_violation_margin=report.max_violation_margin
          if report.max_violation_margin is not None else "",
          anomalies=report.anomaly_count,
          skipped_checks=report.skipped_check_count)
    for notice in report.notices:
        _emit(cfg, out, notice=notice)
    if not args.output:
        print("", file=out)
        emit_report(report, out)
    if args.plot:
        _emit(cfg, out, plot=args.plot, style=args.style)
    return 0


_COMMANDS = {
    "curvature": _cmd_curvature,
    "smooth": _cmd_smooth,
    "bound": _cmd_bound,
    "minvol": _cmd_minvol,
    "analyze": _cmd_analyze,
}


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    out = sys.stdout
    err = sys.stderr
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
    except UsageError as exc:
        print(f"error:usage: {exc}", file=err)
        print(parser.format_usage(), end="", file=err)
        return 2
    except SystemExit as exc:  # --help / --version print and exit 0
        return int(exc.code or 0)
    cfg = CliConfig(precision=max(1, min(args.precision, 17)))
    try:
        for path in filter(None, (getattr(args, flag, None) for flag in ("csv", "output", "plot"))):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):  # opens no file
                raise OSError(f"output path {path!r} is a directory, or its directory is missing")
        return _COMMANDS[args.command](args, cfg, out)
    except (ToolkitError, OSError, MemoryError) as exc:
        category = getattr(exc, "category", "io" if isinstance(exc, OSError) else "memory")
        print(f"error:{category}: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
