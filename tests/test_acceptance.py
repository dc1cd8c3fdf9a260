"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts.  Every criterion is implemented exactly as
stated, including criterion 7's convexity and k-gap clauses at the listed
smoothing widths.
"""

import io
import math
import time

import numpy as np

from conftest import FIXTURE_CSV, cached_family, parse_kv
from drillvol import (
    analyze_records,
    coth,
    emit_plot,
    emit_report,
    gmt_cases,
    hyperbolic_tube,
    kerckhoff_extension,
    parse_records,
    ricci_diagonal,
    sectional_curvatures,
    solve_radius_bound,
    validate_lemma_curvature,
    warped_volume_quadrature,
)
from drillvol.cli import run
from drillvol.bounds import TubeParams, extended_tube_volume, tube_volume

LN3_HALF = math.log(3.0) / 2.0


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    return ok


def test_criterion_01_minimum_volume_reproduction(capsys):
    t0 = time.perf_counter()
    code = run(["minvol"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    kv = parse_kv(out)
    exact = 2.0298 / (2.0 ** 2.5 * (5.0 / 4.0) ** 0.5)
    lower = float(kv["lower_bound"])
    ok = (
        code == 0
        and abs(lower - exact) < 1e-9
        and lower > 0.32
        and kv["lower_bound_ok"] == "true"
        and elapsed < 1.0
    )
    with capsys.disabled():
        assert report("1 minimum-volume reproduction", ok,
                      f"lower={lower:.10f} exact={exact:.10f} t={elapsed:.3f}s")


def test_criterion_02_radius_bound_reproduction(capsys):
    t0 = time.perf_counter()
    r0 = solve_radius_bound(2.0298, 0.943)
    elapsed = time.perf_counter() - t0
    residual = abs(coth(r0) ** 2.5 * coth(2 * r0) ** 0.5 * 0.943 - 2.0298)
    ok = residual < 1e-9 and 0.955 < r0 < 0.956 and elapsed < 1.0
    with capsys.disabled():
        assert report("2 radius-bound reproduction", ok,
                      f"R0={r0:.10f} residual={residual:.2e} t={elapsed:.3f}s")


def test_criterion_03_curvature_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    fam = cached_family(0.8, 1e-2)
    pairs = [(hyperbolic_tube(), None)]
    pairs += [(kerckhoff_extension(R), None) for R in (0.3, 0.8, 1.5)]
    # stress the smoothed pair where the construction lives: a window that
    # puts roughly a quarter of the samples inside the collar
    pairs.append((fam.pair, (0.8 - fam.delta - 0.1, 0.8 + 0.1)))
    worst = {}
    for pair, window in pairs:
        rep = validate_lemma_curvature(pair, samples=100, tolerance=1e-5, window=window)
        worst[pair.name] = (rep.passed, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = all(p for p, _ in worst.values()) and elapsed < 30.0
    detail = " ".join(f"{name}:{err:.1e}" for name, (_, err) in worst.items())
    with capsys.disabled():
        assert report("3 curvature oracle equivalence", ok, f"{detail} t={elapsed:.1f}s")


def test_criterion_04_constant_curvature(capsys):
    tube = hyperbolic_tube()
    worst = 0.0
    for r in np.linspace(0.01, 5.0, 1000):
        k = sectional_curvatures(tube, float(r))
        worst = max(worst, max(abs(v + 1.0) for v in k.as_tuple()))
    ok = worst < 1e-9
    with capsys.disabled():
        assert report("4 constant-curvature check", ok, f"max deviation {worst:.2e}")


def test_criterion_05_volume_identities(capsys):
    rng = np.random.default_rng(42)
    worst_quad = 0.0
    for _ in range(20):
        R = rng.uniform(0.1, 2.5)
        l = rng.uniform(0.05, 3.0)
        q = warped_volume_quadrature(kerckhoff_extension(R), -math.inf, R, l,
                                     truncation_depth=40.0)
        closed = 2.0 * math.pi * l * math.sinh(R) * math.cosh(R) / (coth(R) + math.tanh(R))
        worst_quad = max(worst_quad, abs(q.value - closed))
    ok_a = worst_quad < 1e-8

    worst_alg = 0.0
    for _ in range(1000):
        R = rng.uniform(0.05, 3.0)
        l = rng.uniform(0.01, 5.0)
        p = TubeParams(R=R, l=l)
        lhs = extended_tube_volume(p) - tube_volume(p)
        rhs = math.pi * l * math.sinh(R) ** 2 * (coth(R) / coth(2 * R) - 1.0)
        worst_alg = max(worst_alg, abs(lhs - rhs))
    ok_b = worst_alg < 1e-10
    with capsys.disabled():
        assert report("5 volume identities", ok_a and ok_b,
                      f"quad={worst_quad:.2e} algebraic={worst_alg:.2e}")


def test_criterion_06_c1_gluing(capsys):
    worst_glue = 0.0
    worst_jump = 0.0
    for R in (0.3, 0.8, 1.5):
        ext = kerckhoff_extension(R)
        worst_glue = max(
            worst_glue,
            abs(float(ext.f(R)) - math.sinh(R)),
            abs(float(ext.fp(R)) - math.cosh(R)),
            abs(float(ext.g(R)) - math.cosh(R)),
            abs(float(ext.gp(R)) - math.sinh(R)),
        )
        jump = float(ext.fpp(R)) - math.sinh(R)
        worst_jump = max(worst_jump, abs(jump - 1.0 / math.sinh(R)))
    ok = worst_glue < 1e-12 and worst_jump < 1e-10
    with capsys.disabled():
        assert report("6 C1 gluing", ok, f"glue={worst_glue:.2e} jump={worst_jump:.2e}")


def test_criterion_07_smoothing_construction(capsys):
    """Exactness, convexity and k-convergence over the (R, eps) grid.

    The slope and value corrections spread a slope of order eps over the
    collar of width 2 eps^(1/3), so they add O(eps^(2/3)) to the second
    derivatives: f'' and g'' stay positive at every grid point, and the k
    gaps decrease to below 0.05 at eps = 1e-3.  Measured at (R=0.8,
    eps=1e-3): min g'' = 0.266 and |k - coth R coth 2R| = 0.005.  On a
    failure the detail lists the measured values of each broken clause.
    """
    failures = []
    exact_ok = True
    for R in (0.5, 0.8, 1.2):
        lim = coth(R) * coth(2.0 * R)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            fam = cached_family(R, eps)
            jf, jg = fam.junction_f, fam.junction_g
            r_lo = R - fam.delta - 0.2
            below = max(
                abs(float(jf.a(r_lo)) - float(jf.b[0](r_lo))),
                abs(float(jg.a(r_lo)) - float(jg.b[0](r_lo))),
            )
            above = max(
                abs(float(jf.a(R + 0.1)) - math.sinh(R + 0.1)),
                abs(float(jg.a(R + 0.1)) - math.cosh(R + 0.1)),
            )
            if below > 1e-10 or above > 1e-10:
                exact_ok = False
                failures.append(f"exactness(R={R},eps={eps:g}): {max(below, above):.2e}")
            rs = np.linspace(R - fam.delta - 1.0, R + fam.margin, 4096)
            min_fpp = float(np.min(np.asarray(fam.pair.fpp(rs), float)))
            min_gpp = float(np.min(np.asarray(fam.pair.gpp(rs), float)))
            if not (min_fpp > 0.0 and min_gpp > 0.0):
                failures.append(
                    f"convexity(R={R},eps={eps:g}): min f''={min_fpp:.3f} min g''={min_gpp:.3f}"
                )
            gaps.append(abs(fam.k_eps - lim))
        if gaps != sorted(gaps, reverse=True):
            failures.append(f"k gaps not decreasing at R={R}: {gaps}")
        if not gaps[-1] < 0.05:
            failures.append(f"final k gap at R={R}: {gaps[-1]:.3f} >= 0.05")
    ok = exact_ok and not failures
    with capsys.disabled():
        assert report("7 smoothing construction", ok, "; ".join(failures) or "all clauses hold")


def test_criterion_08_ricci_bound(capsys):
    fam = cached_family(0.8, 1e-3)
    k = fam.k_eps
    rs = np.linspace(0.8 - fam.delta - 1.0, 0.8 + fam.margin, 4096)
    worst = -math.inf
    for r in rs:
        ric = ricci_diagonal(fam.pair, float(r))
        worst = max(worst, -(ric.min()) / 2.0)
    ok = worst <= k + 1e-9
    with capsys.disabled():
        assert report("8 Ricci bound", ok, f"sup(-ric)/2={worst:.6f} k_eps={k:.6f}")


def test_criterion_09_data_pipeline(capsys):
    with open(FIXTURE_CSV, encoding="utf-8") as stream:
        records = parse_records(stream)
    rep = analyze_records(records)
    flagged = sorted(row.record.index for row in rep.rows if row.violation)
    ok_flags = len(records) == 40 and flagged == [3, 11, 18, 27, 36]

    sink = io.StringIO()
    emit_report(rep, sink)
    back = parse_records(sink.getvalue())
    ok_round = len(back) == 40 and all(
        abs(a.length - b.length) <= 1e-12
        and abs(a.vol_drilled - b.vol_drilled) <= 1e-12
        for a, b in zip(records, back)
    )

    p1, p2 = io.StringIO(), io.StringIO()
    emit_plot(rep, p1, style="linear")
    emit_plot(rep, p2, style="linear")
    ok_svg = p1.getvalue().encode() == p2.getvalue().encode()
    ok = ok_flags and ok_round and ok_svg
    with capsys.disabled():
        assert report("9 data pipeline", ok,
                      f"flags={flagged} roundtrip={ok_round} svg_deterministic={ok_svg}")


def test_criterion_10_gmt_constants(capsys):
    cases = gmt_cases()
    one, two, three = cases
    ok = (
        len(cases) == 3
        and one.radius_lo == math.log(3.0) / 2.0
        and two.radius_hi == 1.0953 / 2.0
        and two.radius_lo == 1.0591 / 2.0
        and two.length_min == 1.059
        and three.radius_lo == 0.8314 / 2.0
        and "1.0149" in three.note
    )
    with capsys.disabled():
        assert report("10 trichotomy constants", ok)
