"""The staged junction smoothing and the smoothed metric family."""

import gc
import math
import pickle
import random
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import cached_family, counted_pair
from drillvol import (
    ParameterError,
    QuadratureError,
    SingularAxisError,
    SmoothedJunction,
    WidthError,
    bump_alpha,
    coth,
    ramp_beta,
    ricci_diagonal,
    ricci_lower_bound_constant,
    smooth_junction,
    smoothed_metric,
    step_phi,
    validate_lemma_curvature,
    warped_volume_quadrature,
)
from drillvol import smoothing, warped
from drillvol.smoothing import (
    _eval,
    _gauss_legendre,
    _k_grid,
    _powers,
    _ramp_moments,
    _ricci_sup_half,
)
from drillvol.warped import WarpingPair, _ricci_grid, _Values, hyperbolic_tube

EPS_SEQ = (1e-1, 1e-2, 1e-3)


def sinh_junction(R: float, eps: float) -> SmoothedJunction:
    """Exponential extension against sinh: the f-side junction."""
    return smooth_junction(R, eps, "f")


def collar_envelope(s: SmoothedJunction, grid_n: int = 4096) -> tuple[float, float]:
    """Grid-sampled (inf, sup) of a'' over the collar [R - delta, R]."""
    vals = np.asarray(s.a_second(np.linspace(s.R - s.delta, s.R, grid_n)), dtype=float)
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# Bump and ramp
# ---------------------------------------------------------------------------


class TestBump:
    def test_midpoint_value(self):
        # the peak 630/256, which bounds alpha
        assert float(bump_alpha(0.5)) == 630.0 / 256.0
        assert float(np.max(bump_alpha(np.linspace(0.0, 1.0, 1001)))) == 630.0 / 256.0

    @pytest.mark.parametrize("r", [0.0, 1.0, -1.0, 2.0])
    def test_vanishes_outside(self, r):
        assert float(bump_alpha(r)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0.0, 1.0, 200)
        assert np.allclose(bump_alpha(r), bump_alpha(1.0 - r), rtol=1e-12, atol=0.0)

    def test_c3_with_mass_one(self):
        """On (0, 1) alpha is the degree-8 polynomial through its values at 9
        Chebyshev points: it and its first three derivatives vanish at 0 and
        1, so alpha is C^3 on the line, its fourth is 630 * 4! there, and its
        integral over [0, 1] is 1."""
        x = 0.5 - 0.5 * np.cos((np.arange(9) + 0.5) * math.pi / 9)
        p = np.polynomial.Polynomial.fit(x, bump_alpha(x), 8)
        for end in (0.0, 1.0):
            for k in range(4):
                assert abs(p.deriv(k)(end)) <= (1e-9 if k else 1e-12)
            assert p.deriv(4)(end) == pytest.approx(630.0 * 24.0, rel=1e-9)
        assert p.integ()(1.0) - p.integ()(0.0) == pytest.approx(1.0, rel=1e-13)


class TestRamp:
    def test_endpoints(self):
        assert float(ramp_beta(0.0)) == 0.0
        assert float(ramp_beta(1.0)) == 1.0
        assert float(ramp_beta(-3.0)) == 0.0
        assert float(ramp_beta(7.0)) == 1.0

    def test_midpoint(self):
        # the bump is symmetric about 1/2, so the ramp passes through 1/2
        assert float(ramp_beta(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-0.2, 1.2, 1000)
        vals = np.asarray(ramp_beta(xs), float)
        assert np.all(np.diff(vals) >= 0.0)

    def test_derivative_consistency(self):
        # near x = 1 the ramp saturates within a float64 ulp of 1, so sample
        # where the increment is representable
        h = 1e-6
        for x in (0.21, 0.4, 0.55, 0.65):
            fd = (float(ramp_beta(x + h)) - float(ramp_beta(x - h))) / (2 * h)
            assert fd == pytest.approx(float(bump_alpha(x)), rel=1e-6)

    @pytest.mark.parametrize("x,want", [(math.inf, 1.0), (-math.inf, 0.0), (1e200, 1.0),
                                        (-1e200, 0.0), (np.longdouble("1e3000"), 1.0)])
    def test_huge_and_infinite_arguments(self, x, want):
        """beta is exact and warns nothing where its antiderivatives would
        overflow or meet inf * 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ramp_beta(x)
        assert got == want and got.dtype == np.asarray(x).dtype

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="ulps counted for the x87 80-bit longdouble")
    def test_moments_are_exact_rationals(self):
        """The cumulative moments int_0^x t^j alpha, j < 3, in extended
        precision at x = 1/4, 1/2 and 3/4, and the totals at x = 1, are within
        4 units of the longdouble's eps of the exact rationals, from
        alpha = 630 (t^4 - 4 t^5 + 6 t^6 - 4 t^7 + t^8)."""
        ulp = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
        for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            got = _ramp_moments(np.array([x.numerator / x.denominator], np.longdouble))[0]
            for j in range(3):
                want = sum(630 * c * x ** (k + 5 + j) / (k + 5 + j)
                           for k, c in enumerate((1, -4, 6, -4, 1)))
                assert abs(Fraction(*got[j].as_integer_ratio()) - want) <= 4 * ulp * want, (x, j)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="ulps counted for the x87 80-bit longdouble")
    def test_gauss_legendre_rule_is_exact(self):
        """The extended-precision 24-point rule integrates xi^m over [-1, 1]
        exactly for m <= 46, summed in rational arithmetic on the binary
        values of its nodes and weights: within 4 units of the longdouble's
        eps of 2/(m + 1), relative, for even m (3.7 at m = 46, measured),
        and to exactly 0 for odd m, the nodes and weights being mirrored.
        Its nodes round to leggauss(24)'s bit for bit.  Its weights round to
        within 1.3e-13 relative of leggauss's: those are off by up to 859
        float64 units in the last place at the end nodes (1.2e-13), and
        with them the rule misses 2/(m + 1) by up to 5.2e-14 relative."""
        xi, w = _gauss_legendre()
        assert xi.dtype == w.dtype == np.longdouble and xi.size == w.size == 24
        ulp = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
        nodes = [Fraction(*v.as_integer_ratio()) for v in xi]
        weights = [Fraction(*v.as_integer_ratio()) for v in w]
        for m in range(47):
            got = sum(wj * x ** m for wj, x in zip(weights, nodes))
            if m % 2:
                assert got == 0, m
            else:
                assert abs(got - Fraction(2, m + 1)) <= 4 * ulp * Fraction(2, m + 1), m
        nodes, weights = np.polynomial.legendre.leggauss(24)
        assert xi.astype(np.float64).tobytes() == nodes.tobytes()
        assert np.all(np.abs(w.astype(np.float64) - weights) <= 1.3e-13 * weights)


class TestStep:
    def test_clamps(self):
        R, eps = 0.8, 0.05
        assert float(step_phi(eps, R, R)) == 1.0
        assert float(step_phi(eps, R, R - eps)) == 0.0
        assert float(step_phi(eps, R, R + 1.0)) == 1.0

    def test_midpoint(self):
        assert float(step_phi(0.05, 0.8, 0.8 - 0.025)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r,want", [(math.inf, 1.0), (-math.inf, 0.0)])
    def test_infinite_radius(self, r, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert step_phi(1e-3, 0.8, r) == want

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.inf, math.nan])
    def test_width_must_be_positive_and_finite(self, eps):
        with pytest.raises(ParameterError, match="step width must be positive and finite"):
            step_phi(eps, 0.8, 0.5)


# ---------------------------------------------------------------------------
# Staged construction
# ---------------------------------------------------------------------------


class TestJunctionStages:
    def test_exact_outside_collar(self):
        s = sinh_junction(0.8, 1e-2)
        r_lo = 0.8 - s.delta - 0.1
        assert float(s.a(r_lo)) == pytest.approx(float(s.b[0](r_lo)), abs=1e-10)
        assert float(s.a(0.9)) == pytest.approx(math.sinh(0.9), abs=1e-10)

    def test_stage_anchors(self):
        s = sinh_junction(0.8, 1e-2)
        # a' equals b' below the collar and c' above R; a meets c at R
        r = 0.8 - s.delta - 0.05
        assert float(s.a_prime(r)) == pytest.approx(float(s.b[1](r)), abs=1e-12)
        assert float(s.a_prime(0.85)) == pytest.approx(math.cosh(0.85), abs=1e-12)
        assert float(s.a(0.8)) == pytest.approx(math.sinh(0.8), abs=1e-12)
        # both corrections span the advertised collar width 2 eps^(1/3)
        assert s.iota == pytest.approx(2.0 * s.eps ** (1.0 / 3.0), abs=1e-15)
        assert s.omega == pytest.approx(2.0 * s.eps ** (1.0 / 3.0), abs=1e-15)
        assert s.delta == max(s.eps, s.iota, s.omega)

    def test_widths_shrink_with_eps(self):
        widths = [sinh_junction(0.8, eps) for eps in EPS_SEQ]
        iotas = [s.iota for s in widths]
        omegas = [s.omega for s in widths]
        deltas = [s.delta for s in widths]
        assert iotas == sorted(iotas, reverse=True)
        assert omegas == sorted(omegas, reverse=True)
        assert deltas == sorted(deltas, reverse=True)

    def test_second_derivative_margin_shrinks(self):
        """sup a'' exceeds max(b''(R), c''(R)) by a margin that shrinks with eps."""
        R = 0.8
        top = max(float(np.sinh(R)) * coth(R) ** 2, math.sinh(R))
        margins = []
        for eps in EPS_SEQ:
            s = sinh_junction(R, eps)
            _, sup = collar_envelope(s)
            margins.append(max(0.0, sup - top))
        assert margins == sorted(margins, reverse=True)

    def test_envelope_limits(self):
        """sup -> max{b''(R), c''(R)} and inf -> min{...} along the eps sequence."""
        R = 0.8
        b_pp = math.sinh(R) * coth(R) ** 2
        c_pp = math.sinh(R)
        sup_gaps, inf_gaps = [], []
        for eps in EPS_SEQ:
            s = sinh_junction(R, eps)
            lo, hi = collar_envelope(s)
            sup_gaps.append(abs(hi - max(b_pp, c_pp)))
            inf_gaps.append(abs(lo - min(b_pp, c_pp)))
        assert sup_gaps == sorted(sup_gaps, reverse=True)
        assert inf_gaps == sorted(inf_gaps, reverse=True)

    def test_derivative_consistency_in_collar(self):
        s = sinh_junction(0.8, 1e-2)
        rng = np.random.default_rng(4)
        h = 3e-6
        for r in rng.uniform(0.8 - s.delta, 0.8, 100):
            fd1 = (float(s.a(r + h)) - float(s.a(r - h))) / (2 * h)
            fd2 = (float(s.a_prime(r + h)) - float(s.a_prime(r - h))) / (2 * h)
            assert abs(fd1 - float(s.a_prime(r))) < 1e-5
            assert abs(fd2 - float(s.a_second(r))) < 1e-5

    def test_junction_tolerance_scales_with_cosh(self):
        """At R = 12 the roundings of sinh R and cosh R alone leave b and c
        more than an absolute 1e-12 apart at R; the family builds, with a
        finite k_eps of at least coth R coth 2R."""
        fam = smoothed_metric(12.0, 1e-2)
        assert fam.k_eps >= coth(12.0) * coth(24.0)
        assert math.isfinite(fam.k_eps)

    def test_positive_width_required(self):
        with pytest.raises(ParameterError):
            sinh_junction(0.8, 0.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, R):
        """A non-finite R is rejected by the collar record's extension,
        before any ramp work, with no warning on the way, for either side;
        so is a finite R <= 0, which has no extension."""
        for side in ("f", "g"):
            for radius in (R, 0.0, -0.3):
                with pytest.raises(ParameterError, match="extension radius must be positive"):
                    smooth_junction(radius, 0.1, side)

    def test_unknown_side_rejected(self):
        with pytest.raises(ParameterError, match="side must be 'f' or 'g'"):
            smooth_junction(0.8, 1e-2, "h")

    @pytest.mark.parametrize("R,eps", [(0.8, 1e-50), (0.05, 1e-50), (3.0, 1e-44), (20.0, 1e-60)])
    def test_collar_below_float_resolution_rejected(self, R, eps):
        """A collar W = 2 eps^(1/3) so narrow that its ramps collapse onto R
        is rejected before the plateau moments are solved, without a warning
        from a singular solve."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WidthError, match="float64 resolution"):
                smoothed_metric(R, eps)

    def test_collapse_rejected_by_the_collar_record(self):
        """The collar record rejects collapsed ramps itself, before any
        junction exists, in a message that names no junction."""
        with pytest.raises(WidthError, match="^collar width W=.*the plateau ramps collapse$"):
            smoothing._collar_of(0.8, 1e-50)

    @pytest.mark.parametrize("side", ["f", "g"])
    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_window_reaching_the_core_rejected(self, side, eps):
        """An eps >= R puts the blending window [R - eps, R] across the tube
        core: a junction is rejected as smoothed_metric is, by the collar
        record (built, the f junction of (0.1, 0.5) has a(-0.3) = -0.19)."""
        with pytest.raises(WidthError, match=rf"reaches the tube core r = 0 \(R=0.1, eps={eps:g}\)"):
            smooth_junction(0.1, eps, side)


# ---------------------------------------------------------------------------
# Smoothed metric family
# ---------------------------------------------------------------------------


class TestSmoothedMetric:
    def test_pure_regions(self):
        fam = cached_family(0.8, 1e-3)
        assert float(fam.pair.f(1.0)) == pytest.approx(math.sinh(1.0), abs=1e-10)
        assert float(fam.pair.g(1.0)) == pytest.approx(math.cosh(1.0), abs=1e-10)
        r_lo = 0.8 - fam.delta - 0.3
        assert float(fam.pair.f(r_lo)) == pytest.approx(
            float(fam.junction_f.b[0](r_lo)), abs=1e-12)

    def test_each_side_evaluated_alone(self):
        """Far below R only the extension is evaluated: sinh(-800) would
        overflow, and every derivative stays finite and quiet."""
        jf = cached_family(0.8, 1e-2).junction_f
        rs = np.linspace(-800.0, 1.3, 3)
        with np.errstate(over="raise", invalid="raise"):
            values = [jf.a(rs), jf.a_prime(rs), jf.a_second(rs)]
        assert all(np.all(np.isfinite(v)) for v in values)
        assert values[0][0] == 0.0 and values[0][-1] == pytest.approx(math.sinh(1.3))

    def test_collar_shrinks(self):
        assert cached_family(0.8, 1e-1).delta > cached_family(0.8, 1e-3).delta

    @pytest.mark.parametrize("R,eps", [(0.5, 1e-5), (0.8, 1e-4), (1.2, 1e-4)])
    def test_convexity_for_small_eps(self, R, eps):
        """Second derivatives stay positive once eps is small enough."""
        fam = cached_family(R, eps)
        rs = np.linspace(R - fam.delta - 1.0, R + fam.margin, 4096)
        assert float(np.min(np.asarray(fam.pair.fpp(rs), float))) > 0.0
        assert float(np.min(np.asarray(fam.pair.gpp(rs), float))) > 0.0

    def test_finite_eps_dip_regression(self):
        """At eps = 1e-3 the g-side minimum of g'' stays positive.

        The grid minimum is a regression constant, cross-checked against a
        dense-grid double integration of a'' from b at R - delta.
        """
        fam = cached_family(0.8, 1e-3)
        rs = np.linspace(0.8 - fam.delta - 1.0, 0.8 + fam.margin, 4096)
        min_gpp = float(np.min(np.asarray(fam.pair.gpp(rs), float)))
        assert min_gpp == pytest.approx(0.265823, abs=1e-3)

    def test_width_error_when_collar_reaches_core(self):
        with pytest.raises(WidthError):
            smoothed_metric(0.1, 1e-1)

    def test_vanishing_warping_function_rejected(self):
        """At R = 0.1 the eps = 0.05 collar reaches far below r = 0, where
        f is too small to absorb the slope correction and turns negative."""
        with pytest.raises(SingularAxisError):
            smoothed_metric(0.1, 5e-2)

    def test_k_eps_sequence_regression(self):
        """|k_eps - coth R coth 2R| decreases along the eps sequence.

        The k values are regression constants pinned by a dense-grid run.
        """
        target = coth(0.8) * coth(1.6)
        pinned = {1e-1: 1.8567367405326471, 1e-2: 1.6637724170719888, 1e-3: 1.6390959947177195}
        gaps = []
        for eps in EPS_SEQ:
            k = cached_family(0.8, eps).k_eps
            assert k == pytest.approx(pinned[eps], rel=1e-6)
            assert k >= target - 1e-9
            gaps.append(abs(k - target))
        assert gaps == sorted(gaps, reverse=True)

    def test_limit_identity(self):
        """(1 + coth(R)^2) / 2 equals coth(R) coth(2R) for random R.

        Relative comparison: near R = 0 both sides blow up like 1/R^2, so an
        absolute 1e-14 would be tighter than a float64 ulp of the values.
        """
        rng = np.random.default_rng(12)
        for R in rng.uniform(0.05, 3.0, 1000):
            lhs = (1.0 + coth(R) ** 2) / 2.0
            rhs = coth(R) * coth(2.0 * R)
            assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))

    def test_uniform_c1_convergence(self):
        """max |a_eps - a| and max |a_eps' - a'| shrink along the eps sequence."""
        for R in (0.5, 0.8, 1.2):
            prev_v = prev_d = math.inf
            for eps in EPS_SEQ:
                jf = cached_family(R, eps).junction_f
                rs = np.linspace(R - jf.delta, R, 1001)
                dv = float(np.max(np.abs(np.asarray(jf.a(rs), float)
                                         - np.asarray(jf.b[0](rs), float))))
                dd = float(np.max(np.abs(np.asarray(jf.a_prime(rs), float)
                                         - np.asarray(jf.b[1](rs), float))))
                assert dv < prev_v and dd < prev_d
                prev_v, prev_d = dv, dd


# ---------------------------------------------------------------------------
# Blend totals and the refined Ricci constant
# ---------------------------------------------------------------------------

CRITERION_7_GRID = [(R, eps) for R in (0.5, 0.8, 1.2) for eps in EPS_SEQ]


def build_checks(junction, monkeypatch) -> list:
    """The references and error estimates that the build check of a new
    build of the junction's sides returns, recorded around
    smoothing._check_moments."""
    checks = []
    check = smoothing._check_moments

    def recording(*args):
        checks.append(check(*args))
        return checks[-1]

    monkeypatch.setattr(smoothing, "_check_moments", recording)
    smooth_junction(junction.R, junction.eps, junction.side)
    monkeypatch.undo()
    return checks


def half_neg_ricci(pair, rs):
    """max(-Ric)/2 at each radius of rs, from the pair's six callables."""
    f, g = np.asarray(pair.f(rs), float), np.asarray(pair.g(rs), float)
    krt = np.asarray(pair.fpp(rs), float) / f
    krl = np.asarray(pair.gpp(rs), float) / g
    ktl = np.asarray(pair.fp(rs), float) * np.asarray(pair.gp(rs), float) / (f * g)
    return 0.5 * np.maximum(np.maximum(krt + krl, krt + ktl), krl + ktl)


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID)
def test_blend_totals_match_adaptive_quadrature(R, eps, monkeypatch):
    """The slope and value totals are int (c'' - b'') phi_eps (t - R)^j, and
    so is the build check's reference, the rule on 4 panels, whose distance
    from the rule on 2 panels is at most 5e-13."""
    from scipy.integrate import quad

    fam = cached_family(R, eps)
    for junction in (fam.junction_f, fam.junction_g):
        [(check, errs)] = build_checks(junction, monkeypatch)
        for j in (0, 1):
            ref, _ = quad(lambda t: float((junction.c[2](t) - junction.b[2](t)) * step_phi(eps, R, t)) * (t - R) ** j,
                          R - eps, R, epsabs=1e-13, epsrel=1e-12, limit=400)
            assert abs(junction._totals[j] - ref) <= 5e-12
            assert abs(float(check[j]) - ref) <= 5e-12
            assert errs[j] <= 5e-13


def test_perturbed_blend_total_rejected(monkeypatch):
    """A blend total off by 1e-10 fails the build check."""
    check = smoothing._check_moments

    def perturbed(label, totals, sums, lo, hi):
        slope, value = totals
        return check(label, (slope + 1e-10, value), sums, lo, hi)

    monkeypatch.setattr(smoothing, "_check_moments", perturbed)
    with pytest.raises(QuadratureError, match="blend stage: panel quadrature of moment 0"):
        sinh_junction(0.8, 1e-2)


def test_check_reference_resolves_a_jump_the_totals_miss(monkeypatch):
    """The build check's reference is a rule of its own: with a jump of
    1e-3 in the gap c'' - b'' at R - eps/2, an edge of the check's 4- and
    2-panel rules, the one-panel totals miss the reference by 4.2e-9 while
    the two check rules agree to rounding, so the build fails its check.  A
    reference that read the totals would pass it."""
    R, eps = 0.8, 1e-2
    gap = warped._TubeGap.__call__

    def jumping(self, x):  # x holds the offsets t - R
        return gap(self, x) + 1e-3 * (x.x > -eps / 2)

    monkeypatch.setattr(warped._TubeGap, "__call__", jumping)
    with pytest.raises(QuadratureError, match="blend stage: panel quadrature of moment 0"):
        smooth_junction(R, eps, "f")


def test_junction_builds_go_through_smooth_junction(monkeypatch):
    """smoothed_metric builds both junctions through the module-level
    smooth_junction, the name a profiler wraps to time junction builds."""
    want = cached_family(0.8, 1e-2).k_eps
    built = []
    original = smoothing.smooth_junction

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(smoothing, "smooth_junction", recording)
    fam = smoothed_metric(0.8, 1e-2)
    assert [j.name for j in built] == ["f-junction(R=0.8)", "g-junction(R=0.8)"]
    assert built[0] is fam.junction_f and built[1] is fam.junction_g
    assert fam.k_eps == want


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID)
def test_refined_k_eps_not_below_grid(R, eps):
    fam = cached_family(R, eps)
    grid = ricci_lower_bound_constant(fam.pair, (R - fam.delta - 1.0, R + fam.margin), 4096)
    assert fam.k_eps >= grid


@pytest.mark.parametrize("R,eps", [(0.5, 1e-1), (0.8, 1e-2), (1.2, 1e-3)])
def test_refined_k_eps_is_the_local_supremum(R, eps):
    """k_eps equals the maximum of -Ric/2 on a 10^5-point grid over the two
    coarse cells around the 4096-point grid's argmax."""
    fam = cached_family(R, eps)
    rs = np.linspace(R - fam.delta - 1.0, R + fam.margin, 4096)
    i = int(np.argmax(half_neg_ricci(fam.pair, rs)))
    dense = np.linspace(rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)], 100_001)
    sup = max(float(half_neg_ricci(fam.pair, chunk).max()) for chunk in np.array_split(dense, 10))
    assert fam.k_eps == pytest.approx(sup, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# One pass per collar: shared lookups, bit for bit
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    """Equal type, dtype, values and signs: bit for bit, without reading the
    padding bytes of extended precision."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("R,eps", [(0.5, 1e-1), (0.8, 1e-2), (1.2, 1e-3)])
def test_eval_of_all_orders_matches_each_evaluator(R, eps):
    """One pass over one junction, _eval((j,), r), and the family pass over
    both junctions give a, a' and a'' of each junction bit for bit, on
    float64 and longdouble grids and scalars, at R, R - eps and R - delta
    included."""
    fam = cached_family(R, eps)
    junctions = (fam.junction_f, fam.junction_g)
    points = [R, R - eps] + [R - j.delta for j in junctions]
    grid = np.concatenate([np.linspace(R - fam.delta - 0.1, R + 0.1, 2001), points])
    scalars = points + [np.longdouble(p) for p in points] + [np.float64(R - 0.5 * eps)]
    for r in [grid, grid.astype(np.longdouble)] + scalars:
        family = _eval(junctions, r)
        for junction, both in zip(junctions, family):
            alone = _eval((junction,), r)[0]
            evaluators = (junction.a, junction.a_prime, junction.a_second)
            for got, fn in zip((*alone, *both), 2 * evaluators):
                assert_same_bits(got, fn(r))


def test_evaluators_return_the_inputs_dtype():
    """Every evaluator returns its input's float dtype and shape, for
    float32, float64 and longdouble arrays and numpy scalars, at a point
    below the collar, on it, on the blending window, at R and above R, one
    at a time (a point set wholly on the collar takes its own path) and all
    together: the pair's six callables read through one pass (_Values) and
    each junction's a, a' and a''."""
    R, eps = 0.8, 1e-2
    fam = cached_family(R, eps)
    junctions = (fam.junction_f, fam.junction_g)
    points = (R - fam.delta - 0.1, R - fam.junction_f._collar.width / 2, R - eps / 2, R, R + 0.05)
    for dt in (np.float32, np.float64, np.longdouble):
        inputs = [np.array(points, dt)] + [r for p in points for r in (np.array([p], dt), dt(p))]
        for r in inputs:
            at = _Values(r)
            got = [at(getattr(fam.pair, name)) for name in PAIR_FIELDS]
            got += [fn(r) for j in junctions for fn in (j.a, j.a_prime, j.a_second)]
            for value in got:
                assert value.dtype == dt and np.shape(value) == np.shape(r)


_SEEDED = random.Random(0)
SWEEP_LIKE = [(_SEEDED.uniform(0.4, 1.5), eps) for eps in EPS_SEQ for _ in range(4)]
PAIR_FIELDS = ("f", "fp", "fpp", "g", "gp", "gpp")


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID + SWEEP_LIKE)
def test_k_eps_from_junction_passes_matches_pair_callables(R, eps):
    """k_eps, from one pass over both junctions per grid (the pair's six
    callables share it), equals bit for bit the same refinement on a counted
    copy of the pair, whose callables are plain closures that each grid
    calls one by one, a pass per callable."""
    fam = cached_family(R, eps)
    wrapped, calls = counted_pair(fam.pair)
    assert fam.k_eps == _ricci_sup_half(wrapped, _k_grid(R, fam.delta))
    assert len(set(calls.values())) == 1 and set(calls) == set(PAIR_FIELDS)


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID + SWEEP_LIKE)
def test_collar_grid_gives_the_whole_grids_supremum(R, eps):
    """The first Ricci grid is the slice of the uniform 4096-point grid of
    [R - delta - 1, R + margin] that covers the collar [R - delta, R], with
    one neighbour on each side: outside the collar -Ric/2 is the extension's
    constant below and the tube's above.  The refinement from it gives the
    refinement from the whole grid bit for bit (also on all 2304
    sweep_pairs(1) and sweep_pairs(2) families, measured)."""
    fam = cached_family(R, eps)
    whole = np.linspace(R - fam.delta - 1.0, R + fam.margin, smoothing._K_GRID_N)
    rs = _k_grid(R, fam.delta)
    first = int(np.flatnonzero(whole == rs[0])[0])
    assert np.array_equal(rs, whole[first:first + len(rs)])
    assert rs[0] < R - fam.delta <= rs[1] and rs[-2] <= R < rs[-1]
    assert fam.k_eps == _ricci_sup_half(fam.pair, whole)


def full_depth_sup_half(pair, rs):
    """The refinement from the first grid rs without the curvature stop:
    bracket rounds until the bracket stops shrinking, which spends its last
    rounds on rounding."""
    best, width = -math.inf, math.inf
    while True:
        vals = _ricci_grid(pair, rs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        b_lo, b_hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
        if not b_hi - b_lo < width:
            return best
        width = b_hi - b_lo
        rs = np.linspace(b_lo, b_hi, smoothing._BRACKET_POINTS)


def count_ricci_grids(monkeypatch) -> list:
    """Record the size of each grid that _ricci_sup_half evaluates, from here
    to the end of the test."""
    grids = []

    def counting(pair, rs):
        grids.append(np.size(rs))
        return _ricci_grid(pair, rs)

    monkeypatch.setattr(smoothing, "_ricci_grid", counting)
    return grids


# R >= 20, where -Ric/2 is a plateau at 1 to within rounding
LARGE_R = [(20.0, 1e-2), (100.0, 1e-4), (354.0, 0.1)]


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID + SWEEP_LIKE + LARGE_R)
def test_curvature_stop_matches_full_depth(R, eps, monkeypatch):
    """k_eps stops refining once the sampled peak's second difference says a
    further round cannot raise it by more than rounding.  From the same
    first grid it never exceeds the full-depth refinement, stays within
    2e-15 relative of it (6.6e-16 at most on 2304 sweep families), and takes
    at most 6 grids on these pairs (4 to 5 on the sweep families, where the
    full depth takes 9 to 13)."""
    fam = cached_family(R, eps)
    rs = _k_grid(R, fam.delta)
    full = full_depth_sup_half(fam.pair, rs)
    grids = count_ricci_grids(monkeypatch)
    assert _ricci_sup_half(fam.pair, rs) == fam.k_eps
    assert 0.0 <= full - fam.k_eps <= 2e-15 * full
    assert grids[0] == len(rs) and 2 <= len(grids) <= 6


def test_first_grid_is_always_refined(monkeypatch):
    """On the tube -Ric/2 is exactly 1, so every second difference is 0, yet
    the 4096-point grid never stops the refinement (it guards against
    aliasing): one bracket round follows it, and stops."""
    grids = count_ricci_grids(monkeypatch)
    assert _ricci_sup_half(hyperbolic_tube(), np.linspace(0.5, 1.5, smoothing._K_GRID_N)) == 1.0
    assert grids == [smoothing._K_GRID_N, smoothing._BRACKET_POINTS]


def test_peak_at_an_end_stops_early(monkeypatch):
    """f = g = exp(r^2/2) has -Ric/2 = 1 + r^2, so on an interval beside 0
    every round's argmax is an end of its grid.  The second difference is
    then taken one point in, and the refinement stops within 4 grids at the
    end's value."""
    def e(r):
        return np.exp(r * r / 2)

    ep, epp = (lambda r: r * e(r)), (lambda r: (1 + r * r) * e(r))
    pair = WarpingPair(f=e, fp=ep, fpp=epp, g=e, gp=ep, gpp=epp, name="gaussian")
    grids = count_ricci_grids(monkeypatch)
    for lo, hi in ((0.5, 1.5), (-1.5, -0.5)):
        grids.clear()
        rs = np.linspace(lo, hi, smoothing._K_GRID_N)
        assert _ricci_sup_half(pair, rs) == pytest.approx(3.25, rel=1e-15, abs=0.0)
        assert len(grids) <= 4


def test_kinked_peak_ends_when_the_bracket_stops_shrinking(monkeypatch):
    """At a kink the second difference never falls to rounding, so the
    refinement ends on its fallback: the bracket around pi/4 stops
    shrinking once its points coincide in float64.  A grid function that
    raises after 64 calls turns a broken exit into a failure, not a hang."""
    grids = []

    def kinked(pair, rs):
        grids.append(rs)
        if len(grids) > 64:
            raise RuntimeError("the refinement did not end")
        return 1.0 - 1e3 * np.abs(rs - math.pi / 4)

    monkeypatch.setattr(smoothing, "_ricci_grid", kinked)
    assert _ricci_sup_half(None, np.linspace(0.0, 2.0, smoothing._K_GRID_N)) == 1.0
    assert len(grids) <= 16
    assert len(np.unique(grids[-1])) < smoothing._BRACKET_POINTS


# the calls per callable that each run made on the counted copy while every
# callable of the smoothed pair was its own evaluator pass, before they
# shared one; the collar quadrature's count depends on the family
COUNTED_QUADRATURE_CALLS = {(0.5, 1e-1): 9, (0.8, 1e-2): 9, (1.2, 1e-3): 3}


@pytest.mark.parametrize("R,eps", list(COUNTED_QUADRATURE_CALLS))
def test_counted_copy_sees_every_call(R, eps):
    """The benchmark counts evaluations on a copy of the pair with plain
    closures, which carry no shared base.  The Ricci grid, the oracle (in
    criterion 3's window and in its default one), the collar quadrature and
    ricci_diagonal give on that copy the shared pair's results bit for bit,
    with the calls per callable that they made before the callables shared
    a pass."""
    fam = cached_family(R, eps)
    wrapped, calls = counted_pair(fam.pair)
    lo, hi = R - fam.delta - 0.1, R + 0.1
    n = COUNTED_QUADRATURE_CALLS[R, eps]
    runs = [
        (lambda w: _ricci_grid(w, np.linspace(R - fam.delta - 1.0, R + fam.margin, 4096)),
         dict.fromkeys(PAIR_FIELDS, 1)),
        (lambda w: validate_lemma_curvature(w, samples=50, window=(lo, hi)),
         {**dict.fromkeys(PAIR_FIELDS, 1), "f": 2, "g": 2}),
        (lambda w: validate_lemma_curvature(w, samples=50), dict.fromkeys(PAIR_FIELDS, 2)),
        (lambda w: warped_volume_quadrature(w, R - fam.delta, R, 0.7), {"f": n, "g": n}),
        (lambda w: [ricci_diagonal(w, r) for r in np.linspace(lo, hi, 7)],
         dict.fromkeys(PAIR_FIELDS, 7)),
    ]
    for run, want in runs:
        shared = run(fam.pair)
        calls.clear()
        counted = run(wrapped)
        assert dict(calls) == want
        # equal pickles: the same arrays and floats, bit for bit
        assert pickle.dumps(counted) == pickle.dumps(shared)


def record_ramp_lookups(monkeypatch) -> list:
    """Record the shape of each lookup of all three ramp moments, from here
    to the end of the test; reads of beta alone, which the window rules'
    nodes make, are not recorded."""
    lookups = []
    ramp_moments = smoothing._ramp_moments

    def counting(x, count=3):
        if count == 3:
            lookups.append(np.shape(x))
        return ramp_moments(x, count)

    monkeypatch.setattr(smoothing, "_ramp_moments", counting)
    return lookups


def test_one_ramp_lookup_per_eval_pass(monkeypatch):
    """An evaluator pass over collar points makes one ramp lookup, for one
    junction or both, on float64 and longdouble arrays and scalars:
    phi_eps's argument rides beside the four plateau ramps (two lookups
    when phi_eps had its own).  A pass with no collar point makes none."""
    fam = cached_family(0.8, 1e-2)
    grid = np.linspace(0.8 - fam.delta - 0.1, 0.9, 101)
    lookups = record_ramp_lookups(monkeypatch)
    for r in (grid, grid.astype(np.longdouble), 0.8 - 5e-3, np.longdouble(0.8 - 0.2)):
        for junctions in ((fam.junction_f,), (fam.junction_f, fam.junction_g)):
            lookups.clear()
            _eval(junctions, r)
            assert len(lookups) == 1
    lookups.clear()
    _eval((fam.junction_f, fam.junction_g), np.array([0.8 - fam.delta - 0.1, 0.9]))
    assert lookups == []


def test_junctions_share_one_collar_record(monkeypatch):
    """The two junctions of a family hold one collar record.  A build makes
    5 lookups of the three ramp moments, one at R and one per Ricci grid:
    the collar's slice of the uniform grid and three 129-point brackets (7
    with 33-point brackets, 14 when the refinement ran until its bracket
    stopped shrinking, 28 when each pass looked phi_eps up on its own, 32
    when the build check looked phi_eps up on its own panels, 172 with
    lookups per callable and order).  It evaluates no bump (6912 points
    when each record tabulated phi_eps' on its own blend nodes, up to 1000
    while the blend cache integrated phi_eps').  Its extended-precision
    exp, expm1, sinh and cosh of more than one point are the closed-form
    gaps' on the 168 nodes of the record's build rule: e^x once for both
    junctions and one expm1 each (at 88 panel and 72 node offsets while a
    build integrated on 2112 nodes in fixed layouts, and 2 window
    exponentials and the tube's sinh and cosh when each junction
    subtracted its sides there, 12 arrays when each junction evaluated its
    sides per order and stage)."""
    want = cached_family(0.8, 1e-2).k_eps
    smoothing._collar_of.cache_clear()
    lookups = record_ramp_lookups(monkeypatch)
    bump_points, window_calls = [], []
    bump = smoothing.bump_alpha

    def counting_bump(r):
        bump_points.append(np.size(r))
        return bump(r)

    def counting(fn):
        def call(x, *args, **kwargs):
            if np.asarray(x).dtype == np.longdouble and np.size(x) > 1:
                window_calls.append((fn.__name__, np.size(x)))
            return fn(x, *args, **kwargs)
        return call

    monkeypatch.setattr(smoothing, "bump_alpha", counting_bump)
    for name in ("exp", "expm1", "sinh", "cosh"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    fam = smoothed_metric(0.8, 1e-2)
    monkeypatch.undo()
    smoothing._collar_of.cache_clear()  # its tube holds the counting sinh and cosh
    collar = fam.junction_f._collar
    assert collar is fam.junction_g._collar
    assert len(lookups) == 5
    assert bump_points == []
    assert sorted(window_calls) == [("exp", 168), ("expm1", 168), ("expm1", 168)]
    assert fam.k_eps == want


SEAM_PAIRS = [(0.5, 1e-3), (0.8, 1e-2), (1.2, 1e-3), (8.0, 1e-2), (0.4, 0.1), (37.25, 0.13)]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="levels measured with the x87 80-bit longdouble")
@pytest.mark.parametrize("R,eps", SEAM_PAIRS)
def test_no_seam_at_R(R, eps):
    """a, a' and a'' of both junctions step from R to the next longdouble
    above it as c's do, to within 8 longdouble eps of |c^(k)(R)|: the seam
    residuals carry the rounding of the moment match and, for a'', the
    distance of the closed-form gap (the exact extension's constants) from
    b's float64 constants above R.  Without the a'' residual the step
    differed by up to 14400 eps (f at (0.4, 0.1)); 0 measured with it."""
    r = np.array([R, np.nextafter(np.longdouble(R), np.longdouble(np.inf))])
    fam = cached_family(R, eps)
    for junction in (fam.junction_f, fam.junction_g):
        for k, fn in enumerate((junction.a, junction.a_prime, junction.a_second)):
            a, c = fn(r), junction.c[k](r)
            jump = abs((a[1] - a[0]) - (c[1] - c[0]))
            assert jump <= 8 * np.finfo(np.longdouble).eps * abs(c[0])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="levels measured with the x87 80-bit longdouble")
@pytest.mark.parametrize("R,eps", SEAM_PAIRS)
def test_derivatives_agree_above_R(R, eps):
    """Above R, a and a' change by the integral of their next derivative:
    the seam residuals' Taylor tail keeps a, a' and a'' the derivatives of
    one function.  Over [R, R + h], h = 0.05 and 0.5, a^(k)(R + h) - a^(k)(R)
    is within 8 longdouble eps of |c^(k)(R + h)| of the 24-point rule's
    integral of a^(k+1) (1.5 measured; up to 2070 for a' when the a''
    residual is carried by a'' alone)."""
    xi, w = _gauss_legendre()
    fam = cached_family(R, eps)
    for h in (0.05, 0.5):
        lo, hi = np.longdouble(R), np.longdouble(R) + np.longdouble(h)
        nodes, weights = (lo + hi) / 2 + (hi - lo) / 2 * xi, (hi - lo) / 2 * w
        for junction in (fam.junction_f, fam.junction_g):
            fns = (junction.a, junction.a_prime, junction.a_second)
            for k in (0, 1):
                ends = fns[k](np.array([lo, hi]))
                drift = abs(ends[1] - ends[0] - weights @ fns[k + 1](nodes))
                assert drift <= 8 * np.finfo(np.longdouble).eps * abs(junction.c[k](hi))


def blend_lookup(junction, s):
    """I_0 and I_1 of the junction at the blending window's points s, read
    as an evaluator pass reads them: through the pass's window rule."""
    collar = junction._collar
    return junction._blend(smoothing._CollarPass(collar, s))


def panel_rule(lo, hi, panels: int):
    """The nodes and weights, flat, of the 24-point rule on ``panels`` equal
    panels of [lo, hi], in extended precision."""
    xi, w = _gauss_legendre()
    edges = np.linspace(np.longdouble(lo), np.longdouble(hi), panels + 1)
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2, (edges[1:] - edges[:-1])[:, None] / 2
    return (mid + half * xi).ravel(), (half * w).ravel()


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID + [(R, e) for R in (3.0, 8.0) for e in EPS_SEQ])
def test_blend_cache_and_totals_agree_by_parts(R, eps):
    """A pass reads the blend totals at R: I_j there, in either precision,
    rounds to the totals bit for bit.  The totals agree by parts, where
    phi_eps(R) = 1, with the integrals J_k of w_k phi_eps' for
    w = (c' - b', (c' - b') (t - R), c - b), by the rule on 64 panels in t:
    T0 = (c' - b')(R) - J0 and T1 = -J1 - (c - b)(R) + J2, to
    1e-16 cosh R.  At R - eps/3, where the pass runs the rule on [0, x] in
    the ramp variable, I_j is within 1e-12 relative of adaptive
    quadrature, or of the float64 rounding of c'' and b'' that the
    quadrature's integrand carries, 1e-15 cosh R per unit of
    eps^(j + 1)."""
    from scipy.integrate import quad

    fam = cached_family(R, eps)
    R_ld, s = np.longdouble(R), R - eps / 3.0
    t, weights = panel_rule(R - eps, R, 64)
    dphi = bump_alpha((t - R_ld) / np.longdouble(eps) + 1) / np.longdouble(eps)
    for junction in (fam.junction_f, fam.junction_g):
        for at_R in (R_ld, np.float64(R)):
            assert tuple(map(float, blend_lookup(junction, np.array([at_R]))[0])) == junction._totals
        d0, d1 = (junction.c[k](t) - junction.b[k](t) for k in (0, 1))
        j0, j1, j2 = weights @ np.stack([d1 * dphi, d1 * dphi * (t - R_ld), d0 * dphi], -1)
        d0, d1 = (junction.c[k](R_ld) - junction.b[k](R_ld) for k in (0, 1))
        t0, t1 = junction._totals
        assert abs(float(t0 - (d1 - j0))) <= 1e-16 * math.cosh(R)
        assert abs(float(t1 - (-j1 - d0 + j2))) <= 1e-16 * math.cosh(R)
        got = blend_lookup(junction, np.array([s]))[0]
        for j in (0, 1):
            tol = 1e-15 * math.cosh(R) * eps ** (j + 1)
            want, _ = quad(lambda t: float((junction.c[2](t) - junction.b[2](t)) * step_phi(eps, R, t))
                           * (t - R) ** j, R - eps, s, epsabs=0.1 * tol, epsrel=1e-13, limit=400)
            assert got[j] == pytest.approx(want, rel=1e-12, abs=tol)


def window_points(R: float, eps: float):
    """Points of the blending window [R - eps, R] in extended precision: the
    63 interior knots R + eps (k/64 - 1) of the 64-panel blend cache that
    the window rule replaced, and 64 seeded ones."""
    R_ld, eps_ld = np.longdouble(R), np.longdouble(eps)
    seeded = np.random.default_rng(0).uniform(0.0, 1.0, 64).astype(np.longdouble)
    return R_ld + eps_ld * (np.concatenate([np.arange(1, 64) / np.longdouble(64), seeded]) - 1)


def nudged_left(x, ulps):
    """x moved ulps units in the last place toward -inf, in its dtype."""
    for _ in range(ulps):
        x = np.nextafter(x, -np.inf)
    return x


@pytest.mark.parametrize("R,eps", [(0.5, 1e-1), (0.8, 1e-2), (1.2, 1e-3)])
def test_shared_blend_lookup_is_each_junctions_own(R, eps):
    """The family pass runs one window rule for both junctions: one set of
    nodes, offsets and phi_eps, with each junction's own c'' - b'' and its
    own totals.  a, a' and a'' of each junction from the pass equal, bit
    for bit, a pass of that junction alone and its own
    evaluators, at the window points of window_points, 4 ulps left of them,
    R - eps, R and a NaN, in float64 and in extended precision.  A pass
    that read the other junction's gaps or totals would move the values
    inside the blending window, where the two differ."""
    fam = cached_family(R, eps)
    junctions = (fam.junction_f, fam.junction_g)
    for dt in (np.float64, np.longdouble):
        at = window_points(R, eps).astype(dt)
        r = np.concatenate([at, nudged_left(at, 4), np.array([R - eps, R, np.nan], dt)])
        family = _eval(junctions, r)
        for junction, values in zip(junctions, family):
            evaluators = (junction.a, junction.a_prime, junction.a_second)
            for order, (got, fn) in enumerate(zip(values, evaluators)):
                for want in (_eval((junction,), r)[0][order], fn(r)):
                    assert_same_bits(got[:-1], want[:-1])
                    assert np.isnan(got[-1]) and np.isnan(want[-1])
        # the window's points do tell the junctions apart
        assert not np.array_equal(family[0][2][:-1], family[1][2][:-1])


def test_nothing_keeps_a_family_alive():
    """Once a family is dropped and two other (R, eps) have pushed its collar
    record out of the 2-entry record cache, nothing holds its junctions or
    its record: no cache is keyed on either (a cache on a method of the
    record or the junction kept every family of a sweep alive)."""
    fam = smoothed_metric(0.6125, 3e-2)
    for r in (np.linspace(0.5, 0.7, 33), np.linspace(0.5, 0.7, 33).astype(np.longdouble), 0.6):
        fam.pair.f(r), _eval((fam.junction_f, fam.junction_g), r)
    refs = [weakref.ref(obj) for obj in (fam.junction_f, fam.junction_g, fam.junction_f._collar)]
    del fam
    smoothed_metric(0.6250, 3e-2), smoothed_metric(0.6375, 3e-2)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# The largest share of its total by which I_j in extended precision 4 ulps
# left of a window point differs from I_j at the point less the integral
# over the step, measured: 3.2e-19 at (0.5, 1e-3), 3.8e-19 at (0.8, 1e-2) and
# 2.4e-19 at (8.0, 1e-2), 2 to 3.5 units of the longdouble's eps; the blend
# cache's seams reached 2.6e-16, 5.3e-17 and 2.2e-15 of the totals.  The
# bound is about twice the largest.
BLEND_STEP = 8e-19


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="levels measured with the x87 80-bit longdouble")
@pytest.mark.parametrize("R,eps", [(0.5, 1e-3), (0.8, 1e-2), (8.0, 1e-2)])
def test_blend_integrals_have_no_seams(R, eps):
    """I_j in extended precision is one rule on [0, x] at every window
    point, so it has no seams: 4 ulps left of each point of window_points
    it differs from its value at the point by the integral over the step,
    (c'' - b'') phi_eps (t - R)^j times the step, to within BLEND_STEP of
    each total.  The blend cache's values moved by up to 2.2e-15 of the
    totals across its knots."""
    at = window_points(R, eps)
    left = nudged_left(at, 4)
    offsets = at - np.longdouble(R)
    for junction in (cached_family(R, eps).junction_f, cached_family(R, eps).junction_g):
        slopes = _powers(junction._gap(_Values(offsets)) * step_phi(eps, R, at),
                         offsets, 2)
        steps = (at - left)[:, None] * slopes
        share = np.abs(blend_lookup(junction, at) - blend_lookup(junction, left) - steps)
        assert float((share / np.abs(junction._blend_totals)).max()) <= BLEND_STEP
