"""The staged junction smoothing and the smoothed metric family."""

import math
import pickle
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import cached_family, counted_pair
from drillvol import (
    JunctionError,
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
from drillvol import smoothing
from drillvol.smoothing import (
    _CHECK_PANELS,
    _check_moments,
    _eval,
    _panel_sums,
    _panels,
    _powers,
    _ramp_moments,
    _ramp_tables,
    _ricci_sup_half,
)
from drillvol.warped import WarpingPair, _ricci_grid, hyperbolic_tube, kerckhoff_extension

EPS_SEQ = (1e-1, 1e-2, 1e-3)


SINH = (np.sinh, np.cosh, np.sinh)
COSH = (np.cosh, np.sinh, np.cosh)


def sinh_junction(R: float, eps: float) -> SmoothedJunction:
    """Exponential extension against sinh: the f-side junction."""
    ext = kerckhoff_extension(R)
    return smooth_junction((ext.f, ext.fp, ext.fpp), SINH, R, eps, "f-junction")


def collar_envelope(s: SmoothedJunction, grid_n: int = 4096) -> tuple[float, float]:
    """Grid-sampled (inf, sup) of a'' over the collar [R - delta, R]."""
    vals = np.asarray(s.a_second(np.linspace(s.R - s.delta, s.R, grid_n)), dtype=float)
    return float(vals.min()), float(vals.max())


def identity_junction(R: float, eps: float) -> SmoothedJunction:
    """Degenerate case b = c (no actual corner)."""
    return smooth_junction(SINH, SINH, R, eps, "degenerate")


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

    def test_gauss_legendre_literals_match_leggauss(self):
        """The rule's literal nodes and weights are leggauss(24)'s, bit for bit."""
        nodes, weights = np.polynomial.legendre.leggauss(24)
        assert smoothing._GL_NODES_F8.tobytes() == nodes.tobytes()
        assert smoothing._GL_WEIGHTS_F8.tobytes() == weights.tobytes()


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


class TestDegenerateJunction:
    def test_identity_passthrough(self):
        s = identity_junction(0.8, 1e-2)
        assert s.iota == 0.0
        assert s.omega == 0.0
        assert s.delta == 1e-2
        rs = np.linspace(-1.0, 1.5, 301)
        assert np.array_equal(np.asarray(s.a(rs), float), np.sinh(rs))

    def test_envelope_matches_b(self):
        s = identity_junction(0.8, 1e-2)
        lo, hi = collar_envelope(s, grid_n=64)
        window = np.sinh(np.linspace(0.8 - s.delta, 0.8, 64))
        assert lo == pytest.approx(float(window.min()), rel=1e-12)
        assert hi == pytest.approx(float(window.max()), rel=1e-12)

    def test_unit_ricci_constant_for_all_widths(self):
        for eps in EPS_SEQ:
            s = identity_junction(0.8, eps)
            c = smooth_junction(COSH, COSH, 0.8, eps)
            pair = WarpingPair(f=s.a, fp=s.a_prime, fpp=s.a_second,
                               g=c.a, gp=c.a_prime, gpp=c.a_second,
                               domain=(0.01, math.inf), name="degenerate-tube")
            k = ricci_lower_bound_constant(pair, (0.1, 2.0), 512)
            assert k == pytest.approx(1.0, abs=1e-12)


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
        more than an absolute 1e-12 apart; the family still builds."""
        fam = smoothed_metric(12.0, 1e-2)
        assert fam.k_eps >= coth(12.0) * coth(24.0)
        assert math.isfinite(fam.k_eps)

    def test_junction_hypothesis_enforced(self):
        with pytest.raises(JunctionError):
            smooth_junction(SINH, COSH, 0.8, 1e-2)

    def test_positive_width_required(self):
        with pytest.raises(ParameterError):
            sinh_junction(0.8, 0.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, R):
        """A non-finite R is rejected before either side is evaluated, with
        no warning on the way; a finite R <= 0 stays legal."""
        called = []

        def side(k):
            def fn(r):
                called.append(k)
                return SINH[k](r)
            return fn

        with pytest.raises(ParameterError, match="junction radius must be finite"):
            smooth_junction(tuple(side(k) for k in range(3)), SINH, R, 0.1)
        assert called == []
        assert smooth_junction(SINH, SINH, -0.3, 0.1).delta > 0.0

    @pytest.mark.parametrize("R,eps", [(0.8, 1e-50), (0.05, 1e-50), (3.0, 1e-44), (20.0, 1e-60)])
    def test_collar_below_float_resolution_rejected(self, R, eps):
        """A collar W = 2 eps^(1/3) so narrow that its ramps collapse onto R
        is rejected before the plateau moments are solved, without a warning
        from a singular solve."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WidthError, match="float64 resolution"):
                smoothed_metric(R, eps)


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


def panel_checks(moments, lo, hi):
    """The moments' integrals over [lo, hi] by the build check's two panel
    rules: its reference and the rule that gives its error estimate."""
    layouts = (_panels(lo, hi, n + 1) for n in _CHECK_PANELS)
    return [_panel_sums(half, moments(nodes))[-1] for _, nodes, half in layouts]


def half_neg_ricci(pair, rs):
    """max(-Ric)/2 at each radius of rs, from the pair's six callables."""
    f, g = np.asarray(pair.f(rs), float), np.asarray(pair.g(rs), float)
    krt = np.asarray(pair.fpp(rs), float) / f
    krl = np.asarray(pair.gpp(rs), float) / g
    ktl = np.asarray(pair.fp(rs), float) * np.asarray(pair.gp(rs), float) / (f * g)
    return 0.5 * np.maximum(np.maximum(krt + krl, krt + ktl), krl + ktl)


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID)
def test_blend_totals_match_adaptive_quadrature(R, eps):
    """The cached slope and value totals are int (c'' - b'') phi_eps (t - R)^j,
    and so is the build check's 16-panel reference, whose distance from the
    8-panel rule is at most 5e-13."""
    from scipy.integrate import quad

    fam = cached_family(R, eps)
    for junction in (fam.junction_f, fam.junction_g):
        def blend(t):
            return _powers((junction.c[2](t) - junction.b[2](t)) * step_phi(eps, R, t), t - R, 2)
        check, errs = _check_moments("blend", junction._totals, panel_checks(blend, R - eps, R),
                                     R - eps, R)
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
    """One pass over one junction, _eval((j,), r, (0, 1, 2)), and the
    family pass over both junctions give a, a' and a'' of each junction bit
    for bit, on float64 and longdouble grids and scalars, at R, R - eps and
    R - delta included."""
    fam = cached_family(R, eps)
    junctions = (fam.junction_f, fam.junction_g)
    points = [R, R - eps] + [R - j.delta for j in junctions]
    grid = np.concatenate([np.linspace(R - fam.delta - 0.1, R + 0.1, 2001), points])
    scalars = points + [np.longdouble(p) for p in points] + [np.float64(R - 0.5 * eps)]
    for r in [grid, grid.astype(np.longdouble)] + scalars:
        family = _eval(junctions, r, (0, 1, 2))
        for junction, both in zip(junctions, family):
            alone = _eval((junction,), r, (0, 1, 2))[0]
            evaluators = (junction.a, junction.a_prime, junction.a_second)
            for got, fn in zip((*alone, *both), 2 * evaluators):
                assert_same_bits(got, fn(r))


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
    assert fam.k_eps == _ricci_sup_half(wrapped, R - fam.delta - 1.0, R + fam.margin)
    assert len(set(calls.values())) == 1 and set(calls) == set(PAIR_FIELDS)


def full_depth_sup_half(pair, lo, hi):
    """The refinement without the curvature stop: bracket rounds until the
    bracket stops shrinking, which spends its last rounds on rounding."""
    rs = np.linspace(lo, hi, smoothing._K_GRID_N)
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
    further round cannot raise it by more than rounding.  It never exceeds
    the full-depth refinement, stays within 2e-15 relative of it (7.4e-16 at
    most on 2304 sweep families), and takes at most 6 grids on these pairs
    (the full depth takes 10 to 14)."""
    fam = cached_family(R, eps)
    lo, hi = R - fam.delta - 1.0, R + fam.margin
    full = full_depth_sup_half(fam.pair, lo, hi)
    grids = count_ricci_grids(monkeypatch)
    assert _ricci_sup_half(fam.pair, lo, hi) == fam.k_eps
    assert 0.0 <= full - fam.k_eps <= 2e-15 * full
    assert grids[0] == smoothing._K_GRID_N and 2 <= len(grids) <= 6


def test_first_grid_is_always_refined(monkeypatch):
    """On the tube -Ric/2 is exactly 1, so every second difference is 0, yet
    the 4096-point grid never stops the refinement (it guards against
    aliasing): one bracket round follows it, and stops."""
    grids = count_ricci_grids(monkeypatch)
    assert _ricci_sup_half(hyperbolic_tube(), 0.5, 1.5) == 1.0
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
        assert _ricci_sup_half(pair, lo, hi) == pytest.approx(3.25, rel=1e-15, abs=0.0)
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
    assert _ricci_sup_half(None, 0.0, 2.0) == 1.0
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
    to the end of the test; reads of beta alone, which the ramp tables and
    the blend cache's integrand make, are not recorded."""
    lookups = []
    ramp_moments = smoothing._ramp_moments

    def counting(x, count=3):
        if count == 3:
            lookups.append(np.shape(x))
        return ramp_moments(x, count)

    monkeypatch.setattr(smoothing, "_ramp_moments", counting)
    return lookups


def test_one_ramp_lookup_per_eval_pass(monkeypatch):
    """An evaluator pass over collar points makes one ramp lookup, of any
    orders, for one junction or both, on float64 and longdouble arrays
    and scalars: phi_eps's argument rides beside the four plateau ramps (two
    lookups when phi_eps had its own).  A pass with no collar point makes
    none."""
    fam = cached_family(0.8, 1e-2)
    grid = np.linspace(0.8 - fam.delta - 0.1, 0.9, 101)
    lookups = record_ramp_lookups(monkeypatch)
    for r in (grid, grid.astype(np.longdouble), 0.8 - 5e-3, np.longdouble(0.8 - 0.2)):
        for junctions in ((fam.junction_f,), (fam.junction_f, fam.junction_g)):
            for orders in ((0,), (1,), (2,), (0, 1, 2)):
                lookups.clear()
                _eval(junctions, r, orders)
                assert len(lookups) == 1
    lookups.clear()
    _eval((fam.junction_f, fam.junction_g), np.array([0.8 - fam.delta - 0.1, 0.9]), (0, 1, 2))
    assert lookups == []


def test_junctions_share_one_collar_record(monkeypatch):
    """The two junctions of a family hold one collar record.  A build makes
    7 lookups of the three ramp moments, one at R and one per Ricci grid (14
    when the refinement ran until its bracket stopped shrinking, 28 when
    each pass looked phi_eps up on its own, 32 when the build check looked
    phi_eps up on its own panels, 172 with lookups per callable and order),
    evaluates no bump (6912 points when each record tabulated phi_eps' on
    its own blend nodes, up to 1000 while the blend cache integrated
    phi_eps'), and evaluates each longdouble side array on the blending
    window's nodes once: one exponential per extension function, whose
    three callables share it, and the tube's sinh and cosh, which the
    record keeps for both junctions (12 arrays when each junction evaluated
    its sides per order and stage)."""
    want = cached_family(0.8, 1e-2).k_eps
    tab = _ramp_tables()
    smoothing._collar_of.cache_clear()
    lookups = record_ramp_lookups(monkeypatch)
    bump_points, window_exps = [], []
    bump, exp = smoothing.bump_alpha, np.exp

    def counting_bump(r):
        bump_points.append(np.size(r))
        return bump(r)

    def counting_exp(x, *args, **kwargs):
        if np.asarray(x).dtype == np.longdouble and np.size(x) >= tab.window_x.size:
            window_exps.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(smoothing, "bump_alpha", counting_bump)
    monkeypatch.setattr(np, "exp", counting_exp)
    fam = smoothed_metric(0.8, 1e-2)
    monkeypatch.undo()
    collar = fam.junction_f._collar
    assert collar is fam.junction_g._collar
    # one at R, then one per Ricci grid: the 4096-point grid and five brackets
    assert len(lookups) == 7
    assert bump_points == []
    assert len(window_exps) == 2
    assert set(collar.ufunc_values) == {np.sinh, np.cosh}
    assert fam.k_eps == want


def test_family_pass_with_distinct_deltas():
    """Junctions on one collar record whose deltas differ (b = c leaves no
    gap, so its delta is eps) share the family pass's one collar mask: the
    narrower junction gets exact zeros on [R - W, R - eps], where its lambda
    and phi_eps vanish, and the pass equals each junction's own evaluators
    bit for bit."""
    R, eps = 0.8, 1e-2
    plain, gapped = identity_junction(R, eps), sinh_junction(R, eps)
    assert plain._collar is gapped._collar and plain.delta < gapped.delta
    points = [R, R - eps, R - plain.delta, R - gapped.delta]
    grid = np.concatenate([np.linspace(R - gapped.delta - 0.1, R + 0.1, 2001), points])
    for r in [grid, grid.astype(np.longdouble)] + points:
        for junction, got in zip((plain, gapped), _eval((plain, gapped), r, (0, 1, 2))):
            for value, fn in zip(got, (junction.a, junction.a_prime, junction.a_second)):
                assert_same_bits(value, fn(r))
    own = grid[(grid >= R - gapped.delta) & (grid < R - eps)]
    for fn, side in zip((plain.a, plain.a_prime, plain.a_second), SINH):
        assert_same_bits(fn(own), side(own))


@pytest.mark.parametrize("R,eps", CRITERION_7_GRID + [(R, e) for R in (3.0, 8.0) for e in EPS_SEQ])
def test_blend_cache_and_totals_agree_by_parts(R, eps):
    """The blend cache integrates the totals' integrand I_j' = (c'' - b'')
    phi_eps (t - R)^j: its end row, read at R in either precision, rounds to
    the blend totals bit for bit.  The totals agree by parts, where
    phi_eps(R) = 1, with the 64-panel integrals J_k of w_k phi_eps' for
    w = (c' - b', (c' - b') (t - R), c - b): T0 = (c' - b')(R) - J0 and
    T1 = -J1 - (c - b)(R) + J2, to 1e-16 cosh R.  At R - eps/3, where the
    cache's rule runs on a panel's remainder with phi_eps from the
    polynomial, I_j is within 1e-12 relative of adaptive quadrature, or of
    the float64 rounding of c'' and b'' that the quadrature's integrand
    carries, 1e-15 cosh R per unit of eps^(j + 1)."""
    from scipy.integrate import quad

    fam = cached_family(R, eps)
    R_ld, s = np.longdouble(R), R - eps / 3.0
    _, t, half = _panels(R - eps, R, smoothing._BLEND_PANELS + 1)
    dphi = bump_alpha((t - R_ld) / np.longdouble(eps) + 1) / np.longdouble(eps)
    for junction in (fam.junction_f, fam.junction_g):
        for at_R in (R_ld, np.float64(R)):
            assert tuple(map(float, junction._blend(np.array([at_R]))[0])) == junction._totals
        d0, d1 = (junction.c[k](t) - junction.b[k](t) for k in (0, 1))
        j0, j1, j2 = _panel_sums(half, np.stack([d1 * dphi, d1 * dphi * (t - R_ld), d0 * dphi], -1))[-1]
        d0, d1 = (junction.c[k](R_ld) - junction.b[k](R_ld) for k in (0, 1))
        t0, t1 = junction._totals
        assert abs(float(t0 - (d1 - j0))) <= 1e-16 * math.cosh(R)
        assert abs(float(t1 - (-j1 - d0 + j2))) <= 1e-16 * math.cosh(R)
        got = junction._blend(np.array([s]))[0]
        for j in (0, 1):
            tol = 1e-15 * math.cosh(R) * eps ** (j + 1)
            want, _ = quad(lambda t: float((junction.c[2](t) - junction.b[2](t)) * step_phi(eps, R, t))
                           * (t - R) ** j, R - eps, s, epsabs=0.1 * tol, epsrel=1e-13, limit=400)
            assert got[j] == pytest.approx(want, rel=1e-12, abs=tol)


def blend_rule_outputs(fam):
    """float.hex of k_eps, delta and both junctions' slope and value gaps,
    and a, a' and a'' of both junctions on 2001 longdouble points of the
    blending window [R - eps, R]."""
    js = (fam.junction_f, fam.junction_g)
    scalars = [v.hex() for v in (fam.k_eps, fam.delta)]
    scalars += [v.hex() for j in js for v in (j.slope_gap, j.value_gap)]
    R, eps = np.longdouble(fam.R), np.longdouble(fam.eps)
    return scalars, np.array(_eval(js, np.linspace(R - eps, R, 2001), (0, 1, 2)))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="tolerance set for the x87 80-bit longdouble")
def test_blend_rule_agrees_with_1024_panels(monkeypatch):
    """The blend rule's panel count: on the criterion-7 pairs and one seeded
    pair per eps, the default rule gives the 1024-panel rule's k_eps, delta
    and gaps bit for bit, and a, a' and a'' of both junctions on the
    blending window within 1e-18 relative, about 9 units of the x87
    longdouble's eps (2^-63).

    Why 64 panels, measured on these families: 64 agree with 1024 within
    1.9e-19, as 128 and 256 do; 32 only within 4.0e-19, measurably worse
    (and 4.1e-19 and 5.3e-19 at (0.45, 0.1) and (0.4, 0.1), against 1.3e-19
    and 1.5e-19 at 64); 16 within 1.3e-18, which fails.  The 1024-panel
    tables are built into cleared caches and cleared again, so that no
    other test sees them."""
    families = CRITERION_7_GRID + SWEEP_LIKE[::4]
    default = [blend_rule_outputs(cached_family(R, eps)) for R, eps in families]
    monkeypatch.setattr(smoothing, "_BLEND_PANELS", 1024)
    _ramp_tables.cache_clear()
    smoothing._collar_of.cache_clear()
    try:
        fine = [blend_rule_outputs(smoothed_metric(R, eps)) for R, eps in families]
    finally:
        monkeypatch.undo()
        _ramp_tables.cache_clear()
        smoothing._collar_of.cache_clear()
    for (R, eps), (scalars, values), (fine_scalars, fine_values) in zip(families, default, fine):
        assert scalars == fine_scalars, (R, eps)
        assert np.all(np.abs(values - fine_values) <= 1e-18 * np.abs(fine_values)), (R, eps)
