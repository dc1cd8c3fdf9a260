"""Tube metric curvatures, the exponential extension, and volume integrals."""

import dataclasses
import math

import numpy as np
import pytest

from drillvol import (
    DomainError,
    ParameterError,
    SingularAxisError,
    TubeParams,
    WarpingPair,
    coth,
    extended_tube_volume,
    hyperbolic_tube,
    kerckhoff_extension,
    ricci_diagonal,
    ricci_lower_bound_constant,
    sectional_curvatures,
    tube_volume,
    warped_volume_quadrature,
)
from scipy.integrate import quad


# ---------------------------------------------------------------------------
# Constant-curvature tube
# ---------------------------------------------------------------------------


class TestHyperbolicTube:
    def test_axis_values(self, tube):
        assert float(tube.f(0.0)) == 0.0
        assert float(tube.g(0.0)) == 1.0
        assert float(tube.fp(0.0)) == 1.0  # smooth axis condition

    @pytest.mark.parametrize("r", [0.7, 1.3])
    def test_constant_curvature(self, tube, r):
        k = sectional_curvatures(tube, r)
        assert k.as_tuple() == pytest.approx((-1.0, -1.0, -1.0), abs=1e-12)

    def test_axis_limit(self, tube):
        k = sectional_curvatures(tube, 0.0)
        assert k.as_tuple() == (-1.0, -1.0, -1.0)

    def test_curvature_grid(self, tube):
        """All three curvatures equal -1 within 1e-9 on a dense grid."""
        for r in np.linspace(0.01, 5.0, 1000):
            k = sectional_curvatures(tube, float(r))
            assert max(abs(v + 1.0) for v in k.as_tuple()) < 1e-9

    def test_einstein_constant(self, tube):
        ric = ricci_diagonal(tube, 1.7)
        assert ric.as_tuple() == pytest.approx((-2.0, -2.0, -2.0), abs=1e-12)

    def test_ricci_bound_constant_is_one(self, tube):
        assert ricci_lower_bound_constant(tube, (0.3, 2.7), 500) == pytest.approx(1.0, abs=1e-12)


class TestFlatCylinder:
    def test_zero_curvature(self, flat_cylinder):
        k = sectional_curvatures(flat_cylinder, 2.0)
        assert k.as_tuple() == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_zero_ricci(self, flat_cylinder):
        ric = ricci_diagonal(flat_cylinder, 1.0)
        assert ric.as_tuple() == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_axis_without_limit_errors(self, flat_cylinder):
        with pytest.raises(SingularAxisError):
            sectional_curvatures(flat_cylinder, 0.0)


# ---------------------------------------------------------------------------
# Exponential extension
# ---------------------------------------------------------------------------


class TestKerckhoffExtension:
    def test_first_order_gluing(self, kerckhoff08):
        R = 0.8
        assert float(kerckhoff08.f(R)) == pytest.approx(math.sinh(R), abs=1e-12)
        assert float(kerckhoff08.fp(R)) == pytest.approx(math.cosh(R), abs=1e-12)
        assert float(kerckhoff08.g(R)) == pytest.approx(math.cosh(R), abs=1e-12)
        assert float(kerckhoff08.gp(R)) == pytest.approx(math.sinh(R), abs=1e-12)

    def test_second_derivative_jump(self, kerckhoff08):
        # f''(R-) - sinh(R) = sinh(R)(coth(R)^2 - 1) = 1/sinh(R)
        R = 0.8
        jump = float(kerckhoff08.fpp(R)) - math.sinh(R)
        assert jump == pytest.approx(1.0 / math.sinh(R), abs=1e-10)

    @pytest.mark.parametrize("r", [-2.0, 0.0, 0.5, 0.79])
    def test_constant_sectional_curvatures(self, kerckhoff08, r):
        k = sectional_curvatures(kerckhoff08, r)
        assert k.k_rtheta == pytest.approx(-coth(0.8) ** 2, rel=1e-12)
        assert k.k_rlambda == pytest.approx(-math.tanh(0.8) ** 2, rel=1e-12)
        assert k.k_thetalambda == pytest.approx(-1.0, rel=1e-12)

    def test_ricci_matrix_entries(self, kerckhoff08):
        ric = ricci_diagonal(kerckhoff08, 0.3)
        c2, t2 = coth(0.8) ** 2, math.tanh(0.8) ** 2
        assert ric.ric_1 == pytest.approx(-c2 - t2, rel=1e-12)
        assert ric.ric_2 == pytest.approx(-c2 - 1.0, rel=1e-12)
        assert ric.ric_3 == pytest.approx(-t2 - 1.0, rel=1e-12)

    def test_positive_and_decaying(self, kerckhoff08):
        rs = np.linspace(-30.0, 0.8, 400)
        for fn in (kerckhoff08.f, kerckhoff08.fp, kerckhoff08.fpp,
                   kerckhoff08.g, kerckhoff08.gp, kerckhoff08.gpp):
            vals = np.asarray(fn(rs), float)
            assert np.all(vals > 0.0)
        f_vals = np.asarray(kerckhoff08.f(rs), float)
        g_vals = np.asarray(kerckhoff08.g(rs), float)
        assert np.all(np.diff(f_vals) > 0.0)
        assert np.all(np.diff(g_vals) > 0.0)
        assert f_vals[0] < 1e-15 and g_vals[0] < 1e-8

    def test_ricci_bound_interval_independent(self, kerckhoff08):
        expected = coth(0.8) * coth(1.6)
        k1 = ricci_lower_bound_constant(kerckhoff08, (0.8 - 5.0, 0.8 - 0.01), 1000)
        k2 = ricci_lower_bound_constant(kerckhoff08, (-2.0, 0.5), 333)
        assert k1 == pytest.approx(expected, abs=1e-12)
        assert abs(k1 - k2) < 1e-12
        assert k1 == pytest.approx((1.0 + coth(0.8) ** 2) / 2.0, abs=1e-12)

    def test_invalid_radius(self):
        with pytest.raises(ParameterError):
            kerckhoff_extension(0.0)
        with pytest.raises(ParameterError):
            kerckhoff_extension(-1.0)

    def test_out_of_domain(self, kerckhoff08):
        with pytest.raises(DomainError):
            sectional_curvatures(kerckhoff08, 0.9)


# ---------------------------------------------------------------------------
# Ricci lower bound constant edge cases
# ---------------------------------------------------------------------------


def test_ricci_bound_rejects_empty_interval(tube):
    with pytest.raises(ParameterError):
        ricci_lower_bound_constant(tube, (2.0, 2.0), 100)
    with pytest.raises(ParameterError):
        ricci_lower_bound_constant(tube, (1.0, 2.0), 1)
    with pytest.raises(ParameterError):
        ricci_lower_bound_constant(tube, (1.0, math.inf), 100)


def test_smoothed_pair_ricci_bound_near_limit(family_08):
    """Dense-grid constant of the smoothed pair stays above coth R coth 2R.

    The grid value (no peak refinement) is a regression constant from the
    dense-grid run; at eps = 1e-2 it sits about 0.03 above the eps -> 0 limit.
    """
    fam = family_08
    k = ricci_lower_bound_constant(fam.pair, (0.8 - fam.delta - 1.0, 0.8 + fam.margin), 4096)
    target = coth(0.8) * coth(1.6)
    assert k >= target - 1e-9
    assert k == pytest.approx(1.663940883329807, rel=1e-6)


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------


class TestTubeVolume:
    def test_exact_log3_value(self):
        # sinh^2(ln3 / 2) = 1/3 exactly
        assert tube_volume(TubeParams(R=math.log(3.0) / 2.0, l=1.0)) == pytest.approx(
            math.pi / 3.0, abs=1e-14
        )

    def test_vanishing_length_limit(self):
        assert tube_volume(TubeParams(R=0.8, l=1e-15)) < 1e-14

    def test_quadrature_cross_check(self, tube):
        p = TubeParams(R=0.8, l=0.5)
        q = warped_volume_quadrature(tube, 0.0, 0.8, 0.5)
        assert q.value == pytest.approx(tube_volume(p), abs=1e-8)


class TestExtendedTubeVolume:
    def test_quadrature_cross_check(self, kerckhoff08):
        p = TubeParams(R=0.8, l=0.5)
        q = warped_volume_quadrature(kerckhoff08, -math.inf, 0.8, 0.5)
        assert q.value == pytest.approx(extended_tube_volume(p), abs=1e-8)
        assert q.truncated_at == pytest.approx(0.8 - 40.0)
        assert q.tail_bound < 1e-30

    def test_volume_swap_identity(self):
        # ext - tube == pi l sinh^2 R (coth R / coth 2R - 1) on random inputs
        rng = np.random.default_rng(7)
        for _ in range(1000):
            R = rng.uniform(0.05, 3.0)
            l = rng.uniform(0.01, 5.0)
            p = TubeParams(R=R, l=l)
            lhs = extended_tube_volume(p) - tube_volume(p)
            rhs = math.pi * l * math.sinh(R) ** 2 * (coth(R) / coth(2 * R) - 1.0)
            assert abs(lhs - rhs) < 1e-10

    def test_vanishing_length_limit(self):
        assert extended_tube_volume(TubeParams(R=0.8, l=1e-15)) < 1e-13


class TestWarpedVolumeQuadrature:
    def test_degenerate_interval(self, tube):
        assert warped_volume_quadrature(tube, 1.0, 1.0, 2.0).value == 0.0

    def test_inverted_interval(self, tube):
        with pytest.raises(ParameterError):
            warped_volume_quadrature(tube, 2.0, 1.0, 1.0)

    def test_improper_needs_unbounded_domain(self, tube):
        with pytest.raises(DomainError):
            warped_volume_quadrature(tube, -math.inf, 1.0, 1.0)

    def test_rejects_infinite_length(self, tube):
        with pytest.raises(ParameterError, match="length must be nonnegative and finite"):
            warped_volume_quadrature(tube, 0.0, 1.0, math.inf)

    def test_float_conversion(self, tube):
        q = warped_volume_quadrature(tube, 0.0, 1.0, 1.0)
        assert float(q) == q.value

    def test_scalar_valued_pair(self, flat_cylinder):
        # g = 1 given as a float, not an array: the volume of a flat cylinder
        pair = dataclasses.replace(flat_cylinder, g=lambda r: 1.0)
        q = warped_volume_quadrature(pair, 0.0, 2.0, 0.5)
        assert q.value == pytest.approx(2.0 * math.pi * 0.5 * 2.0, rel=1e-14)

    def test_nonconvergent_integrand_raises(self):
        from drillvol import QuadratureError

        # an oscillating discontinuous integrand defeats the error contract
        noisy = WarpingPair(
            f=lambda r: np.where(np.sin(200.0 / (np.abs(np.asarray(r) - 0.5) + 1e-6)) > 0, 2.0, 1.0),
            fp=lambda r: np.asarray(r) * 0.0,
            fpp=lambda r: np.asarray(r) * 0.0,
            g=lambda r: np.asarray(r) * 0 + 1.0,
            gp=lambda r: np.asarray(r) * 0.0,
            gpp=lambda r: np.asarray(r) * 0.0,
            domain=(0.0, 1.0),
            name="noisy",
        )
        with pytest.raises(QuadratureError):
            warped_volume_quadrature(noisy, 0.0, 1.0, 1.0)

    def test_agrees_with_scipy_quad(self):
        """The QUADPACK port returns scipy quad's value bit for bit, its error
        estimate to 1 %, and the same accept/reject outcome, on the tube and
        its extension from R = 0.0541 (whose cut underflows) to 354."""
        from drillvol import QuadratureError

        l = 0.5
        radii = np.concatenate([np.geomspace(0.0541, 354.0, 40),
                                np.random.default_rng(9).uniform(0.05, 3.0, 20)])
        rejected = 0
        for R in radii.tolist():
            for w, r_lo in ((hyperbolic_tube(), 0.0), (kerckhoff_extension(R), -math.inf)):
                truncated = math.isinf(r_lo)
                lo = R - 40.0 if truncated else r_lo
                val, abserr = quad(lambda t: float(w.f(t)) * float(w.g(t)), lo, R,
                                   epsabs=1e-12, epsrel=1e-12, limit=400)
                ref, ref_err = 2.0 * math.pi * l * val, 2.0 * math.pi * l * abserr
                underflows = truncated and float(w.f(lo)) * float(w.g(lo)) == 0.0
                ref_ok = not underflows and ref_err <= 1e-10 * max(abs(ref), 1.0)
                try:
                    q = warped_volume_quadrature(w, r_lo, R, l)
                except QuadratureError:
                    q = None
                assert (q is not None) == ref_ok, (R, w.name)
                if q is None:
                    rejected += 1
                    continue
                assert repr(q.value) == repr(ref), (R, w.name)
                assert abs(q.error_estimate - ref_err) <= 0.01 * ref_err, (R, w.name)
        assert rejected == 1

    @pytest.mark.parametrize("R", [0.8, 20.0])
    def test_one_array_call_per_step(self, R):
        """f and g are each called once per dqk21 step, on a float64 array of
        its nodes (21 at first, then 42 for the two halves of a bisection),
        as many times as scipy's quad makes intervals."""
        for w, lo in ((hyperbolic_tube(), 0.0), (kerckhoff_extension(R), R - 40.0)):
            calls = {"f": [], "g": []}

            def spy(name, fn):
                def wrapped(r):
                    calls[name].append(r)
                    return fn(r)
                return wrapped

            spied = dataclasses.replace(w, f=spy("f", w.f), g=spy("g", w.g))
            warped_volume_quadrature(spied, lo, R, 1.0)
            *_, info = quad(lambda t: float(w.f(t)) * float(w.g(t)), lo, R,
                            epsabs=1e-12, epsrel=1e-12, limit=400, full_output=1)
            for rs in calls.values():
                assert all(isinstance(r, np.ndarray) and r.dtype == np.float64 for r in rs)
                assert [r.shape for r in rs] == [(21,)] + [(42,)] * (info["last"] - 1)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_gauss_bonnet_annulus(tube):
    """Interior curvature plus boundary turning of the annulus cancels.

    2 pi int_{r0}^{r1} K_rtheta f dt + 2 pi (f'(r1) - f'(r0)) = 0.
    """
    r0, r1 = 0.2, 1.4
    integrand = lambda t: sectional_curvatures(tube, t).k_rtheta * float(tube.f(t))
    interior = 2.0 * math.pi * quad(integrand, r0, r1, epsabs=1e-12)[0]
    boundary = 2.0 * math.pi * (float(tube.fp(r1)) - float(tube.fp(r0)))
    assert abs(interior + boundary) < 1e-6


def test_tube_params_validation():
    with pytest.raises(ParameterError):
        TubeParams(R=0.0, l=1.0)
    with pytest.raises(ParameterError):
        TubeParams(R=1.0, l=0.0)
    with pytest.raises(ParameterError, match="tube radius must be positive and finite, got inf"):
        TubeParams(R=math.inf, l=1.0)
    with pytest.raises(ParameterError, match="core length must be positive and finite, got nan"):
        TubeParams(R=1.0, l=math.nan)


def test_warping_pair_default_step(tube):
    assert tube.fd_step == 1e-4


@pytest.mark.parametrize("pair_name", ["tube", "kerckhoff08"])
def test_derivatives_match_finite_differences(pair_name, request):
    """Constructor derivatives agree with centered differences of values."""
    w = request.getfixturevalue(pair_name)
    lo = 0.05 if w.axis_flag else -4.0
    hi = min(w.domain[1], 5.0) - 1e-3
    rng = np.random.default_rng(3)
    h = 1e-5
    for r in rng.uniform(lo, hi, 50):
        fd_fp = (float(w.f(r + h)) - float(w.f(r - h))) / (2 * h)
        fd_fpp = (float(w.fp(r + h)) - float(w.fp(r - h))) / (2 * h)
        assert fd_fp == pytest.approx(float(w.fp(r)), rel=1e-6)
        assert fd_fpp == pytest.approx(float(w.fpp(r)), rel=1e-6)
        fd_gp = (float(w.g(r + h)) - float(w.g(r - h))) / (2 * h)
        fd_gpp = (float(w.gp(r + h)) - float(w.gp(r - h))) / (2 * h)
        assert fd_gp == pytest.approx(float(w.gp(r)), rel=1e-6)
        assert fd_gpp == pytest.approx(float(w.gpp(r)), rel=1e-6)


def test_positivity_sampled(tube, kerckhoff08):
    rng = np.random.default_rng(11)
    for w, lo, hi in ((tube, 0.01, 6.0), (kerckhoff08, -20.0, 0.8)):
        rs = rng.uniform(lo, hi, 200)
        assert np.all(np.asarray(w.f(rs), float) > 0.0) or w.axis_flag
        assert np.all(np.asarray(w.g(rs), float) > 0.0)
