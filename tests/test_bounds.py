"""Drilled-volume bounds, radius inversion, and the minimum-volume corollary."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drillvol import (
    CONSTANTS,
    DomainError,
    ParameterError,
    TubeParams,
    bridgeman_bound,
    coarse_factor,
    coth,
    drilled_volume_bound,
    extended_tube_volume,
    gmt_cases,
    k_limit,
    min_volume_corollary,
    parent_volume_lower_bound,
    solve_radius_bound,
    tube_volume,
)

LN3_HALF = math.log(3.0) / 2.0


# ---------------------------------------------------------------------------
# drilled_volume_bound
# ---------------------------------------------------------------------------


class TestDrilledVolumeBound:
    def test_coarse_at_log3_threshold(self):
        # coth(ln3/2) = 2 and coth(ln3) = 5/4 exactly
        est = drilled_volume_bound(0.943, 0.5, LN3_HALF)
        assert est.bound_coarse == pytest.approx(2.0 ** 2.5 * 1.25 ** 0.5 * 0.943, rel=1e-12)
        assert est.bound_coarse == pytest.approx(5.9640556671, abs=1e-9)

    def test_tight_at_log3_threshold(self):
        est = drilled_volume_bound(0.943, 0.5, LN3_HALF)
        expected = 2.5 ** 1.5 * (0.943 + math.pi * 0.5 * (1.0 / 3.0) * (2.0 / 1.25 - 1.0))
        assert est.bound_tight == pytest.approx(expected, rel=1e-12)
        assert est.bound_tight <= est.bound_coarse
        assert est.tube_fits

    def test_deep_tube_limit(self):
        est = drilled_volume_bound(1.7, 1e-6, 30.0)
        assert est.bound_tight == pytest.approx(1.7, rel=1e-12)
        assert est.bound_coarse == pytest.approx(1.7, rel=1e-12)

    def test_tube_fits_warning(self):
        est = drilled_volume_bound(0.1, 5.0, 2.0)
        assert not est.tube_fits
        assert est.warnings
        assert est.bound_tight > 0.0  # still reported

    def test_tube_fits_at_equality(self):
        """A parent volume equal to the tube's still holds the tube."""
        est = drilled_volume_bound(tube_volume(TubeParams(0.5, 0.3)), 0.3, 0.5)
        assert est.tube_volume == est.vol_parent
        assert est.tube_fits
        assert est.warnings == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            drilled_volume_bound(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            drilled_volume_bound(1.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            drilled_volume_bound(1.0, 1.0, 0.0)

    def test_carries_tube_volumes_and_k(self):
        est = drilled_volume_bound(0.943, 0.5, LN3_HALF)
        params = TubeParams(R=LN3_HALF, l=0.5)
        assert est.tube_volume == tube_volume(params)
        assert est.extended_tube_volume == extended_tube_volume(params)
        assert est.k == k_limit(LN3_HALF)

    @pytest.mark.parametrize("vol,l,R", [(1e308, 1.0, 0.5), (1.0, 1e308, 3.0), (1.0, 1e308, 30.0)])
    def test_rejects_infinite_results(self, vol, l, R):
        with pytest.raises(ParameterError, match="not finite"):
            drilled_volume_bound(vol, l, R)

    @given(
        vol=st.floats(0.1, 50.0),
        l=st.floats(0.01, 5.0),
        R=st.floats(0.05, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chained_inequality_and_floor(self, vol, l, R):
        est = drilled_volume_bound(vol, l, R)
        if est.tube_fits:
            assert est.bound_tight <= est.bound_coarse * (1.0 + 1e-12)
        assert est.bound_tight >= vol
        assert est.bound_coarse >= vol

    def test_equality_gap_closes(self):
        # gap -> 0 as the tube volume approaches the parent volume
        vol, R = 2.0, 0.7
        l_max = vol / (math.pi * math.sinh(R) ** 2)
        gaps = []
        for frac in (0.5, 0.9, 0.99, 0.999, 0.9999):
            est = drilled_volume_bound(vol, frac * l_max, R)
            gaps.append(est.bound_coarse - est.bound_tight)
        assert all(g > 0.0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3 * gaps[0]

    def test_scaling_structure(self):
        # coarse is linear in volume, tight affine with slope k^{3/2}
        a = drilled_volume_bound(1.0, 0.4, 0.9)
        b = drilled_volume_bound(2.0, 0.4, 0.9)
        assert b.bound_coarse == pytest.approx(2.0 * a.bound_coarse, rel=1e-12)
        assert b.bound_tight - a.bound_tight == pytest.approx(a.k ** 1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# coarse factor and its inversion
# ---------------------------------------------------------------------------


class TestCoarseFactor:
    def test_strictly_decreasing(self):
        rs = [0.05 * i for i in range(1, 200)]
        vals = [coarse_factor(r) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_limit_is_one(self):
        assert coarse_factor(40.0) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_pairs(self, r1, r2):
        # adjacent floats may round to the same factor: strict decrease is
        # only asserted for pairs at least 1e-9 apart relatively
        lo, hi = sorted((r1, r2))
        assume(hi - lo >= 1e-9 * hi)
        assert coarse_factor(lo) > coarse_factor(hi)


class TestKLimit:
    def test_closed_form(self):
        assert k_limit(0.8) == coth(0.8) * coth(1.6)

    @pytest.mark.parametrize("R,message", [(0.0, "R must be positive and finite, got 0.0"),
                                           (400.0, "tube radius 400 is too large")])
    def test_rejects_bad_radius(self, R, message):
        with pytest.raises(ParameterError, match=message):
            k_limit(R)


@pytest.mark.parametrize("factor", [k_limit, coarse_factor])
def test_tiny_radius_finite_or_rejected(factor):
    """On R = 10^-k, k = 1..320, each factor is finite or rejected with a
    ParameterError naming R; it is finite down to where it overflows and
    rejected below."""
    finite = []
    for k in range(1, 321):
        R = 10.0 ** -k
        try:
            value = factor(R)
        except ParameterError as exc:
            assert f"tube radius {R:g} is too small" in str(exc)
        else:
            assert math.isfinite(value) and value > 1.0
            finite.append(k)
    assert finite == list(range(1, len(finite) + 1))
    assert 100 <= len(finite) < 320


class TestParentVolumeLowerBound:
    def test_corollary_value(self):
        v = parent_volume_lower_bound(2.0298, LN3_HALF)
        assert v == pytest.approx(2.0298 / (2.0 * math.sqrt(10.0)), abs=1e-15)
        assert v > 0.32

    def test_deep_tube_limit(self):
        assert parent_volume_lower_bound(3.3, 35.0) == pytest.approx(3.3, rel=1e-12)

    def test_monotone_in_radius(self):
        vals = [parent_volume_lower_bound(2.0, r) for r in (0.2, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)


class TestSolveRadiusBound:
    def test_corollary_radius(self):
        r0 = solve_radius_bound(2.0298, 0.943)
        assert 0.955 < r0 < 0.956
        assert r0 == pytest.approx(0.9557442401583685, abs=1e-11)
        residual = coarse_factor(r0) * 0.943 - 2.0298
        assert abs(residual) < 1e-9

    def test_factor_of_two(self):
        r0 = solve_radius_bound(2.0 * 0.943, 0.943)
        assert coarse_factor(r0) == pytest.approx(2.0, abs=1e-9)

    def test_round_trip(self):
        for ratio in (1.5, 3.0, 10.0):
            r0 = solve_radius_bound(ratio * 1.3, 1.3)
            assert coarse_factor(r0) == pytest.approx(ratio, abs=1e-9)

    def test_no_root(self):
        with pytest.raises(DomainError):
            solve_radius_bound(1.0, 2.0)
        with pytest.raises(DomainError):
            solve_radius_bound(1.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            solve_radius_bound(-1.0, 1.0)

    @given(st.floats(1.0001, 1e30))
    @example(1e18)  # coarse_factor(1e-6) is about 7.07e17: the root is below the bracket
    @settings(max_examples=200, deadline=None)
    def test_round_trip_or_domain_error(self, ratio):
        """Either the returned radius solves the equation, or the root lies
        outside the bracket and DomainError says so."""
        try:
            r0 = solve_radius_bound(ratio, 1.0)
        except DomainError:
            return
        assert coarse_factor(r0) == pytest.approx(ratio, rel=1e-5)


# ---------------------------------------------------------------------------
# Corollary report, trichotomy table, conjectured bound
# ---------------------------------------------------------------------------


class TestMinVolumeCorollary:
    def test_lower_bound(self):
        rep = min_volume_corollary()
        exact = 2.0298 / (2.0 ** 2.5 * 1.25 ** 0.5)
        assert rep.lower_bound == pytest.approx(exact, abs=1e-9)
        assert rep.lower_bound > 0.32
        assert rep.lower_bound < 0.33
        assert rep.lower_bound == parent_volume_lower_bound(rep.cusped_volume_min,
                                                            rep.radius_threshold)

    def test_radius_bound(self):
        rep = min_volume_corollary()
        assert 0.955 < rep.radius_bound < 0.956
        assert rep.radius_bound_weeks == pytest.approx(0.9555453117714316, abs=1e-9)
        assert rep.radius_bound_weeks < rep.radius_bound

    def test_case_filter_mentions_exclusions(self):
        rep = min_volume_corollary()
        assert "1.01" in rep.case_filter
        assert str(rep.weeks_volume) in rep.case_filter
        assert rep.lower_bound_ok
        assert rep.radius_bound_ok


class TestGmtCases:
    def test_exactly_three(self):
        assert len(gmt_cases()) == 3

    def test_exact_constants(self):
        one, two, three = gmt_cases()
        assert one.radius_lo == math.log(3.0) / 2.0
        assert two.radius_hi == 1.0953 / 2.0
        assert two.radius_lo == 1.0591 / 2.0
        assert two.length_min == 1.059
        assert three.radius_lo == 0.8314 / 2.0
        assert "1.0149" in three.note

    def test_constants_table_citations(self):
        for key, (value, provenance) in CONSTANTS.items():
            assert math.isfinite(value)
            assert provenance


class TestBridgemanBound:
    def test_zero_length(self):
        assert bridgeman_bound(0.9427, 0.0) == 0.9427

    def test_weeks_plus_pi(self):
        assert bridgeman_bound(0.9427, 1.0) == pytest.approx(0.9427 + math.pi, abs=1e-15)

    @given(st.floats(0.1, 10.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_additive_in_length(self, vol, l1, l2):
        lhs = bridgeman_bound(vol, l1 + l2)
        rhs = bridgeman_bound(vol, l1) + math.pi * l2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            bridgeman_bound(0.0, 1.0)
        with pytest.raises(ParameterError):
            bridgeman_bound(1.0, -0.1)
