"""Finite-difference oracle: Christoffel symbols, curvature tensor, validation."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import counted_pair
from drillvol import (
    DiagonalMetric,
    DomainError,
    ParameterError,
    christoffel_fd,
    hyperbolic_tube,
    kerckhoff_extension,
    riemann_fd,
    sectional_fd,
    validate_lemma_curvature,
)
from drillvol.cli import run
from drillvol.oracle import PLANES


@pytest.fixture(scope="module")
def tube_metric():
    return DiagonalMetric.from_warping_pair(hyperbolic_tube())


@pytest.fixture(scope="module")
def flat_metric():
    return DiagonalMetric(
        comps=(
            lambda r: np.asarray(r) * 0 + 1.0,
            lambda r: np.asarray(r) ** 2,
            lambda r: np.asarray(r) * 0 + 1.0,
        ),
        domain=(0.0, math.inf),
        name="flat_polar",
    )


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


class TestChristoffel:
    def test_flat_polar_symbols(self, flat_metric):
        gam = christoffel_fd(flat_metric, 2.0)
        assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-8)   # Gamma^r_theta_theta = -r
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-8)    # Gamma^theta_r_theta = 1/r
        assert np.allclose(gam[2], 0.0, atol=1e-10)            # nothing touches lambda
        assert np.allclose(gam[:, 2, :2], 0.0, atol=1e-10)

    def test_tube_symbol(self, tube_metric):
        gam = christoffel_fd(tube_metric, 1.0)
        # Gamma^r_theta_theta = -f f' = -sinh(1) cosh(1)
        assert gam[0, 1, 1] == pytest.approx(-math.sinh(1.0) * math.cosh(1.0), rel=1e-8)

    def test_lower_index_symmetry(self, tube_metric):
        gam = christoffel_fd(tube_metric, 0.9)
        assert np.array_equal(gam, np.swapaxes(gam, 1, 2))

    def test_margin_violation(self, flat_metric):
        with pytest.raises(DomainError):
            christoffel_fd(flat_metric, 1e-5)

    @pytest.mark.parametrize("r", [-math.inf, math.inf, math.nan])
    def test_non_finite_radius(self, r):
        m = DiagonalMetric.from_warping_pair(kerckhoff_extension(0.8))
        with pytest.raises(DomainError, match="radius must be finite"):
            m.require_margin(r)


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


class TestSectional:
    def test_tube_r_theta(self, tube_metric):
        assert sectional_fd(tube_metric, 0.9, (0, 1)) == pytest.approx(-1.0, abs=1e-6)

    def test_extension_theta_lambda(self):
        m = DiagonalMetric.from_warping_pair(kerckhoff_extension(0.8))
        assert sectional_fd(m, 0.5, (1, 2)) == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("plane", PLANES)
    def test_flat_everywhere(self, flat_metric, plane):
        assert sectional_fd(flat_metric, 1.7, plane) == pytest.approx(0.0, abs=1e-6)

    def test_bad_plane(self, tube_metric):
        with pytest.raises(ParameterError):
            sectional_fd(tube_metric, 1.0, (1, 1))

    def test_tiny_step_warns(self):
        with pytest.warns(RuntimeWarning):
            DiagonalMetric.from_warping_pair(hyperbolic_tube(), h=1e-10)


# ---------------------------------------------------------------------------
# Curvature tensor structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair_name", ["tube", "kerckhoff08"])
def test_riemann_symmetries(pair_name, request):
    """R_ijkl = -R_jikl = R_klij within 1e-6 at random radii."""
    w = request.getfixturevalue(pair_name)
    m = DiagonalMetric.from_warping_pair(w)
    rng = np.random.default_rng(5)
    lo = 0.3 if math.isfinite(w.domain[0]) else -3.0
    hi = min(w.domain[1], 4.0) - 0.01
    for r in rng.uniform(lo, hi, 10):
        R = riemann_fd(m, float(r))
        assert np.max(np.abs(R + np.swapaxes(R, 0, 1))) < 1e-6
        assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-6


def _scalar_loops(m, r):
    """Christoffel symbols and lowered curvature tensor at r from scalar
    component calls and index loops: the reference for the array path."""
    ld = np.longdouble
    h, r = ld(m.h), ld(r)

    def christoffel(x):
        G = [np.array([c(p) for c in m.comps], dtype=ld) for p in (x - h, x, x + h)]
        dG = (G[2] - G[0]) / (2 * h)
        gam = np.zeros((3, 3, 3), dtype=ld)
        for k, i, j in itertools.product(range(3), repeat=3):
            t = ld(0)
            if i == 0 and j == k:
                t += dG[k]
            if j == 0 and i == k:
                t += dG[k]
            if k == 0 and i == j:
                t -= dG[i]
            if t != 0:
                gam[k, i, j] = t / (2 * G[1][k])
        return gam

    gam = christoffel(r)
    dgam = (christoffel(r + h) - christoffel(r - h)) / (2 * h)
    up = np.zeros((3, 3, 3, 3), dtype=ld)
    for rho, sig, mu, nu in itertools.product(range(3), repeat=4):
        t = ld(0)
        if mu == 0:
            t += dgam[rho, nu, sig]
        if nu == 0:
            t -= dgam[rho, mu, sig]
        for lam in range(3):
            t += gam[rho, mu, lam] * gam[lam, nu, sig] - gam[rho, nu, lam] * gam[lam, mu, sig]
        up[rho, sig, mu, nu] = t
    G = np.array([c(r) for c in m.comps], dtype=ld)
    return np.asarray(gam, float), np.asarray(G[:, None, None, None] * up, float)


def test_array_path_equals_scalar_loops(flat_metric, tube, kerckhoff08, family_08):
    """The same arithmetic in the same order: equal to the last bit."""
    cases = [(flat_metric, (1.7, 2.0)), (DiagonalMetric.from_warping_pair(tube), (0.3, 1.0, 2.9)),
             (DiagonalMetric.from_warping_pair(kerckhoff08), (-2.0, 0.5, 0.79)),
             (DiagonalMetric.from_warping_pair(family_08.pair), (0.45, 0.79, 0.81))]
    for m, radii in cases:
        for r in radii:
            gam, low = _scalar_loops(m, r)
            assert np.array_equal(christoffel_fd(m, r), gam)
            assert np.array_equal(riemann_fd(m, r), low)


def test_off_diagonal_frame_components(tube, kerckhoff08, family_08):
    """R(e_i, e_k, e_i, e_j) vanishes for j != k: the Ricci tensor is diagonal."""
    rng = np.random.default_rng(9)
    cases = [
        (tube, rng.uniform(0.3, 3.0, 8)),
        (kerckhoff08, rng.uniform(-2.0, 0.75, 8)),
        (family_08.pair, rng.uniform(0.8 - family_08.delta, 0.8, 4)),
    ]
    for w, radii in cases:
        m = DiagonalMetric.from_warping_pair(w)
        for r in radii:
            s = np.sqrt([float(c(r)) for c in m.comps])  # e_k = X_k / sqrt(g_kk)
            F = riemann_fd(m, float(r)) / np.einsum("i,j,k,l->ijkl", s, s, s, s)
            for i in range(3):
                for k in range(3):
                    for j in range(3):
                        if j != k and i != k and i != j:
                            assert abs(F[i, k, i, j]) < 1e-5


# ---------------------------------------------------------------------------
# Validation runs
# ---------------------------------------------------------------------------


# pairs for whole validation runs, the smoothed one over its collar
RUNS = [("tube", None), ("kerckhoff08", None), ("family_08", (0.3, 0.9))]


class TestValidate:
    def test_tube_passes(self, tube):
        report = validate_lemma_curvature(tube, samples=100, tolerance=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-5

    def test_extension_passes(self):
        report = validate_lemma_curvature(kerckhoff_extension(1.2), samples=100, tolerance=1e-5)
        assert report.passed

    def test_smoothed_pair_passes(self, family_08):
        window = (0.8 - family_08.delta - 0.1, 0.8 + 0.1)  # mostly collar
        report = validate_lemma_curvature(family_08.pair, samples=100,
                                          tolerance=1e-5, window=window)
        assert report.passed

    def test_corrupted_second_derivative_fails(self, tube):
        bad = dataclasses.replace(tube, fpp=lambda r: 1.1 * np.sinh(r), name="corrupted")
        report = validate_lemma_curvature(bad, samples=50, tolerance=1e-5)
        assert not report.passed
        # a 10% error in f'' shows up as a ~0.1 relative error on K_rtheta
        assert 0.05 < report.max_rel_error < 0.15
        assert report.worst_sample()[1] == "r_theta"

    def test_report_shape(self, tube):
        report = validate_lemma_curvature(tube, samples=7)
        assert report.radii.shape == (7,)
        assert report.closed.shape == (7, 3)
        assert report.oracle.shape == (7, 3)
        assert report.max_rel_error == report.rel_errors.max()

    def test_needs_samples(self, tube):
        with pytest.raises(ParameterError):
            validate_lemma_curvature(tube, samples=0)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_needs_positive_step(self, tube, h):
        with pytest.raises(ParameterError, match="difference step must be positive and finite"):
            validate_lemma_curvature(dataclasses.replace(tube, fd_step=h), samples=5)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
    def test_needs_positive_finite_tolerance(self, tube, tolerance):
        with pytest.raises(ParameterError, match="tolerance must be positive and finite"):
            validate_lemma_curvature(tube, samples=5, tolerance=tolerance)

    def test_needs_nonnegative_seed(self, tube):
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            validate_lemma_curvature(tube, samples=5, seed=-1)

    @pytest.mark.parametrize("pair_name,window", [("tube", (-1e-9, 1.0)),
                                                  ("kerckhoff08", (0.0, 0.8001))])
    def test_window_outside_domain(self, pair_name, window, request):
        w = request.getfixturevalue(pair_name)
        with pytest.raises(DomainError):
            validate_lemma_curvature(w, samples=5, window=window)

    def test_window_keeps_stencil_inside_domain(self):
        """A window that ends on the domain boundary would difference f past R."""
        with pytest.raises(DomainError, match="closer than 2h"):
            validate_lemma_curvature(kerckhoff_extension(0.8), samples=5, window=(0.0, 0.8))

    @pytest.mark.parametrize("pair_name,window", RUNS)
    def test_component_calls_do_not_grow_with_samples(self, pair_name, window, request):
        """Both sides evaluate every radius of every sample in one call per
        warping callable."""
        w = request.getfixturevalue(pair_name)
        w = getattr(w, "pair", w)
        counts = []
        for samples in (5, 50):
            wrapped, calls = counted_pair(w)
            validate_lemma_curvature(wrapped, samples=samples, window=window)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert max(counts[0].values()) <= 2

    @pytest.mark.parametrize("pair_name,window", RUNS)
    def test_sectional_fd_is_the_report_oracle(self, pair_name, window, request):
        w = request.getfixturevalue(pair_name)
        w = getattr(w, "pair", w)
        report = validate_lemma_curvature(w, samples=20, window=window)
        m = DiagonalMetric.from_warping_pair(w)
        fd = np.array([[sectional_fd(m, float(r), plane) for plane in PLANES]
                       for r in report.radii])
        assert np.array_equal(fd, report.oracle)


def test_halving_step_reduces_error(tube, kerckhoff08):
    """Second-order convergence: h -> h/2 shrinks the error on >= 90% of samples."""
    rng = np.random.default_rng(2)
    improved = total = 0
    for w, lo, hi, exact in (
        (tube, 0.3, 3.0, lambda r: (-1.0, -1.0, -1.0)),
        (kerckhoff08, -3.0, 0.79, lambda r: (-(1 / math.tanh(0.8)) ** 2, -math.tanh(0.8) ** 2, -1.0)),
    ):
        m4 = DiagonalMetric.from_warping_pair(w, h=1e-4)
        m5 = DiagonalMetric.from_warping_pair(w, h=5e-5)
        for r in rng.uniform(lo, hi, 40):
            for plane, k_exact in zip(PLANES, exact(r)):
                e4 = abs(sectional_fd(m4, float(r), plane) - k_exact)
                e5 = abs(sectional_fd(m5, float(r), plane) - k_exact)
                improved += e5 < e4
                total += 1
    assert improved >= 0.9 * total


@pytest.mark.parametrize("R,h", [(0.01, 1e-3 * math.tanh(0.01)), (0.1, 1e-3 * math.tanh(0.1)),
                                 (0.1004, 1e-4), (0.8, 1e-4), (3.0, 1e-4)])
def test_extension_step_follows_its_rate(R, h):
    assert kerckhoff_extension(R).fd_step == h


def test_small_radius_extension_validates(capsys):
    """At R = 0.01 the rate coth R is 100; the default step resolves it.  At
    R = 0.005 the default window also shortens, so that f stays normal."""
    for R in ("0.01", "0.005"):
        assert run(["curvature", "--R", R, "--validate"]) == 0
        assert "validate_extension_pass=true" in capsys.readouterr().out


def test_oracle_memory_is_flat_in_samples(kerckhoff08):
    """Samples are evaluated in blocks, so the peak does not grow with their
    number beyond the reported arrays."""
    peaks = []
    for samples in (2000, 16000):
        tracemalloc.start()
        try:
            validate_lemma_curvature(kerckhoff08, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_fd_step_hint_respected(family_08):
    m = DiagonalMetric.from_warping_pair(family_08.pair)
    assert m.h == family_08.pair.fd_step
    m2 = DiagonalMetric.from_warping_pair(family_08.pair, h=1e-4)
    assert m2.h == 1e-4
