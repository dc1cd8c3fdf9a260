"""Finite-difference curvature oracle for diagonal metrics diag(1, f^2, g^2).

This is the independent check on the closed-form tube curvatures: it sees
only metric component VALUES, builds the Christoffel symbols from centered
second-order differences, differences those again for the curvature tensor,
and never touches the analytic derivatives carried by a warping pair.

The metric depends on r alone, so every derivative stencil is
one-dimensional.  Internal arithmetic runs in extended precision
(``numpy.longdouble``): with float64 arithmetic the nested differencing is
roundoff-limited near the default step and halving the step would not reduce
the error, while in extended precision the scheme stays cleanly second
order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .warped import WarpingPair, sectional_curvatures

__all__ = [
    "DiagonalMetric",
    "CurvatureReport",
    "christoffel_fd",
    "riemann_fd",
    "sectional_fd",
    "validate_lemma_curvature",
]

_LD = np.longdouble

# Frame index convention: 0 = r, 1 = theta, 2 = lambda.
PLANES = ((0, 1), (0, 2), (1, 2))
PLANE_NAMES = {(0, 1): "r_theta", (0, 2): "r_lambda", (1, 2): "theta_lambda"}


@dataclass(frozen=True)
class DiagonalMetric:
    """Three diagonal component functions of r, plus the difference step h.

    ``comps`` holds (g_rr, g_theta_theta, g_lambda_lambda); g_rr is
    identically 1 for the metrics treated here.  Components must be strictly
    positive wherever they are evaluated.
    """

    comps: tuple[Callable, Callable, Callable]
    h: float = 1e-4
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = "metric"

    @classmethod
    def from_warping_pair(cls, w: WarpingPair, h: Optional[float] = None) -> "DiagonalMetric":
        """Squared-component metric of a warping pair.

        Uses the pair's ``fd_step`` hint when ``h`` is not given; analytic
        pairs default to 1e-4.
        """
        if h is None:
            h = w.fd_step if w.fd_step is not None else 1e-4
        return cls(
            comps=(
                lambda r: np.asarray(r) * 0 + 1.0,
                lambda r: w.f(r) ** 2,
                lambda r: w.g(r) ** 2,
            ),
            h=h,
            domain=w.domain,
            name=w.name,
        )

    def require_margin(self, r: float) -> None:
        lo, hi = self.domain
        if not (lo + 2 * self.h <= r <= hi - 2 * self.h):
            raise DomainError(
                f"{self.name}: r={r} closer than 2h={2 * self.h:g} to the domain boundary"
            )


def _component_values(m: DiagonalMetric, points: Sequence) -> np.ndarray:
    """Evaluate all three components at all stencil points, extended precision."""
    out = np.empty((len(points), 3), dtype=_LD)
    for i, r in enumerate(points):
        for k, c in enumerate(m.comps):
            out[i, k] = c(r)
    return out


def _christoffel_from_values(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols of a diagonal r-dependent metric.

    G and dG are the diagonal components and their r-derivatives at one
    point.  Gamma^k_{ij} = (1/2) g^{kk} (d_i g_{jk} + d_j g_{ik} - d_k g_{ij})
    with only the r-derivative (index 0) nonzero.
    """
    gam = np.zeros((3, 3, 3), dtype=_LD)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                t = _LD(0)
                if i == 0 and j == k:
                    t += dG[k]
                if j == 0 and i == k:
                    t += dG[k]
                if k == 0 and i == j:
                    t -= dG[i]
                if t != 0:
                    gam[k, i, j] = t / (2 * G[k])
    return gam


def _christoffel_ld(m: DiagonalMetric, r) -> np.ndarray:
    h = _LD(m.h)
    vals = _component_values(m, (r - h, r, r + h))
    dG = (vals[2] - vals[0]) / (2 * h)
    return _christoffel_from_values(vals[1], dG)


def christoffel_fd(m: DiagonalMetric, r: float) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at r from differenced metric values.

    Symmetric in the lower indices (i, j) by construction.
    """
    m.require_margin(r)
    _check_step(m)
    return np.asarray(_christoffel_ld(m, _LD(r)), dtype=float)


def _riemann_ld(m: DiagonalMetric, r) -> tuple[np.ndarray, np.ndarray]:
    """Lowered curvature tensor R[rho, sig, mu, nu] and metric diagonal at r."""
    h = _LD(m.h)
    gam_m = _christoffel_ld(m, r - h)
    gam_0 = _christoffel_ld(m, r)
    gam_p = _christoffel_ld(m, r + h)
    dgam = (gam_p - gam_m) / (2 * h)
    G = _component_values(m, (r,))[0]

    up = np.zeros((3, 3, 3, 3), dtype=_LD)
    for rho in range(3):
        for sig in range(3):
            for mu in range(3):
                for nu in range(3):
                    t = _LD(0)
                    if mu == 0:
                        t += dgam[rho, nu, sig]
                    if nu == 0:
                        t -= dgam[rho, mu, sig]
                    for lam in range(3):
                        t += (
                            gam_0[rho, mu, lam] * gam_0[lam, nu, sig]
                            - gam_0[rho, nu, lam] * gam_0[lam, mu, sig]
                        )
                    up[rho, sig, mu, nu] = t
    low = G[:, None, None, None] * up
    return low, G


def riemann_fd(m: DiagonalMetric, r: float) -> np.ndarray:
    """Lowered curvature tensor R_{rho sig mu nu} at r (float64)."""
    m.require_margin(r)
    _check_step(m)
    low, _ = _riemann_ld(m, _LD(r))
    return np.asarray(low, dtype=float)


def frame_riemann_fd(m: DiagonalMetric, r: float) -> np.ndarray:
    """Curvature tensor in the orthonormal frame e_k = X_k / sqrt(g_kk)."""
    m.require_margin(r)
    low, G = _riemann_ld(m, _LD(r))
    s = np.sqrt(G)
    norm = s[:, None, None, None] * s[None, :, None, None] * s[None, None, :, None] * s[None, None, None, :]
    return np.asarray(low / norm, dtype=float)


def sectional_fd(m: DiagonalMetric, r: float, plane: tuple[int, int]) -> float:
    """Sectional curvature of an orthonormal coordinate plane at r.

    ``plane`` is a pair of distinct frame indices (0 = r, 1 = theta,
    2 = lambda).  Sign convention: the unit 2-sphere has K = +1.
    """
    i, j = plane
    if i == j or not {i, j} <= {0, 1, 2}:
        raise ParameterError(f"plane must be two distinct indices in 0..2, got {plane}")
    m.require_margin(r)
    _check_step(m)
    low, G = _riemann_ld(m, _LD(r))
    return float(low[i, j, i, j] / (G[i] * G[j]))


def _check_step(m: DiagonalMetric) -> None:
    if not (0.0 < m.h):
        raise ParameterError(f"difference step must be positive, got {m.h}")
    if m.h < 1e-9 or m.h > 1e-1:
        warnings.warn(
            f"{m.name}: step h={m.h:g} is outside the well-conditioned range "
            "[1e-9, 1e-1] for second-order differencing",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class CurvatureReport:
    """Per-sample comparison of closed-form and differenced curvatures.

    ``rel_errors`` holds the guarded relative error
    |closed - oracle| / max(|closed|, 1e-3); the absolute floor keeps
    near-zero curvatures from blowing up the quotient, and makes the default
    tolerance 1e-5 act as an absolute tolerance 1e-8 there.
    """

    radii: np.ndarray
    closed: np.ndarray
    oracle: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    tolerance: float
    passed: bool
    pair_name: str

    def worst_sample(self) -> tuple[float, str]:
        """Radius and plane name of the largest error."""
        i, j = np.unravel_index(int(np.argmax(self.rel_errors)), self.rel_errors.shape)
        return float(self.radii[i]), PLANE_NAMES[PLANES[j]]


def _sample_window(w: WarpingPair, h: float) -> tuple[float, float]:
    """Default sampling window: a span of up to 5 inside the pair's domain."""
    lo, hi = w.domain
    if math.isinf(hi):
        hi = (lo if not math.isinf(lo) else -2.5) + 5.0
    if math.isinf(lo):
        lo = hi - 5.0
    if w.axis_flag:
        lo = max(lo, 0.05)
    pad = max(4.0 * h, 1e-3)
    return lo + pad, hi - pad


def validate_lemma_curvature(
    w: WarpingPair,
    samples: int = 100,
    tolerance: float = 1e-5,
    h: Optional[float] = None,
    window: Optional[tuple[float, float]] = None,
    seed: int = 0,
) -> CurvatureReport:
    """Compare closed-form curvatures of ``w`` against the value-only oracle.

    Draws ``samples`` radii uniformly from ``window`` (by default a span
    inside the pair's domain), evaluates all three plane curvatures both
    ways, and reports guarded relative errors.  Failures are reported, not
    raised.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    m = DiagonalMetric.from_warping_pair(w, h=h)
    _check_step(m)
    lo, hi = window if window is not None else _sample_window(w, m.h)
    if not (lo < hi):
        raise ParameterError(f"empty sampling window ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    radii = rng.uniform(lo, hi, samples)

    closed = np.empty((samples, 3))
    orac = np.empty((samples, 3))
    for i, r in enumerate(radii):
        k = sectional_curvatures(w, float(r))
        closed[i] = (k.k_rtheta, k.k_rlambda, k.k_thetalambda)
        low, G = _riemann_ld(m, _LD(float(r)))
        for j, (a, b) in enumerate(PLANES):
            orac[i, j] = float(low[a, b, a, b] / (G[a] * G[b]))
    abs_err = np.abs(closed - orac)
    rel_err = abs_err / np.maximum(np.abs(closed), 1e-3)
    max_rel = float(rel_err.max())
    return CurvatureReport(
        radii=radii,
        closed=closed,
        oracle=orac,
        abs_errors=abs_err,
        rel_errors=rel_err,
        max_rel_error=max_rel,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
        pair_name=w.name,
    )
