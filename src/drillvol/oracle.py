"""Finite-difference curvature oracle for diagonal metrics diag(1, f^2, g^2).

This is the independent check on the closed-form tube curvatures: it sees
only metric component VALUES, builds the Christoffel symbols from centered
second-order differences, differences those again for the curvature tensor,
and never touches the analytic derivatives carried by a warping pair.

The metric depends on r alone, so every derivative stencil is
one-dimensional, and one array path serves any number of radii: each
component is called once on the stencil points of all of them, and the
symbols and the tensor are array expressions over the radii;
``christoffel_fd``, ``riemann_fd`` and ``sectional_fd`` are its one-radius
calls.  Internal arithmetic runs in extended precision
(``numpy.longdouble``): with float64 arithmetic the nested differencing is
roundoff-limited near the default step and halving the step would not reduce
the error, while in extended precision the scheme stays cleanly second
order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import _require_positive
from .errors import DomainError, ParameterError
from .warped import WarpingPair, _require_finite_radius, _sectional_grid, _Shared, _Values

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
_PLANE_AXES = tuple(np.array(PLANES).T)  # (i of each plane, j of each plane)
_STENCIL = np.array([-1, 0, 1], dtype=_LD)
_BLOCK = 1024  # samples per oracle pass, at about 6.5 KB each: memory stays flat


@dataclass(frozen=True)
class DiagonalMetric:
    """Three diagonal component functions of r, plus the difference step h.

    ``comps`` holds (g_rr, g_theta_theta, g_lambda_lambda); g_rr is
    identically 1 for the metrics treated here.  Each component is called
    on a longdouble array of radii of any shape and must return its values
    elementwise (a scalar broadcasts), strictly positive wherever evaluated.
    The step h must be positive and finite; outside [1e-9, 1e-1] it draws a
    warning.
    """

    comps: tuple[Callable, Callable, Callable]
    h: float = 1e-4
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = "metric"

    def __post_init__(self) -> None:
        _require_positive("difference step", self.h)
        if self.h < 1e-9 or self.h > 1e-1:
            warnings.warn(
                f"{self.name}: step h={self.h:g} is outside the well-conditioned range "
                "[1e-9, 1e-1] for second-order differencing",
                RuntimeWarning,
                stacklevel=3,
            )

    @classmethod
    def from_warping_pair(cls, w: WarpingPair, h: Optional[float] = None) -> "DiagonalMetric":
        """Squared-component metric of a warping pair, with the pair's
        ``fd_step`` as h unless ``h`` is given.  The components square f
        and g through warped._Shared, so that the oracle, which reads them
        through one warped._Values, takes f and g from one evaluation of a
        pair whose callables share a base."""
        return cls(
            comps=(
                lambda r: np.asarray(r) * 0 + 1.0,
                _Shared(w.f, lambda v: v ** 2),
                _Shared(w.g, lambda v: v ** 2),
            ),
            h=w.fd_step if h is None else h,
            domain=w.domain,
            name=w.name,
        )

    def require_margin(self, r: float) -> None:
        """Reject a non-finite radius, or one within 2h of the domain boundary."""
        lo, hi = self.domain
        _require_finite_radius(self.name, r)
        if not (lo + 2 * self.h <= r <= hi - 2 * self.h):
            raise DomainError(
                f"{self.name}: r={r} closer than 2h={2 * self.h:g} to the domain boundary"
            )


def _riemann_ld(m: DiagonalMetric, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Christoffel symbols Gamma[..., k, i, j], lowered curvature tensor
    R[..., rho, sig, mu, nu] and metric diagonal at each radius of the
    longdouble array ``r``.

    Each component is read once, through one warped._Values, on the points
    (r + a h) + b h for a, b in {-1, 0, 1}: the b-differences give Gamma at
    r + a h, and the a-differences of those give its r-derivative.
    """
    h = _LD(m.h)
    step = _STENCIL * h
    pts = (r[..., None] + step)[..., None] + step  # [..., a, b]
    at = _Values(pts)
    vals = np.stack([np.broadcast_to(np.asarray(at(c), dtype=_LD), pts.shape)
                     for c in m.comps], axis=-1)
    G = vals[..., 1, :]
    dG = (vals[..., 2, :] - vals[..., 0, :]) / (2 * h)
    # Gamma^k_ij = (1/2) g^kk (d_i g_jk + d_j g_ik - d_k g_ij), only d_r nonzero:
    # Gamma^k_rk = Gamma^k_kr = d_r g_kk / (2 g_kk), Gamma^r_ii = -d_r g_ii / (2 g_rr)
    k = np.arange(3)
    gam = np.zeros(G.shape + (3, 3), dtype=_LD)  # [..., a, k, i, j]
    gam[..., k, 0, k] = gam[..., k, k, 0] = dG / (2 * G)
    gam[..., 0, k[1:], k[1:]] = -dG[..., 1:] / (2 * G[..., :1])
    dgam = (gam[..., 2, :, :, :] - gam[..., 0, :, :, :]) / (2 * h)
    gam, G = gam[..., 1, :, :, :], G[..., 1, :]

    # R^rho_{sig mu nu} = d_mu Gamma^rho_{nu sig} - d_nu Gamma^rho_{mu sig}
    #                     + Gamma^rho_{mu lam} Gamma^lam_{nu sig} - (mu <-> nu)
    dgam_t, gam_t = np.swapaxes(dgam, -1, -2), np.swapaxes(gam, -1, -2)  # [..., k, j, i]
    up = np.zeros(G.shape + (3, 3, 3), dtype=_LD)  # [..., rho, sig, mu, nu]
    up[..., 0, :] = dgam_t
    up[..., 0] -= dgam_t
    for lam in range(3):  # summed in index order, like the scalar reference in the tests
        p = gam[..., :, None, :, None, lam] * gam_t[..., lam, None, :, None, :]
        up += p - np.swapaxes(p, -1, -2)
    return gam, G[..., :, None, None, None] * up, G


def _sectional_ld(m: DiagonalMetric, r: np.ndarray, i, j) -> np.ndarray:
    """Sectional curvature of the frame plane (i, j) at each radius of ``r``."""
    _, low, G = _riemann_ld(m, r)
    return low[..., i, j, i, j] / (G[..., i] * G[..., j])


def christoffel_fd(m: DiagonalMetric, r: float) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at r from differenced metric values.

    Symmetric in the lower indices (i, j) by construction.
    """
    m.require_margin(r)
    return np.asarray(_riemann_ld(m, np.asarray(r, dtype=_LD))[0], dtype=float)


def riemann_fd(m: DiagonalMetric, r: float) -> np.ndarray:
    """Lowered curvature tensor R_{rho sig mu nu} at r (float64)."""
    m.require_margin(r)
    return np.asarray(_riemann_ld(m, np.asarray(r, dtype=_LD))[1], dtype=float)


def sectional_fd(m: DiagonalMetric, r: float, plane: tuple[int, int]) -> float:
    """Sectional curvature of an orthonormal coordinate plane at r.

    ``plane`` is a pair of distinct frame indices (0 = r, 1 = theta,
    2 = lambda).  Sign convention: the unit 2-sphere has K = +1.
    """
    i, j = plane
    if i == j or not {i, j} <= {0, 1, 2}:
        raise ParameterError(f"plane must be two distinct indices in 0..2, got {plane}")
    m.require_margin(r)
    return float(_sectional_ld(m, np.asarray(r, dtype=_LD), i, j))


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
    """Default sampling window: a span of up to 5 inside the pair's domain,
    and below a finite top at most 700 over the rate of f' or g' there, so
    that an exponential tail like the extension's stays a normal float64."""
    lo, hi = w.domain
    if math.isinf(hi):
        hi = (lo if not math.isinf(lo) else -2.5) + 5.0
    if math.isinf(lo):
        at = _Values(hi)
        fp, gp = float(at(w.fp)), float(at(w.gp))
        rate = max(float(at(w.fpp)) / fp, float(at(w.gpp)) / gp) if fp > 0.0 and gp > 0.0 else 0.0
        lo = hi - (700.0 / rate if rate > 140.0 else 5.0)
    else:  # a finite lower end is the smooth axis
        lo = max(lo, 0.05)
    pad = max(4.0 * h, 1e-3)
    return lo + pad, hi - pad


def validate_lemma_curvature(
    w: WarpingPair,
    samples: int = 100,
    tolerance: float = 1e-5,
    window: Optional[tuple[float, float]] = None,
    seed: int = 0,
) -> CurvatureReport:
    """Compare closed-form curvatures of ``w`` against the value-only oracle.

    Draws ``samples`` radii uniformly from ``window`` (by default a span
    inside the pair's domain), evaluates all three plane curvatures both
    ways at the pair's ``fd_step``, and reports guarded relative errors.
    Failures are reported, not raised.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    _require_positive("tolerance", tolerance)
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    # the step, then the window, before the metric: an empty window is
    # rejected without the metric's warning on a poorly conditioned step
    _require_positive("difference step", w.fd_step)
    lo, hi = window if window is not None else _sample_window(w, w.fd_step)
    if not (lo < hi):
        raise ParameterError(f"empty sampling window ({lo}, {hi})")
    m = DiagonalMetric.from_warping_pair(w)
    m.require_margin(lo)
    m.require_margin(hi)
    radii = np.random.default_rng(seed).uniform(lo, hi, samples)

    closed, orac = np.empty((samples, 3)), np.empty((samples, 3))
    for part in (slice(i, i + _BLOCK) for i in range(0, samples, _BLOCK)):
        closed[part] = np.stack(_sectional_grid(w, radii[part]), axis=-1)
        orac[part] = _sectional_ld(m, radii[part].astype(_LD), *_PLANE_AXES)
    rel_err = np.abs(closed - orac) / np.maximum(np.abs(closed), 1e-3)
    max_rel = float(rel_err.max())
    return CurvatureReport(
        radii=radii,
        closed=closed,
        oracle=orac,
        rel_errors=rel_err,
        max_rel_error=max_rel,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
        pair_name=w.name,
    )
