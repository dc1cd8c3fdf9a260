"""Rotationally symmetric tube metrics ``dr^2 + f(r)^2 dtheta^2 + g(r)^2 dlambda^2``.

The geometry of such a metric is controlled entirely by the radial warping
pair ``(f, g)``: the three coordinate 2-planes realize the extreme sectional
curvatures

    K_theta_lambda = -f'g'/(fg),   K_r_theta = -f''/f,   K_r_lambda = -g''/g,

and the Ricci tensor is diagonal in the orthonormal frame, with eigenvalues
given by pairwise sums of those curvatures.  This module provides the two
built-in pairs (the constant-curvature tube ``(sinh, cosh)`` and its
exponential extension past the tube boundary), the closed-form curvature and
volume operations, and an adaptive-quadrature volume integral used as an
oracle for the closed forms.

All warping callables must accept numpy arrays as well as scalars and should
be numpy-ufunc based so that evaluation preserves extended-precision inputs
(the finite-difference validation in :mod:`drillvol.oracle` relies on this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, QuadratureError, SingularAxisError

__all__ = [
    "WarpingPair",
    "TubeParams",
    "SectionalCurvatures",
    "RicciDiagonal",
    "VolumeQuadrature",
    "sectional_curvatures",
    "ricci_diagonal",
    "ricci_lower_bound_constant",
    "hyperbolic_tube",
    "kerckhoff_extension",
    "tube_volume",
    "extended_tube_volume",
    "warped_volume_quadrature",
    "coth",
]

TWO_PI = 2.0 * math.pi

RadialFunc = Callable[[float], float]


def coth(x: float) -> float:
    """Hyperbolic cotangent."""
    return math.cosh(x) / math.sinh(x)


def _require_sinh(x: float, what: str) -> None:
    """Reject an argument whose sinh, and with it coth, overflows or is
    infinite: 2R is inf for a finite R near the float64 limit."""
    try:
        if math.isfinite(math.sinh(x)):
            return
    except OverflowError:
        pass
    raise ParameterError(f"{what} is too large: sinh({x:g}) overflows")


@dataclass(frozen=True)
class SectionalCurvatures:
    """Sectional curvatures of the three coordinate 2-planes at one radius."""

    k_rtheta: float
    k_rlambda: float
    k_thetalambda: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.k_rtheta, self.k_rlambda, self.k_thetalambda)


@dataclass(frozen=True)
class RicciDiagonal:
    """Eigenvalues of the Ricci tensor in the orthonormal frame (e1, e2, e3).

    e1 is radial, e2 the normalized theta direction, e3 the normalized
    lambda direction.
    """

    ric_1: float
    ric_2: float
    ric_3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ric_1, self.ric_2, self.ric_3)

    def min(self) -> float:
        return min(self.ric_1, self.ric_2, self.ric_3)


@dataclass(frozen=True)
class WarpingPair:
    """A warping pair (f, g) with analytic first and second derivatives.

    Derivatives are supplied by constructors, never inferred numerically:
    the curvature formulas need exact f'' and g''.  ``domain`` is the closed
    interval of radii on which the six callables are defined; the lower
    endpoint may be ``-inf``.  When ``axis_flag`` is set, ``f`` vanishes at
    the lower endpoint (a smooth axis with f' = 1 there) and
    ``axis_curvature`` supplies the analytic curvature limit at the axis.

    ``fd_step`` is an optional hint for value-only finite differencing of
    this pair; table-backed pairs set it to resolve their narrowest feature,
    and the exponential extension shrinks it with its rate coth R.
    """

    f: RadialFunc
    fp: RadialFunc
    fpp: RadialFunc
    g: RadialFunc
    gp: RadialFunc
    gpp: RadialFunc
    domain: tuple[float, float] = (-math.inf, math.inf)
    axis_flag: bool = False
    axis_curvature: Optional[SectionalCurvatures] = None
    fd_step: Optional[float] = None
    name: str = "pair"

    def require(self, r: float) -> None:
        lo, hi = self.domain
        if not np.isfinite(r):
            raise DomainError(f"{self.name}: radius must be finite, got {r!r}")
        if not lo <= r <= hi:
            raise DomainError(f"{self.name}: radius {r} outside domain [{lo}, {hi}]")


@dataclass(frozen=True)
class TubeParams:
    """Tube radius and core geodesic length.

    The tube's rotational holonomy is not carried: no volume or curvature
    computed here depends on it.
    """

    R: float
    l: float

    def __post_init__(self) -> None:
        if not (self.R > 0.0):
            raise ParameterError(f"tube radius must be positive, got {self.R}")
        if not (self.l > 0.0):
            raise ParameterError(f"core length must be positive, got {self.l}")


def sectional_curvatures(w: WarpingPair, r: float) -> SectionalCurvatures:
    """Closed-form curvatures of the coordinate planes of ``w`` at radius ``r``.

    At a smooth axis (f = 0) the analytic limit is returned for pairs that
    declare one; where f or g is not positive otherwise this raises
    :class:`SingularAxisError`.
    """
    w.require(r)
    if w.axis_curvature is not None and (float(w.f(r)) == 0.0 or float(w.g(r)) == 0.0):
        return w.axis_curvature
    return SectionalCurvatures(*(float(k) for k in _sectional_grid(w, np.asarray(r, float))))


def _sectional_grid(w: WarpingPair, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_rtheta, K_rlambda and K_thetalambda of ``w`` at each radius of
    ``rs``; f and g must be positive there."""
    fv, gv = np.asarray(w.f(rs), float), np.asarray(w.g(rs), float)
    if not (np.all(fv > 0.0) and np.all(gv > 0.0)):
        raise SingularAxisError(
            f"{w.name}: a warping function is not positive inside "
            f"[{np.min(rs):.6g}, {np.max(rs):.6g}]"
        )
    return (
        -np.asarray(w.fpp(rs), float) / fv,
        -np.asarray(w.gpp(rs), float) / gv,
        -np.asarray(w.fp(rs), float) * np.asarray(w.gp(rs), float) / (fv * gv),
    )


def ricci_diagonal(w: WarpingPair, r: float) -> RicciDiagonal:
    """Diagonal Ricci eigenvalues, pairwise sums of the sectional curvatures."""
    k = sectional_curvatures(w, r)
    return RicciDiagonal(
        ric_1=k.k_rtheta + k.k_rlambda,
        ric_2=k.k_rtheta + k.k_thetalambda,
        ric_3=k.k_rlambda + k.k_thetalambda,
    )


def ricci_lower_bound_constant(
    w: WarpingPair, interval: tuple[float, float], grid_n: int
) -> float:
    """Smallest sampled k with Ric >= -2k on ``interval``.

    Returns half the supremum over a uniform ``grid_n``-point grid of the
    largest negated Ricci eigenvalue, so Ric >= -2k holds at every sampled
    point by construction.
    """
    r_lo, r_hi = interval
    if grid_n < 2:
        raise ParameterError(f"grid_n must be at least 2, got {grid_n}")
    if not (np.isfinite(r_lo) and np.isfinite(r_hi)):
        raise ParameterError(f"interval must be finite, got {interval}")
    if not (r_lo < r_hi):
        raise ParameterError(f"empty interval {interval}")
    w.require(r_lo)
    w.require(r_hi)

    return float(_ricci_grid(w, np.linspace(r_lo, r_hi, grid_n)).max())


def _ricci_grid(w: WarpingPair, rs: np.ndarray) -> np.ndarray:
    """Half the largest negated Ricci eigenvalue of ``w`` at each radius of
    ``rs``, the pointwise smallest k with Ric >= -2k; f and g must be
    positive there."""
    krt, krl, ktl = _sectional_grid(w, rs)
    return -0.5 * np.minimum(np.minimum(krt + krl, krt + ktl), krl + ktl)


def hyperbolic_tube() -> WarpingPair:
    """The constant-curvature tube pair (sinh, cosh) on [0, inf)."""
    return WarpingPair(
        f=np.sinh,
        fp=np.cosh,
        fpp=np.sinh,
        g=np.cosh,
        gp=np.sinh,
        gpp=np.cosh,
        domain=(0.0, math.inf),
        axis_flag=True,
        axis_curvature=SectionalCurvatures(-1.0, -1.0, -1.0),
        name="hyperbolic_tube",
    )


def kerckhoff_extension(R: float) -> WarpingPair:
    """Exponential continuation of the tube pair over (-inf, R].

    f(r) = sinh(R) exp(coth(R)(r - R)) and g(r) = cosh(R) exp(tanh(R)(r - R))
    match (sinh, cosh) in value and first derivative at r = R, stay positive
    together with their first two derivatives, and decay to zero as
    r -> -inf.  The resulting metric has constant sectional curvatures
    (-coth(R)^2, -tanh(R)^2, -1) on the coordinate planes.
    """
    if not (R > 0.0) or not np.isfinite(R):
        raise ParameterError(f"extension radius must be positive and finite, got {R}")
    _require_sinh(R, f"extension radius {R:g}")
    cth = coth(R)
    tnh = math.tanh(R)
    sh = math.sinh(R)
    ch = math.cosh(R)

    def f(r):
        return sh * np.exp(cth * (np.asarray(r) - R))

    def fp(r):
        return (sh * cth) * np.exp(cth * (np.asarray(r) - R))

    def fpp(r):
        return (sh * cth * cth) * np.exp(cth * (np.asarray(r) - R))

    def g(r):
        return ch * np.exp(tnh * (np.asarray(r) - R))

    def gp(r):
        return (ch * tnh) * np.exp(tnh * (np.asarray(r) - R))

    def gpp(r):
        return (ch * tnh * tnh) * np.exp(tnh * (np.asarray(r) - R))

    return WarpingPair(
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp,
        domain=(-math.inf, R),
        # the fastest rate is coth R: keep h coth R near 1e-3 as R -> 0
        fd_step=min(1e-4, 1e-3 * tnh),
        name=f"kerckhoff_extension(R={R:g})",
    )


def tube_volume(p: TubeParams) -> float:
    """Volume pi * l * sinh(R)^2 of the solid tube of radius R, core length l."""
    return math.pi * p.l * math.sinh(p.R) ** 2


def extended_tube_volume(p: TubeParams) -> float:
    """Volume of the extended region (-inf, R] under the exponential pair.

    Closed form 2 pi l sinh(R) cosh(R) / (coth(R) + tanh(R)).  Subtracting
    the solid-tube volume and adding this equals adding
    pi l sinh(R)^2 (coth(R)/coth(2R) - 1).
    """
    sh = math.sinh(p.R)
    ch = math.cosh(p.R)
    return TWO_PI * p.l * sh * ch / (coth(p.R) + math.tanh(p.R))


@dataclass(frozen=True)
class VolumeQuadrature:
    """Result of a numeric volume integral, with accuracy metadata.

    ``value`` excludes the truncated tail of improper integrals;
    ``tail_bound`` bounds the discarded mass assuming the integrand keeps
    decaying at least at its rate at the truncation point (exact for the
    exponential extension pair).
    """

    value: float
    error_estimate: float
    truncated_at: Optional[float] = None
    tail_bound: float = 0.0

    def __float__(self) -> float:
        return self.value


def warped_volume_quadrature(
    w: WarpingPair,
    r_lo: float,
    r_hi: float,
    l: float,
    truncation_depth: float = 40.0,
) -> VolumeQuadrature:
    """Numeric volume 2 pi l * integral of f g over [r_lo, r_hi].

    ``r_lo`` may be ``-inf``; the integral is then truncated at
    ``r_hi - truncation_depth`` and the discarded tail is bounded from the
    logarithmic decay rate of f g at the cut.  Raises
    :class:`QuadratureError` if the integrator cannot certify the result to
    one part in 1e10.
    """
    if not (l >= 0.0):
        raise ParameterError(f"length must be nonnegative, got {l}")
    if r_lo > r_hi:
        raise ParameterError(f"inverted interval [{r_lo}, {r_hi}]")
    if r_lo == r_hi:
        return VolumeQuadrature(value=0.0, error_estimate=0.0)

    truncated_at = None
    tail_bound = 0.0
    lo = r_lo
    if math.isinf(r_lo):
        if not math.isinf(w.domain[0]):
            raise DomainError(f"{w.name}: domain is not unbounded below")
        lo = r_hi - truncation_depth
        truncated_at = lo
        fg = float(w.f(lo)) * float(w.g(lo))
        if fg == 0.0:
            raise QuadratureError(f"{w.name}: integrand underflows to 0 at the truncation point r={lo}")
        rate = (float(w.fp(lo)) * float(w.g(lo)) + float(w.f(lo)) * float(w.gp(lo))) / fg
        if rate <= 0.0:
            raise QuadratureError(
                f"{w.name}: integrand does not decay at the truncation point r={lo}"
            )
        tail_bound = TWO_PI * l * fg / rate
    w.require(lo)
    w.require(r_hi)

    from scipy.integrate import quad

    val, abserr = quad(
        lambda t: float(w.f(t)) * float(w.g(t)), lo, r_hi,
        epsabs=1e-12, epsrel=1e-12, limit=400,
    )
    value = TWO_PI * l * val
    error = TWO_PI * l * abserr
    if error > 1e-10 * max(abs(value), 1.0):
        raise QuadratureError(
            f"{w.name}: quadrature error estimate {error:.3e} exceeds contract "
            f"for integral over [{lo}, {r_hi}] (value {value:.6e})"
        )
    return VolumeQuadrature(
        value=value, error_estimate=error,
        truncated_at=truncated_at, tail_bound=tail_bound,
    )
