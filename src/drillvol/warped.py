"""Rotationally symmetric tube metrics ``dr^2 + f(r)^2 dtheta^2 + g(r)^2 dlambda^2``.

The geometry of such a metric is controlled entirely by the radial warping
pair ``(f, g)``: the three coordinate 2-planes realize the extreme sectional
curvatures

    K_theta_lambda = -f'g'/(fg),   K_r_theta = -f''/f,   K_r_lambda = -g''/g,

and the Ricci tensor is diagonal in the orthonormal frame, with eigenvalues
given by pairwise sums of those curvatures.  This module provides the two
built-in pairs (the constant-curvature tube ``(sinh, cosh)`` and its
exponential extension past the tube boundary), the closed-form curvature
operations, the closed-form gap between each tube function's second
derivative and its extension's (``_TubeGap``, which the junctions of
:mod:`drillvol.smoothing` read), and an adaptive-quadrature volume integral
used as an oracle for the closed-form tube volumes of
:mod:`drillvol.bounds`.  That integral is a numpy port of QUADPACK's QAGS
(the 21-point Gauss-Kronrod rule ``dqk21`` under ``dqagse``'s bisection)
without its epsilon-algorithm extrapolation; on the built-in pairs it
returns scipy's ``quad`` values bit for bit.

All warping callables must accept numpy arrays as well as scalars and should
be numpy-ufunc based so that evaluation preserves extended-precision inputs
(the finite-difference validation in :mod:`drillvol.oracle` relies on this).

Code that reads several callables of a pair at the same points reads them
through one ``_Values``: the curvature and Ricci grids, the volume
quadrature, the oracle's components and its sampling window.  Callables
that share a base (``_Shared``) then evaluate it once: the extension's
triples scale one exponential each, and the smoothed pair's six callables
pick from one evaluator pass over both junctions.  A callable called on
its own, or a plain closure such as a call-counting wrapper, is read one
call at a time, with the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import TWO_PI, _require_nonnegative, _require_positive, _require_sinh, coth
from .errors import DomainError, ParameterError, QuadratureError, SingularAxisError

__all__ = [
    "WarpingPair",
    "SectionalCurvatures",
    "RicciDiagonal",
    "VolumeQuadrature",
    "sectional_curvatures",
    "ricci_diagonal",
    "ricci_lower_bound_constant",
    "hyperbolic_tube",
    "kerckhoff_extension",
    "warped_volume_quadrature",
]

RadialFunc = Callable[[float], float]


def _require_finite_radius(name: str, r: float) -> None:
    """Reject a radius that is NaN or infinite, for the pair or metric ``name``."""
    if not np.isfinite(r):
        raise DomainError(f"{name}: radius must be finite, got {r!r}")


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
    endpoint may be ``-inf``.  A finite lower endpoint is a smooth axis:
    ``f`` vanishes there with f' = 1, and ``axis_curvature`` supplies the
    analytic curvature limit at the axis.

    ``fd_step`` is the step for value-only finite differencing of this
    pair; the smoothed pair sets it to resolve its narrow collar features,
    and the exponential extension shrinks it with its rate coth R.
    """

    f: RadialFunc
    fp: RadialFunc
    fpp: RadialFunc
    g: RadialFunc
    gp: RadialFunc
    gpp: RadialFunc
    domain: tuple[float, float] = (-math.inf, math.inf)
    axis_curvature: Optional[SectionalCurvatures] = None
    fd_step: float = 1e-4
    name: str = "pair"

    def require(self, r: float) -> None:
        lo, hi = self.domain
        _require_finite_radius(self.name, r)
        if not lo <= r <= hi:
            raise DomainError(f"{self.name}: radius {r} outside domain [{lo}, {hi}]")


def sectional_curvatures(w: WarpingPair, r: float) -> SectionalCurvatures:
    """Closed-form curvatures of the coordinate planes of ``w`` at radius ``r``.

    At a smooth axis (f = 0) the analytic limit is returned for pairs that
    declare one; where f or g is not positive otherwise this raises
    :class:`SingularAxisError`.
    """
    w.require(r)
    try:
        return SectionalCurvatures(*(float(k) for k in _sectional_grid(w, np.asarray(r, float))))
    except SingularAxisError:
        if w.axis_curvature is not None and (float(w.f(r)) == 0.0 or float(w.g(r)) == 0.0):
            return w.axis_curvature
        raise


def _sectional_grid(w: WarpingPair, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_rtheta, K_rlambda and K_thetalambda of ``w`` at each radius of
    ``rs``, from one reading of the six callables there (a pair whose
    callables share a base evaluates it once); f and g must be positive
    there."""
    at = _Values(rs)
    f, fp, fpp, g, gp, gpp = (np.asarray(at(fn), float)
                              for fn in (w.f, w.fp, w.fpp, w.g, w.gp, w.gpp))
    if not ((f > 0.0).all() and (g > 0.0).all()):
        raise SingularAxisError(f"{w.name}: a warping function is not positive inside "
                                f"[{np.min(rs):.6g}, {np.max(rs):.6g}]")
    return -fpp / f, -gpp / g, -fp * gp / (f * g)


def ricci_diagonal(w: WarpingPair, r: float) -> RicciDiagonal:
    """Diagonal Ricci eigenvalues, pairwise sums of the sectional curvatures."""
    return RicciDiagonal(*_ricci_sums(*sectional_curvatures(w, r).as_tuple()))


def _ricci_sums(krt, krl, ktl):
    """The Ricci eigenvalues (ric_1, ric_2, ric_3) from the sectional
    curvatures K_rtheta, K_rlambda and K_thetalambda, scalars or arrays."""
    return krt + krl, krt + ktl, krl + ktl


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
    ric_1, ric_2, ric_3 = _ricci_sums(*_sectional_grid(w, rs))
    return -0.5 * np.minimum(np.minimum(ric_1, ric_2), ric_3)


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
        axis_curvature=SectionalCurvatures(-1.0, -1.0, -1.0),
        name="hyperbolic_tube",
    )


class _Shared:
    """r -> pick(base(r)): one of several callables whose values all come
    from one evaluation of a shared base, such as the members of a
    derivative triple that scale one transcendental.  _Values evaluates the
    base once for all of them; called on its own, a member runs ``alone``
    if it has one, which may compute only what this member needs."""

    __slots__ = ("base", "pick", "alone")

    def __init__(self, base: RadialFunc, pick: Callable, alone: Optional[RadialFunc] = None):
        self.base, self.pick, self.alone = base, pick, alone

    def __call__(self, r):
        return self.pick(self.base(r)) if self.alone is None else self.alone(r)


class _Values:
    """Callables' values at the fixed points x, each computed once: the one
    way that code reads several callables of a pair at the same points.  A
    _Shared callable picks its values from its base's, so callables that
    share a base evaluate it once."""

    def __init__(self, x):
        self.x, self._memo = x, {}

    def __call__(self, fn):
        if isinstance(fn, _Shared):
            return fn.pick(self(fn.base))
        if fn not in self._memo:
            self._memo[fn] = fn(self.x)
        return self._memo[fn]


class _TubeGap:
    """The tube's second derivative less its exponential extension's at R,
    as a function of x = r - R, without cancellation.

    For f it is sinh(R + x) - sinh R coth^2 R e^(x coth R), for g
    cosh(R + x) - cosh R tanh^2 R e^(x tanh R).  With A = sinh R and
    sign = 1 for f, A = cosh R and sign = -1 for g, the rate is 1 + e with
    e = sign e^(-R) / A (coth R - 1 = 2 / expm1(2R), or
    tanh R - 1 = -2 / (e^(2R) + 1)), and A (1 + e)^2 = A + sign / A =: k.
    Since the tube's function is A e^x + sign e^(-R) sinh x, the gap is

        sign e^(-R) sinh x - A E M - sign E (1 + M) / A
            = h (E - 1/E) - E (k M + sign / A),   h = sign e^(-R) / 2,

    with E = e^x and M = expm1(e x).  At large R each term is O(e^(-R)),
    so nothing cancels, where subtracting the sides, each about sinh R with
    one rounding of its constants, leaves only noise once sinh R exceeds
    about 1e8.  The constants are those of the exact extension, in extended
    precision (and then in the offsets' dtype): the extension's callables
    carry float64 roundings of sinh R and coth R, a relative 1e-16 away.
    Each junction of drillvol.smoothing holds one, for its side, and it is
    the junction's only read of c'' - b'': at the offsets of the window
    rules' nodes and of the collar's points, each held by one _Values, so
    that the f and the g gap at the same offsets share one e^x.
    """

    def __init__(self, R: float, sign: int):
        R_ld, two = np.longdouble(R), np.longdouble(2)
        scale = np.sinh(R_ld) if sign > 0 else np.cosh(R_ld)
        excess = two / np.expm1(two * R_ld) if sign > 0 else -two / (np.exp(two * R_ld) + 1)
        self._ld = (sign * np.exp(-R_ld) / two, sign / scale, scale + sign / scale, excess)
        self._casts: dict = {}

    def __call__(self, x: _Values):
        """The gap at the offsets that x holds, in their dtype: ``x.x``, and
        E = e^x as ``x(np.exp)``, which the other function's gap at the same
        offsets shares."""
        dt = x.x.dtype
        consts = self._casts.get(dt)
        if consts is None:
            consts = self._casts[dt] = tuple(v.astype(dt) for v in self._ld)
        h, inverse, k, excess = consts
        e = x(np.exp)
        return h * (e - 1 / e) - e * (k * np.expm1(excess * x.x) + inverse)


def kerckhoff_extension(R: float) -> WarpingPair:
    """Exponential continuation of the tube pair over (-inf, R].

    f(r) = sinh(R) exp(coth(R)(r - R)) and g(r) = cosh(R) exp(tanh(R)(r - R))
    match (sinh, cosh) in value and first derivative at r = R, stay positive
    together with their first two derivatives, and decay to zero as
    r -> -inf.  The resulting metric has constant sectional curvatures
    (-coth(R)^2, -tanh(R)^2, -1) on the coordinate planes.
    """
    _require_positive("extension radius", R)
    _require_sinh(R, f"extension radius {R:g}")
    tnh = math.tanh(R)

    def exponential(scale: float, rate: float):
        """scale exp(rate (r - R)) and its first two derivatives, which
        share one exponential."""
        def base(r):
            return np.exp(rate * (np.asarray(r) - R))
        return tuple(_Shared(base, lambda v, coef=coef: coef * v)
                     for coef in (scale, scale * rate, scale * rate * rate))

    f, fp, fpp = exponential(math.sinh(R), coth(R))
    g, gp, gpp = exponential(math.cosh(R), tnh)

    return WarpingPair(
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp,
        domain=(-math.inf, R),
        # the fastest rate is coth R: keep h coth R near 1e-3 as R -> 0
        fd_step=min(1e-4, 1e-3 * tnh),
        name=f"kerckhoff_extension(R={R:g})",
    )


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


# QUADPACK's dqk21 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# 1983): the 21-point Kronrod rule on [-1, 1], nodes +-_XGK and 0, with the
# 10-point Gauss rule on the nodes +-_XGK[1::2].  QUADPACK adds the terms in
# the order _KRONROD_ORDER (Gauss nodes first), after the center term.
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_KRONROD_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_QUAD_TOL = 1e-12
_QUAD_LIMIT = 400


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` added left to right, as QUADPACK's loops add
    them; ``np.sum`` adds pairwise and can differ in the last bit."""
    return np.add.accumulate(terms, axis=1)[:, -1]


def _dqk21(fg, a: np.ndarray, b: np.ndarray) -> tuple[list, list, list, list]:
    """QUADPACK's dqk21 on each interval [a[i], b[i]], with ``fg`` called
    once on all their nodes: the Kronrod value, its error estimate, the
    integral of |fg| and of |fg - mean| (``result``, ``abserr``,
    ``resabs``, ``resasc``)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK
    nodes = np.concatenate([centr[:, None] - absc, centr[:, None] + absc, centr[:, None]], axis=1)
    # a constant warping function may return a scalar for an array
    y = np.broadcast_to(fg(nodes.ravel()), nodes.size).reshape(nodes.shape)
    fv1, fv2, fc = y[:, :10], y[:, 10:20], y[:, 20:]
    fsum = (fv1 + fv2)[:, _KRONROD_ORDER]
    wgk = _WGK[_KRONROD_ORDER]
    resg = _sum_in_order(_WG * fsum[:, :5])
    resk = _sum_in_order(np.concatenate([_WGK_CENTER * fc, wgk * fsum], axis=1))
    resabs = _sum_in_order(np.concatenate(
        [np.abs(_WGK_CENTER * fc), wgk * (np.abs(fv1) + np.abs(fv2))[:, _KRONROD_ORDER]], axis=1))
    reskh = (resk * 0.5)[:, None]
    resasc = _sum_in_order(np.concatenate(
        [_WGK_CENTER * np.abs(fc - reskh), _WGK * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))],
        axis=1))
    dhlgth = np.abs(hlgth)
    resabs, resasc = (resabs * dhlgth).tolist(), (resasc * dhlgth).tolist()
    abserr = np.abs((resk - resg) * hlgth).tolist()
    # The heuristic runs on floats: numpy's vectorized power can differ from
    # libm's pow in the last bit.  Clamping before the power equals QUADPACK's
    # min(1, x**1.5) bit for bit and cannot overflow where 200|K - G| does.
    for i, (err, asc, sabs) in enumerate(zip(abserr, resasc, resabs)):
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, 200.0 * err / asc) ** 1.5
        if sabs > _TINY / (50.0 * _EPS):
            err = max(50.0 * _EPS * sabs, err)
        abserr[i] = err
    return (resk * hlgth).tolist(), abserr, resabs, resasc


def _qags(fg, a: float, b: float, name: str) -> tuple[float, float]:
    """Integral of ``fg`` over [a, b] and its error estimate, by QUADPACK's
    dqagse without the epsilon-algorithm extrapolation.

    After dqagse's first-step test, the interval with the largest error is
    bisected until the summed error is at most 1e-12, absolute or relative;
    the half with the larger error takes the parent's place in the list.
    Raises :class:`QuadratureError` after _QUAD_LIMIT intervals.
    """
    (result,), (abserr,), (defabs,), (resasc,) = _dqk21(fg, np.array([a]), np.array([b]))
    errbnd = max(_QUAD_TOL, _QUAD_TOL * abs(result))
    # dqagse returns at once when converged or when the error is already at
    # the rounding level of the integral of |fg| (its roundoff flag)
    roundoff = errbnd < abserr <= 100.0 * _EPS * defabs
    if roundoff or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr

    intervals = [(a, b, result, abserr)]
    area, errsum = result, abserr
    while True:
        if len(intervals) == _QUAD_LIMIT:
            raise QuadratureError(
                f"{name}: quadrature did not converge on {_QUAD_LIMIT} intervals "
                f"over [{a}, {b}] (error estimate {errsum:.3e})"
            )
        k = max(range(len(intervals)), key=lambda i: intervals[i][3])
        a1, b2, area_k, err_k = intervals[k]
        b1 = 0.5 * (a1 + b2)
        (r1, r2), (e1, e2), _, _ = _dqk21(fg, np.array([a1, b1]), np.array([b1, b2]))
        errsum = errsum + (e1 + e2) - err_k
        area = area + (r1 + r2) - area_k
        left, right = (a1, b1, r1, e1), (b1, b2, r2, e2)
        intervals[k], new = (right, left) if e2 > e1 else (left, right)
        intervals.append(new)
        if errsum <= max(_QUAD_TOL, _QUAD_TOL * abs(area)):
            break
    # left to right as QUADPACK does; sum() compensates from Python 3.12
    total = 0.0
    for _, _, value, _ in intervals:
        total += value
    return total, errsum


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
    logarithmic decay rate of f g at the cut.  The integrator is QUADPACK's
    QAGS without its epsilon-algorithm extrapolation: the 21-point
    Gauss-Kronrod rule ``dqk21`` under ``dqagse``'s bisection, to absolute
    and relative tolerance 1e-12 on at most 400 intervals, with f and g
    evaluated on arrays of nodes.  Raises :class:`QuadratureError` if it does
    not converge, or cannot certify the result to one part in 1e10.
    """
    _require_nonnegative("length", l)
    if r_lo > r_hi:
        raise ParameterError(f"inverted interval [{r_lo}, {r_hi}]")
    if r_lo == r_hi:
        return VolumeQuadrature(value=0.0, error_estimate=0.0)

    truncated_at = None
    tail_bound = 0.0
    lo = r_lo
    if math.isinf(r_lo):
        _require_positive("truncation depth", truncation_depth)
        if not math.isinf(w.domain[0]):
            raise DomainError(f"{w.name}: domain is not unbounded below")
        lo = r_hi - truncation_depth
        truncated_at = lo
        at = _Values(lo)
        f, fp, g, gp = (float(at(fn)) for fn in (w.f, w.fp, w.g, w.gp))
        fg = f * g
        if fg == 0.0:
            raise QuadratureError(f"{w.name}: integrand underflows to 0 at the truncation point r={lo}")
        rate = (fp * g + f * gp) / fg
        if rate <= 0.0:
            raise QuadratureError(
                f"{w.name}: integrand does not decay at the truncation point r={lo}"
            )
        tail_bound = TWO_PI * l * fg / rate
    w.require(lo)
    w.require(r_hi)

    def integrand(t):
        at = _Values(t)
        return np.asarray(at(w.f), float) * np.asarray(at(w.g), float)

    val, abserr = _qags(integrand, lo, r_hi, w.name)
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
