"""Smooth interpolation between two functions meeting to first order.

Given b and c with b(R) = c(R) and b'(R) = c'(R), the construction produces
a C-infinity function a_eps equal to b below R - delta(eps) and to c above
R, with second derivative controlled by those of b and c at R.  On the
collar [R - W, R], W(eps) = 2 eps^(1/3), it is one moment-matched
correction of the blended second derivative:

    a'' = b'' (1 - phi_eps) + c'' phi_eps + lambda_1 psi_1 + lambda_2 psi_2

The plateaus psi_1 and psi_2 lie on either side of R - 2W/3, and lambda
solves int u'' = 0 and int (R - s) u'' = 0 for u = a - b, which closes the
slope and value gaps that the blend leaves at R.  The correction carries a
slope of order eps across the collar, so its amplitude is
O(eps / W) = O(eps^(2/3)); it and W both tend to 0 with eps.  The plateau
moments and antiderivatives come in closed form from the module-wide ramp
tables.  The widths are iota = W and omega = W for a nonzero slope and
value gap (0 for a zero gap), and delta(eps) = max(eps, iota, omega).  The
collar may reach below r = 0: only the blending window [R - eps, R] has to
stay off the tube core, since below R the correction acts on b alone.  When
eps is large for a small R it can outweigh b and drive a warping function
through 0; smoothed_metric rejects such a pair, and an eps whose ramps
collapse below the float64 spacing at R.
Applied to the exponential tube extension against (sinh, cosh) this yields
the smoothed negatively-curved metric family whose Ricci lower bound
constant tends to coth(R) coth(2R).

Numerics: a, a' and a'' share one evaluator, and every integral has one
quadrature level.  The blend is integrated by parts, so that with
D1 = c' - b', D0 = c - b and I_k(s) = int_{R-eps}^s w_k phi_eps' dt for
w = (D1, D1 (t - R), D0)

    u_blend'(s) = D1(s) phi_eps(s) - I0(s)
    u_blend(s)  = D0(s) phi_eps(s) - (s - R) I0(s) + I1(s) - I2(s)

and its cache tabulates closed-form integrands only (phi_eps' is the bump);
phi_eps itself is one lookup in the module-wide ramp table.  Each cache
holds its antiderivatives on a monotone knot grid; panel values and point
evaluations use one fixed Gauss-Legendre rule in extended precision, so
evaluation is seamless across knots (a requirement for the value-only
finite-difference oracle) and costs O(log n) after construction.  The blend
totals int (c'' - b'') phi_eps (t - R)^j, which size the correction, take
one pass of the same panel rule with beta tabulated once at its nodes, and
are checked at build time, like the ramp moments, against that rule on 16
panels of the original integrands (8 panels give its error).  The Ricci
constant is the supremum over a uniform grid, refined by bracket grids of
33 points across the two cells around the running argmax until the bracket
stops shrinking.
The bump function is evaluated in log space with a hard cutoff to 0 below
exp(-700) to avoid denormals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import JunctionError, QuadratureError, WidthError
from .warped import (WarpingPair, _require_positive, _require_sinh, _ricci_grid,
                     hyperbolic_tube, kerckhoff_extension)

__all__ = [
    "bump_alpha",
    "ramp_beta",
    "step_phi",
    "SmoothedJunction",
    "smooth_junction",
    "SmoothedWarpingFamily",
    "smoothed_metric",
]

_GL_NODES_F8, _GL_WEIGHTS_F8 = np.polynomial.legendre.leggauss(24)
_GL_NODES_LD = _GL_NODES_F8.astype(np.longdouble)
_GL_WEIGHTS_LD = _GL_WEIGHTS_F8.astype(np.longdouble)

_EXP_CUTOFF = -700.0

# Finite-difference step hint for table-backed pairs; resolves the collar
# features well below their width while staying above the evaluation noise.
_FD_STEP_HINT = 1e-6

# Collar of the slope and value corrections: W(eps) = 2 eps^(1/3).  The two
# plateaus split it at R - 2W/3, and each of their four ramps is W/20 wide.
_COLLAR_SCALE = 2.0
_COLLAR_POWER = 1.0 / 3.0
_COLLAR_SPLIT = 2.0 / 3.0
_COLLAR_RAMP = 0.05

# Knots of the blend stage's panel rule on the blending window.
_BLEND_KNOTS = 257

# The smoothed pair's domain reaches _MARGIN past R, and its Ricci supremum
# is sampled on _K_GRID_N points of [R - delta - 1, R + _MARGIN].
_MARGIN = 1.0
_K_GRID_N = 4096

# Points of each bracket grid in the refinement of the Ricci supremum: 32
# cells across the two around the running argmax, so the bracket shrinks
# sixteenfold per round.
_BRACKET_POINTS = 33


def bump_alpha(r):
    """C-infinity bump exp(-1/r^2) exp(-1/(1-r)^2) on (0, 1), zero outside."""
    r = np.asarray(r)
    dtype = r.dtype if r.dtype.kind == "f" else np.float64
    out = np.zeros(r.shape, dtype=dtype)
    m = (r > 0) & (r < 1)
    rm = r[m]
    expo = -1.0 / rm**2 - 1.0 / (1.0 - rm) ** 2
    out[m] = np.where(expo > _EXP_CUTOFF, np.exp(expo), 0.0)
    return out if out.shape else out[()]


def _panels(lo: float, hi: float, n_knots: int):
    """The knots of n_knots - 1 equal panels on [lo, hi] in extended
    precision, the Gauss-Legendre nodes of each panel, and its half-width."""
    knots = np.linspace(np.longdouble(lo), np.longdouble(hi), n_knots)
    half = 0.5 * (knots[1:] - knots[:-1])
    mid = 0.5 * (knots[1:] + knots[:-1])
    return knots, mid[:, None] + half[:, None] * _GL_NODES_LD, half


class _Cumulative:
    """Antiderivatives from lo of an integrand with several components,
    memoized on a uniform knot grid.

    ``fun`` maps an array of points to its component values, stacked on a
    new last axis.  The knot values are partial sums of fixed
    Gauss-Legendre panels computed in extended precision, and point
    evaluation adds the same rule on the remainder [knot, x], so crossing a
    knot never introduces a jump beyond extended-precision rounding.  All
    components share one evaluation of fun.
    """

    def __init__(self, fun: Callable, lo: float, hi: float, n_knots: int):
        self.fun = fun
        self._knots_ld, nodes, half = _panels(lo, hi, n_knots)
        self._knots_f8 = self._knots_ld.astype(np.float64)
        panels = half[:, None] * self._rule(nodes, _GL_WEIGHTS_LD)
        self._cum = np.concatenate([np.zeros((1, panels.shape[-1]), np.longdouble),
                                    np.cumsum(panels, axis=0)])

    def _rule(self, t, weights):
        """The rule's weighted sums of fun's components over t's last axis."""
        return np.swapaxes(self.fun(t), -1, -2) @ weights

    def __call__(self, x):
        """The antiderivatives at x, stacked on a new last axis.

        They are 0 at or below lo and the totals at or above hi; the rule
        runs only for x strictly inside.
        """
        x = np.asarray(x)
        ld = x.dtype == np.longdouble
        knots = self._knots_ld if ld else self._knots_f8
        above = x >= knots[-1]
        out = np.where(above[..., None], self._cum[-1], self._cum[0])
        inside = ~above & ~(x <= knots[0])  # NaN stays inside and propagates
        if np.any(inside):
            nodes = _GL_NODES_LD if ld else _GL_NODES_F8
            weights = _GL_WEIGHTS_LD if ld else _GL_WEIGHTS_F8
            xi = x[inside]
            idx = np.clip(np.searchsorted(knots, xi, side="right") - 1, 0, len(knots) - 2)
            a = knots[idx]
            half = 0.5 * (xi - a)
            mid = 0.5 * (xi + a)
            out[inside] = self._cum[idx] + half[..., None] * self._rule(
                mid[..., None] + half[..., None] * nodes, weights)
        return out if ld else out.astype(np.float64, copy=False)


def _moments(fun: Callable, origin: float, count: int) -> Callable:
    """t -> fun(t) (t - origin)^j for j < count, stacked on a new last axis."""
    def stacked(t):
        v, x = fun(t), t - np.asarray(origin, t.dtype)
        return np.stack([v * x**j for j in range(count)], axis=-1)
    return stacked


def _check_moments(label: str, totals, moments: Callable, lo: float, hi: float):
    """Compare totals[j] with the reference integral of the j-th component of
    moments over [lo, hi]: the panel rule on 16 equal panels, with its
    distance from the rule on 8 as error estimate.  Raises QuadratureError on
    a disagreement; returns the references and their errors."""
    refs, coarse = (_Cumulative(moments, lo, hi, n + 1)._cum[-1] for n in (16, 8))
    errs = np.abs(refs - coarse)
    for j, (total, ref, err) in enumerate(zip(totals, refs, errs)):
        drift = float(abs(total - ref))
        if drift > max(5e-12, 10.0 * float(err)):
            raise QuadratureError(
                f"{label}: panel quadrature of moment {j} disagrees with the 16-panel "
                f"reference by {drift:.3e} on [{lo}, {hi}] (reference error {float(err):.1e})")
    return refs, errs


class _RampTables:
    """Module-wide cache: the cumulative moments int_0^x t^j alpha(t) dt,
    j < 3, and beta at the nodes of the blend-total rule."""

    def __init__(self) -> None:
        self.cum = _Cumulative(_moments(bump_alpha, 0.0, 3), 0.0, 1.0, n_knots=1025)
        self.norm = self.cum._cum[-1, 0]
        _check_moments("ramp moments", self.cum._cum[-1], self.cum.fun, 0.0, 1.0)
        # x = (t - R)/eps + 1 maps every blending window onto [0, 1], so the
        # blend totals of all junctions share these nodes and beta there.
        # beta is looked up in float64, a quarter of the extended-precision
        # cost, since the totals are rounded to float64 anyway.
        _, self.blend_x, self.blend_half = _panels(0.0, 1.0, _BLEND_KNOTS)
        self.blend_beta = self.cum(self.blend_x.astype(np.float64))[..., 0] / float(self.norm)


@functools.cache
def _ramp_tables() -> _RampTables:
    return _RampTables()


def _ramp_antiderivative(x, order: int):
    """beta (order 0), or its first (order 1) or second (order 2)
    antiderivative from 0, at any real x.

    With A, T, Q the cumulative moments of alpha / int alpha of order 0, 1, 2
    at min(max(x, 0), 1): beta = A, int beta = x A - T and
    int int beta = (x^2 A - 2 x T + Q) / 2.  Since alpha vanishes outside
    (0, 1) these hold for every x >= 0, and all three vanish for x <= 0.
    """
    t = _ramp_tables()
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    m = t.cum(x) / np.asarray(t.norm, dtype=x.dtype)
    if order == 0:
        return m[..., 0]
    if order == 1:
        return x * m[..., 0] - m[..., 1]
    return 0.5 * (x * x * m[..., 0] - 2.0 * x * m[..., 1] + m[..., 2])


def ramp_beta(x):
    """Normalized ramp beta(x) = int_0^x alpha / int_0^1 alpha.

    Monotone from 0 to 1, identically 0 for x <= 0 and 1 for x >= 1.
    """
    x = np.asarray(x)
    out = np.clip(_ramp_antiderivative(x, 0), 0.0, 1.0)
    return out if out.shape else out[()]


def _ramp_beta_prime(x):
    return bump_alpha(x) / np.asarray(_ramp_tables().norm, dtype=np.asarray(x).dtype)


def step_phi(eps: float, R: float, r):
    """Ramp step beta((r - R)/eps + 1): 0 for r <= R - eps, 1 for r >= R.

    The width eps must be positive and finite.
    """
    _require_positive("step width", eps)
    r = np.asarray(r)
    dt = r.dtype if r.dtype.kind == "f" else np.float64
    return ramp_beta((r - np.asarray(R, dtype=dt)) / np.asarray(eps, dtype=dt) + np.asarray(1.0, dtype=dt))


class SmoothedJunction:
    """The moment-matched interpolant for one junction at one smoothing width.

    ``b`` and ``c`` are (value, first, second) derivative triples of two
    functions that meet to first order at R; b is kept below the collar and
    c above R.  Exposes the interpolant a with its first two derivatives,
    the slope and value gaps that the blend leaves at R, and the widths
    iota, omega and delta.  The evaluators accept scalars or arrays,
    preserve extended-precision inputs, and equal b bit-exactly below the
    collar [R - delta, R] and c to rounding above it.
    """

    def __init__(self, b: tuple[Callable, ...], c: tuple[Callable, ...], R: float, eps: float,
                 name: str = "junction"):
        _require_positive("smoothing width", eps)
        self.b, self.c, self.name = b, c, name
        self.eps = float(eps)
        self.R = R = float(R)
        b0, b1, c0, c1 = (float(side[k](R)) for side in (b, c) for k in (0, 1))
        # relative where |c|, |c'| > 1: from R = 10 on, one float64 rounding
        # of cosh R exceeds an absolute 1e-12
        v, d = abs(b0 - c0), abs(b1 - c1)
        if v > 1e-12 * max(1.0, abs(c0)) or d > 1e-12 * max(1.0, abs(c1)):
            raise JunctionError(f"{name}: b and c must match to first order at R={R}: "
                                f"|b-c|={v:.3e}, |b'-c'|={d:.3e}")

        self._blend = _Cumulative(self._blend_integrand, R - eps, R, _BLEND_KNOTS)
        self._totals = self._blend_totals()
        _check_moments(f"{name}: blend stage", self._totals,
                       _moments(lambda t: self._blend_stage(t, 2), R, 2), R - eps, R)
        slope_total, value_total = self._totals
        self.slope_gap = c1 - (b1 + slope_total)
        self.value_gap = c0 - (b0 - value_total)
        width = _COLLAR_SCALE * self.eps ** _COLLAR_POWER
        self.iota = width if self.slope_gap != 0.0 else 0.0
        self.omega = width if self.value_gap != 0.0 else 0.0
        self.delta = max(self.eps, self.iota, self.omega)

        # ramp starts: rise and fall of the plateau on [R - W, cut], then of
        # the one on [cut, R]
        ramp = _COLLAR_RAMP * width
        cut = R - _COLLAR_SPLIT * width
        self._ramp_w = ramp
        self._ramp_starts = np.array([R - width, cut - ramp, cut, R - ramp])
        if not np.all(np.diff(self._ramp_starts, append=R) > 0.0):
            raise WidthError(f"{name}: collar width W={width:.3g} (eps={eps:g}) is below "
                             f"the float64 resolution at R={R:g}: the plateau ramps collapse")
        # the slope gap times the unit correction of mass 1 and zero first
        # moment about R, plus the value gap times the reverse
        R_ld = np.longdouble(R)
        (m00, m01), (m10, m11) = self._plateaus(R_ld, 1), self._plateaus(R_ld, 2)
        det = m00 * m11 - m01 * m10
        self._coef = (np.longdouble(self.slope_gap) * (np.array([m11, -m10]) / det)
                      + np.longdouble(self.value_gap) * (np.array([-m01, m00]) / det))
        # rounding left by the moment match, carried above R so that a stays
        # seamless at R for the value-only oracle
        self._res0, self._res1 = (b[k](R_ld) + self._collar(R_ld, k) - c[k](R_ld) for k in (0, 1))

    def _gap(self, t, order: int):
        """c - b, or the difference of their first or second derivatives, at t."""
        return self.c[order](t) - self.b[order](t)

    def _blend_stage(self, s, order: int):
        """(c'' - b'') phi_eps (order 2), or its integral once (1) or twice
        (0) from R - eps by parts (see the module docstring).  b and c are
        evaluated only where phi_eps > 0, so that a c undefined below the
        blending window never meets 0 * nan."""
        s = np.asarray(s)
        phi = np.asarray(step_phi(self.eps, self.R, s))
        out = np.zeros_like(phi)
        inside = phi > 0.0
        if np.any(inside):
            t, p = s[inside], phi[inside]
            if order == 2:
                out[inside] = self._gap(t, 2) * p
            elif order == 1:
                out[inside] = self._gap(t, 1) * p - self._blend(t)[..., 0]
            else:
                i = self._blend(t)
                out[inside] = (self._gap(t, 0) * p - (t - np.asarray(self.R, t.dtype)) * i[..., 0]
                               + i[..., 1] - i[..., 2])
        return out

    def _blend_totals(self) -> tuple[float, float]:
        """int (c'' - b'') phi_eps (t - R)^j over [R - eps, R] for j = 0, 1.

        One pass of the panel rule, with beta read from the ramp tables at
        its nodes.  The by-parts cache is not used here: its boundary terms
        carry the rounding by which the inputs b', b fail to be exact
        antiderivatives of b'', of order 1e-16 |b''(R)| eps, which exceeds
        the check tolerance once sinh(R) is large (R above about 18 for the
        tube pair).  The seam residuals at R absorb that difference.
        """
        tab = _ramp_tables()
        eps = np.longdouble(self.eps)
        x = eps * (tab.blend_x - 1)
        t = np.longdouble(self.R) + x
        h = self._gap(t, 2) * tab.blend_beta
        return tuple(float(eps * (tab.blend_half @ (h * x**j @ _GL_WEIGHTS_LD))) for j in (0, 1))

    def _blend_integrand(self, t):
        """w_k phi_eps' for w = (D1, D1 (t - R), D0), D1 = c' - b' and
        D0 = c - b, stacked on a new last axis: the blend cache's integrand."""
        dt = t.dtype
        x = t - np.asarray(self.R, dt)
        eps = np.asarray(self.eps, dt)
        dphi = _ramp_beta_prime(x / eps + np.asarray(1.0, dt)) / eps
        d1 = self._gap(t, 1) * dphi
        return np.stack([d1, d1 * x, self._gap(t, 0) * dphi], axis=-1)

    def _plateaus(self, s, order: int):
        """The two collar plateaus (order 0) or their first or second
        antiderivatives, stacked on a new last axis."""
        s = np.asarray(s)
        dt = s.dtype
        w = np.asarray(self._ramp_w, dtype=dt)
        g = _ramp_antiderivative((s[..., None] - self._ramp_starts.astype(dt)) / w, order) * w**order
        return np.stack([g[..., 0] - g[..., 1], g[..., 2] - g[..., 3]], axis=-1)

    def _collar(self, s, order: int):
        """a - b, or its first or second derivative, on the collar: the blend
        stage plus the plateau correction."""
        return self._blend_stage(s, order) + self._plateaus(s, 2 - order) @ self._coef.astype(s.dtype)

    def _eval(self, r, order: int):
        """a's derivative of the given order at r: b's below R - delta, b's
        plus the collar's on [R - delta, R], and c's plus the seam residuals
        above R."""
        r = np.asarray(r)
        if r.dtype.kind != "f":
            r = r.astype(np.float64)
        dt = r.dtype
        R = np.asarray(self.R, dtype=dt)
        above = r > R
        # b and c each only on their own side: c may overflow far below R
        ru = r[above]
        upper = self.c[order](ru)
        if order == 0:
            upper = upper + self._res0.astype(dt) + self._res1.astype(dt) * (ru - R)
        elif order == 1:
            upper = upper + self._res1.astype(dt)
        lower = self.b[order](r[~above])
        out = np.empty(r.shape, np.result_type(upper, lower))
        out[above], out[~above] = upper, lower
        inside = (r >= np.asarray(self.R - self.delta, dtype=dt)) & (r <= R)
        if np.any(inside):
            out[inside] += self._collar(r[inside], order)
        return out if out.shape else out[()]

    def a(self, r):
        """The interpolant: b below R - delta, c above R."""
        return self._eval(r, 0)

    def a_prime(self, r):
        return self._eval(r, 1)

    def a_second(self, r):
        return self._eval(r, 2)


def smooth_junction(b: tuple[Callable, ...], c: tuple[Callable, ...], R: float, eps: float,
                    name: str = "junction") -> SmoothedJunction:
    """Build the moment-matched interpolant from the derivative triple ``b``
    to ``c`` at R, at smoothing width ``eps``."""
    return SmoothedJunction(b, c, R, eps, name)


@dataclass(frozen=True)
class SmoothedWarpingFamily:
    """One member of the smoothed metric family at tube radius R.

    ``pair`` packages (f_eps, g_eps) as a warping pair on
    (-inf, R + margin]; ``k_eps`` is the sampled Ricci lower bound constant,
    which tends to coth(R) coth(2R) as eps -> 0.
    """

    R: float
    eps: float
    margin: float
    junction_f: SmoothedJunction
    junction_g: SmoothedJunction
    pair: WarpingPair
    delta: float
    k_eps: float


def _ricci_sup_half(pair: WarpingPair, lo: float, hi: float) -> float:
    """Grid supremum of max(-Ric)/2, refined on bracket grids at the peak.

    The refinement guards against the uniform grid aliasing the narrow
    collar features where the supremum lives.  Each round samples the two
    cells around the running argmax with _BRACKET_POINTS points and keeps
    the best value seen; it stops once the bracket no longer shrinks.  A
    warping function that is not positive on a grid is rejected: the
    collar corrections outweighed b there, which happens when eps is large
    for a small R.
    """
    rs = np.linspace(lo, hi, _K_GRID_N)
    best, width = -math.inf, math.inf
    while True:
        vals = _ricci_grid(pair, rs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        b_lo, b_hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
        if not b_hi - b_lo < width:
            return best
        width = b_hi - b_lo
        rs = np.linspace(b_lo, b_hi, _BRACKET_POINTS)


def smoothed_metric(R: float, eps: float) -> SmoothedWarpingFamily:
    """Smooth the exponential extension into (sinh, cosh) at radius R.

    Applies the moment-matched construction to both warping functions and
    packages the result as a warping pair on (-inf, R + margin], together
    with its sampled Ricci lower bound constant.
    """
    _require_positive("tube radius", R)
    _require_positive("smoothing width", eps)
    if eps >= R:
        raise WidthError(
            f"blending window [R-eps, R] reaches the tube core r = 0 (R={R:g}, eps={eps:g}); "
            f"use eps < R"
        )
    ext, tube = kerckhoff_extension(R), hyperbolic_tube()
    # f g = sinh(2r)/2 on the Ricci grid up to R + margin
    _require_sinh(2.0 * (R + _MARGIN), f"tube radius {R:g}")
    jf = smooth_junction((ext.f, ext.fp, ext.fpp), (tube.f, tube.fp, tube.fpp), R, eps,
                         f"f-junction(R={R:g})")
    jg = smooth_junction((ext.g, ext.gp, ext.gpp), (tube.g, tube.gp, tube.gpp), R, eps,
                         f"g-junction(R={R:g})")
    delta = max(jf.delta, jg.delta)
    pair = WarpingPair(
        f=jf.a, fp=jf.a_prime, fpp=jf.a_second,
        g=jg.a, gp=jg.a_prime, gpp=jg.a_second,
        domain=(-math.inf, R + _MARGIN),
        fd_step=_FD_STEP_HINT,
        name=f"smoothed(R={R:g}, eps={eps:g})",
    )
    k = _ricci_sup_half(pair, R - delta - 1.0, R + _MARGIN)
    return SmoothedWarpingFamily(
        R=R, eps=eps, margin=_MARGIN,
        junction_f=jf, junction_g=jg,
        pair=pair, delta=delta, k_eps=k,
    )
