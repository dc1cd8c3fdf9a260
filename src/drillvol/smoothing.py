"""Smooth interpolation between two functions meeting to first order.

Given b and c with b(R) = c(R) and b'(R) = c'(R), the staged construction
produces a C-infinity function a_eps equal to b below R - delta(eps) and to
c above R, with second derivative controlled by those of b and c at R:

    1. blend the second derivatives:  eta' = b'' (1 - phi_eps) + c'' phi_eps
    2. integrate once from R - eps:   eta  = b'(R - eps) + int eta'
    3. repair the slope gap c'(R) - eta(R) with a flat correction of that
       mass and zero first moment about R, on the collar [R - W, R]
    4. integrate again from R - W:    kappa = b(R - W) + int kappa'
    5. repair the value gap c(R) - kappa(R) with a flat correction of zero
       mass and that first moment about R, on the same collar

The collar width is W(eps) = 2 eps^(1/3).  Both corrections are
combinations of the same two plateaus, one on each side of R - 2W/3, so
a'' = eta' + lambda_1 psi_1 + lambda_2 psi_2 with lambda from the 2x2 solve
of int u'' = 0 and int (R - s) u'' = 0 for u = a - b.  The corrections
carry a slope of order eps across the collar, so their amplitude is
O(eps / W) = O(eps^(2/3)); it and W both tend to 0 with eps.  The plateau
moments and antiderivatives come in closed form from the module-wide ramp
tables.  The stage widths are iota = W and omega = W for a nonzero slope and
value gap (0 for a zero gap), and delta(eps) = max(eps, iota, omega).  The
collar may reach below r = 0: only the blending window [R - eps, R] has to
stay off the tube core, since below R the corrections act on b alone.  When
eps is large for a small R they can outweigh b and drive a warping function
through 0; smoothed_metric rejects such a pair.
Applied to the exponential tube extension against (sinh, cosh) this yields
the smoothed negatively-curved metric family whose Ricci lower bound
constant tends to coth(R) coth(2R).

Numerics: every stage integral has one quadrature level.  The blend stage
is integrated by parts, so that with D1 = c' - b', D0 = c - b and
I_k(s) = int_{R-eps}^s w_k phi_eps' dt for w = (D1, D1 (t - R), D0)

    u_blend'(s) = D1(s) phi_eps(s) - I0(s)
    u_blend(s)  = D0(s) phi_eps(s) - (s - R) I0(s) + I1(s) - I2(s)

and its cache tabulates closed-form integrands only (phi_eps' is the bump);
phi_eps itself is one lookup in the module-wide ramp table.  Each cache
holds its antiderivatives on a monotone knot grid; panel values and point
evaluations use one fixed Gauss-Legendre rule in extended precision, so
evaluation is seamless across knots (a requirement for the value-only
finite-difference oracle) and costs O(log n) after construction.  The blend
totals int (c'' - b'') phi_eps (t - R)^j, which size the corrections, take
one pass of the same panel rule with beta tabulated once at its nodes.  At
build time the ramp moments and the blend totals are verified against
adaptive quadrature of the original integrands.  The Ricci constant is the
supremum over a uniform grid, refined by bracket grids of 33 points across
the two cells around the running argmax until the bracket stops shrinking.
The bump function is evaluated in log space with a hard cutoff to 0 below
exp(-700) to avoid denormals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import JunctionError, ParameterError, QuadratureError, SingularAxisError, WidthError
from .warped import WarpingPair, _half_neg_ricci, kerckhoff_extension

__all__ = [
    "bump_alpha",
    "ramp_beta",
    "step_phi",
    "JunctionInput",
    "SmoothedJunction",
    "smooth_junction",
    "second_derivative_envelope",
    "SmoothedWarpingFamily",
    "smoothed_metric",
    "k_eps",
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


def _check_moments(label: str, totals, fun: Callable, lo: float, hi: float, origin: float) -> None:
    """Compare totals[j] with adaptive quadrature of fun(t) (t - origin)^j
    on [lo, hi]; raise QuadratureError on a disagreement.

    The moments' rules mostly sample the same points, so fun's values are
    memoized across them.
    """
    from scipy.integrate import quad

    values: dict[float, float] = {}

    def scalar(t: float) -> float:
        if t not in values:
            values[t] = float(fun(t))
        return values[t]

    for j, total in enumerate(totals):
        ref, ref_err = quad(lambda t: scalar(t) * (t - origin) ** j, lo, hi,
                            epsabs=1e-13, epsrel=1e-12, limit=400)
        drift = abs(total - ref)
        if drift > max(5e-12, 10.0 * ref_err):
            raise QuadratureError(
                f"{label}: panel quadrature of moment {j} disagrees with adaptive "
                f"reference by {drift:.3e} on [{lo}, {hi}] (reference error {ref_err:.1e})"
            )


def _alpha_moments(t):
    """alpha(t) t^j for j = 0, 1, 2, stacked on a new last axis."""
    a = bump_alpha(t)
    return np.stack([a, a * t, a * (t * t)], axis=-1)


class _RampTables:
    """Module-wide cache: the cumulative moments int_0^x t^j alpha(t) dt,
    j < 3, and beta at the nodes of the blend-total rule."""

    def __init__(self) -> None:
        self.cum = _Cumulative(_alpha_moments, 0.0, 1.0, n_knots=1025)
        self.norm = self.cum._cum[-1, 0]
        _check_moments("ramp moments", [float(v) for v in self.cum._cum[-1]], bump_alpha,
                       0.0, 1.0, origin=0.0)
        # x = (t - R)/eps + 1 maps every blending window onto [0, 1], so the
        # blend totals of all junctions share these nodes and beta there.
        # beta is looked up in float64, a quarter of the extended-precision
        # cost, since the totals are rounded to float64 anyway.
        _, self.blend_x, self.blend_half = _panels(0.0, 1.0, _BLEND_KNOTS)
        self.blend_beta = self.cum(self.blend_x.astype(np.float64))[..., 0] / float(self.norm)


_tables: Optional[_RampTables] = None


def _ramp_tables() -> _RampTables:
    global _tables
    if _tables is None:
        _tables = _RampTables()
    return _tables


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

    eps = 0 gives the identically-zero step.
    """
    if eps < 0.0:
        raise ParameterError(f"step width must be nonnegative, got {eps}")
    r = np.asarray(r)
    dt = r.dtype if r.dtype.kind == "f" else np.float64
    if eps == 0.0:
        out = np.zeros(r.shape, dtype=dt)
        return out if out.shape else out[()]
    return ramp_beta((r - np.asarray(R, dtype=dt)) / np.asarray(eps, dtype=dt) + np.asarray(1.0, dtype=dt))


def _check_width(eps: float) -> None:
    if not (eps > 0.0) or not np.isfinite(eps):
        raise ParameterError(f"smoothing width must be positive and finite, got {eps}")


@dataclass(frozen=True)
class JunctionInput:
    """Two functions b, c with derivatives, meeting to first order at R."""

    b: Callable
    bp: Callable
    bpp: Callable
    c: Callable
    cp: Callable
    cpp: Callable
    R: float
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = "junction"

    def validate(self) -> None:
        v = abs(float(self.b(self.R)) - float(self.c(self.R)))
        d = abs(float(self.bp(self.R)) - float(self.cp(self.R)))
        if v > 1e-12 or d > 1e-12:
            raise JunctionError(
                f"{self.name}: b and c must match to first order at R={self.R}: "
                f"|b-c|={v:.3e}, |b'-c'|={d:.3e}"
            )


class SmoothedJunction:
    """The staged interpolant for one junction at one smoothing width.

    Exposes the stage functions (eta_prime, eta, kappa_prime, kappa) and the
    final interpolant a with its first two derivatives.  All evaluators
    accept scalars or arrays, preserve extended-precision inputs, and equal
    b / c bit-exactly below the collar [R - delta, R] and to rounding above.
    """

    def __init__(self, inp: JunctionInput, eps: float):
        _check_width(eps)
        inp.validate()
        self.input = inp
        self.eps = float(eps)
        self.R = float(inp.R)
        R = self.R
        lo_dom = inp.domain[0]
        if R - eps < lo_dom:
            raise WidthError(
                f"{inp.name}: blending window [R-eps, R] leaves the domain (R-eps={R - eps})"
            )

        self._blend = _Cumulative(self._blend_integrand, R - eps, R, _BLEND_KNOTS)
        self._totals = self._blend_totals()
        _check_moments(f"{inp.name}: blend stage", self._totals, self._second_blend_delta,
                       R - eps, R, origin=R)
        slope_total, value_total = self._totals
        self.eta_R = float(inp.bp(R)) + slope_total
        self.slope_gap = float(inp.cp(R)) - self.eta_R
        self.kappa_R = float(inp.b(R)) - value_total
        self.value_gap = float(inp.c(R)) - self.kappa_R
        width = _COLLAR_SCALE * self.eps ** _COLLAR_POWER
        self.iota = width if self.slope_gap != 0.0 else 0.0
        self.omega = width if self.value_gap != 0.0 else 0.0
        self.delta = max(self.eps, self.iota, self.omega)
        if R - self.delta < lo_dom:
            raise WidthError(
                f"{inp.name}: collar width delta={self.delta:.6g} leaves the domain "
                f"(R-delta={R - self.delta:.6g} < {lo_dom:.6g})"
            )

        # ramp starts: rise and fall of the plateau on [R - W, cut], then of
        # the one on [cut, R]
        ramp = _COLLAR_RAMP * width
        cut = R - _COLLAR_SPLIT * width
        self._ramp_w = ramp
        self._ramp_starts = np.array([R - width, cut - ramp, cut, R - ramp])
        # unit corrections: mass 1 with zero first moment about R, and the reverse
        R_ld = np.longdouble(R)
        (m00, m01), (m10, m11) = self._plateaus(R_ld, 1), self._plateaus(R_ld, 2)
        det = m00 * m11 - m01 * m10
        unit_slope = np.array([m11, -m10]) / det
        unit_value = np.array([-m01, m00]) / det
        self._slope_coef = np.longdouble(self.slope_gap) * unit_slope
        self._coef = self._slope_coef + np.longdouble(self.value_gap) * unit_value
        # rounding left by the moment match, carried above R so that a stays
        # seamless at R for the value-only oracle
        self._res1 = inp.bp(R_ld) + self._collar_a_prime(R_ld) - inp.cp(R_ld)
        self._res0 = inp.b(R_ld) + self._collar_a(R_ld) - inp.c(R_ld)

    # -- stage machinery ----------------------------------------------------

    def _second_blend_delta(self, t):
        """(c'' - b'') phi_eps, the second derivative of the blend stage.

        c'' and b'' are evaluated only where phi_eps > 0, so that a c
        undefined below the blending window never meets 0 * nan.
        """
        t = np.asarray(t)
        phi = np.asarray(step_phi(self.eps, self.R, t))
        out = np.zeros_like(phi)
        inside = phi > 0.0
        if np.any(inside):
            x = t[inside]
            out[inside] = (self.input.cpp(x) - self.input.bpp(x)) * phi[inside]
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
        h = (self.input.cpp(t) - self.input.bpp(t)) * tab.blend_beta
        return tuple(float(eps * (tab.blend_half @ (h * x**j @ _GL_WEIGHTS_LD))) for j in (0, 1))

    def _blend_integrand(self, t):
        """w_k phi_eps' for w = (D1, D1 (t - R), D0), D1 = c' - b' and
        D0 = c - b, stacked on a new last axis: the blend cache's integrand."""
        inp = self.input
        dt = t.dtype
        x = t - np.asarray(self.R, dt)
        eps = np.asarray(self.eps, dt)
        dphi = _ramp_beta_prime(x / eps + np.asarray(1.0, dt)) / eps
        d1 = (inp.cp(t) - inp.bp(t)) * dphi
        return np.stack([d1, d1 * x, (inp.c(t) - inp.b(t)) * dphi], axis=-1)

    def _plateaus(self, s, order: int):
        """The two collar plateaus (order 0) or their first or second
        antiderivatives, stacked on a new last axis."""
        s = np.asarray(s)
        dt = s.dtype
        w = np.asarray(self._ramp_w, dtype=dt)
        g = _ramp_antiderivative((s[..., None] - self._ramp_starts.astype(dt)) / w, order) * w**order
        return np.stack([g[..., 0] - g[..., 1], g[..., 2] - g[..., 3]], axis=-1)

    def _correction(self, s, order: int, coef):
        return self._plateaus(s, order) @ coef.astype(s.dtype)

    def _blend_parts(self, s):
        """(u_blend', u_blend): int (c'' - b'') phi_eps once and twice from
        R - eps, integrated by parts (see the module docstring).  Both vanish
        where phi_eps does, and c, c' are evaluated only where it does not."""
        s = np.asarray(s)
        phi = np.asarray(step_phi(self.eps, self.R, s))
        du, u = np.zeros_like(phi), np.zeros_like(phi)
        inside = phi > 0.0
        if np.any(inside):
            inp = self.input
            t, p = s[inside], phi[inside]
            i = self._blend(t)
            du[inside] = (inp.cp(t) - inp.bp(t)) * p - i[..., 0]
            u[inside] = ((inp.c(t) - inp.b(t)) * p - (t - np.asarray(self.R, t.dtype)) * i[..., 0]
                         + i[..., 1] - i[..., 2])
        return du, u

    def _collar_a(self, s):
        return self._blend_parts(s)[1] + self._correction(s, 2, self._coef)

    def _collar_a_prime(self, s):
        return self._blend_parts(s)[0] + self._correction(s, 1, self._coef)

    def _glue(self, r, lower, upper, collar):
        """lower(r) below R - delta, lower(r) + collar(r) on [R - delta, R],
        upper(r) above R."""
        r = np.asarray(r)
        if r.dtype.kind != "f":
            r = r.astype(np.float64)
        R = np.asarray(self.R, dtype=r.dtype)
        out = np.where(r > R, upper(r), lower(r))
        inside = (r >= np.asarray(self.R - self.delta, dtype=r.dtype)) & (r <= R)
        if np.any(inside):
            out[inside] += collar(r[inside])
        return out if out.shape else out[()]

    # -- stage functions ------------------------------------------------------

    def eta_prime(self, r):
        """Blended second derivative b''(1 - phi_eps) + c'' phi_eps."""
        return self.input.bpp(r) + self._second_blend_delta(r)

    def eta(self, r):
        """First integral of eta_prime, anchored to b'(R - eps)."""
        inp = self.input
        return self._glue(r, inp.bp, lambda t: inp.cp(t) - np.asarray(self.slope_gap, t.dtype),
                          lambda t: self._blend_parts(t)[0])

    def kappa_prime(self, r):
        """eta plus the slope correction's first integral."""
        inp = self.input
        return self._glue(r, inp.bp, inp.cp,
                          lambda t: self._blend_parts(t)[0] + self._correction(t, 1, self._slope_coef))

    def kappa(self, r):
        """Second integral of kappa'', anchored to b(R - delta)."""
        inp = self.input
        return self._glue(r, inp.b, lambda t: inp.c(t) - np.asarray(self.value_gap, t.dtype),
                          lambda t: self._blend_parts(t)[1] + self._correction(t, 2, self._slope_coef))

    def a(self, r):
        """The interpolant: kappa plus the value correction's second integral."""
        inp = self.input
        return self._glue(
            r, inp.b,
            lambda t: inp.c(t) + self._res0.astype(t.dtype)
            + self._res1.astype(t.dtype) * (t - np.asarray(self.R, t.dtype)),
            self._collar_a,
        )

    def a_prime(self, r):
        inp = self.input
        return self._glue(r, inp.bp, lambda t: inp.cp(t) + self._res1.astype(t.dtype),
                          self._collar_a_prime)

    def a_second(self, r):
        inp = self.input
        return self._glue(
            r, inp.bpp, inp.cpp,
            lambda t: self._second_blend_delta(t) + self._correction(t, 0, self._coef),
        )

    @property
    def cache(self) -> dict:
        """Summary of the memoized quadrature tables."""
        return {
            "slope_knots": len(self._blend._knots_f8),
            "value_knots": len(self._blend._knots_f8),
            "slope_total": self._totals[0],
            "value_total": self._totals[1],
        }

    def __repr__(self) -> str:
        return (
            f"SmoothedJunction({self.input.name}, eps={self.eps:g}, "
            f"iota={self.iota:.6g}, omega={self.omega:.6g}, delta={self.delta:.6g})"
        )


def smooth_junction(inp: JunctionInput, eps: float) -> SmoothedJunction:
    """Build the staged interpolant for ``inp`` at smoothing width ``eps``."""
    return SmoothedJunction(inp, eps)


def second_derivative_envelope(s: SmoothedJunction, grid_n: int = 4096) -> tuple[float, float]:
    """Grid-sampled (inf, sup) of a'' over the collar [R - delta, R]."""
    if grid_n < 16:
        raise ParameterError(f"grid_n must be at least 16, got {grid_n}")
    rs = np.linspace(s.R - s.delta, s.R, grid_n)
    vals = np.asarray(s.a_second(rs), dtype=float)
    return float(vals.min()), float(vals.max())


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


def _ricci_sup_half(pair: WarpingPair, lo: float, hi: float, grid_n: int) -> float:
    """Grid supremum of max(-Ric)/2, refined on bracket grids at the peak.

    The refinement guards against the uniform grid aliasing the narrow
    collar features where the supremum lives.  Each round samples the two
    cells around the running argmax with _BRACKET_POINTS points and keeps
    the best value seen; it stops once the bracket no longer shrinks.  A
    warping function that is not positive on the grid is rejected: the
    collar corrections outweighed b there, which happens when eps is large
    for a small R.
    """
    rs = np.linspace(lo, hi, grid_n)
    fv = np.asarray(pair.f(rs), float)
    gv = np.asarray(pair.g(rs), float)
    if not (np.all(fv > 0.0) and np.all(gv > 0.0)):
        raise SingularAxisError(
            f"{pair.name}: a smoothed warping function vanishes inside [{lo:.6g}, {hi:.6g}]; "
            f"use a smaller eps"
        )
    vals = _half_neg_ricci(pair, rs, fv, gv)
    i = int(np.argmax(vals))
    best = float(vals[i])
    width = math.inf
    while True:
        b_lo, b_hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
        if not b_hi - b_lo < width:
            return best
        width = b_hi - b_lo
        rs = np.linspace(b_lo, b_hi, _BRACKET_POINTS)
        vals = _half_neg_ricci(pair, rs, np.asarray(pair.f(rs), float), np.asarray(pair.g(rs), float))
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))


def smoothed_metric(
    R: float,
    eps: float,
    margin: float = 1.0,
    k_grid_n: int = 4096,
) -> SmoothedWarpingFamily:
    """Smooth the exponential extension into (sinh, cosh) at radius R.

    Applies the staged construction to both warping functions and packages
    the result as a warping pair on (-inf, R + margin], together with its
    sampled Ricci lower bound constant.
    """
    if not (R > 0.0) or not np.isfinite(R):
        raise ParameterError(f"tube radius must be positive and finite, got {R}")
    _check_width(eps)
    if eps >= R:
        raise WidthError(
            f"blending window [R-eps, R] reaches the tube core r = 0 (R={R:g}, eps={eps:g}); "
            f"use eps < R"
        )
    ext = kerckhoff_extension(R)
    jf = smooth_junction(
        JunctionInput(b=ext.f, bp=ext.fp, bpp=ext.fpp, c=np.sinh, cp=np.cosh, cpp=np.sinh,
                      R=R, name=f"f-junction(R={R:g})"),
        eps,
    )
    jg = smooth_junction(
        JunctionInput(b=ext.g, bp=ext.gp, bpp=ext.gpp, c=np.cosh, cp=np.sinh, cpp=np.cosh,
                      R=R, name=f"g-junction(R={R:g})"),
        eps,
    )
    delta = max(jf.delta, jg.delta)
    pair = WarpingPair(
        f=jf.a, fp=jf.a_prime, fpp=jf.a_second,
        g=jg.a, gp=jg.a_prime, gpp=jg.a_second,
        domain=(-math.inf, R + margin),
        fd_step=_FD_STEP_HINT,
        name=f"smoothed(R={R:g}, eps={eps:g})",
    )
    k = _ricci_sup_half(pair, R - delta - 1.0, R + margin, k_grid_n)
    return SmoothedWarpingFamily(
        R=R, eps=eps, margin=margin,
        junction_f=jf, junction_g=jg,
        pair=pair, delta=delta, k_eps=k,
    )


def k_eps(R: float, eps: float, grid_n: int = 4096, margin: float = 1.0) -> float:
    """Ricci lower bound constant of the smoothed pair at (R, eps).

    Sampled over [R - delta - 1, R + margin] with bracket-grid refinement;
    bounded below by the exact constant coth(R) coth(2R) attained on the
    extension region.
    """
    return smoothed_metric(R, eps, margin=margin, k_grid_n=grid_n).k_eps
