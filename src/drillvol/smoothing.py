"""Smooth interpolation between two functions meeting to first order.

Given b and c with b(R) = c(R) and b'(R) = c'(R), the construction produces
a C-infinity function a_eps equal to b below R - delta(eps) and to c above
R, with second derivative controlled by those of b and c at R.  On the
collar [R - W, R], W(eps) = 2 eps^(1/3), it is one moment-matched
correction of the blended second derivative:

    a'' = b'' (1 - phi_eps) + c'' phi_eps + lambda_1 psi_1 + lambda_2 psi_2

The plateaus psi_1 and psi_2 lie on either side of R - 2W/3, on
[R - W, R - 2W/3] and [R - 2W/3, R], each rising from 0 to 1 and falling
back over W/20 at its ends, and lambda
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
phi_eps itself comes from the module-wide ramp table.  Each cache
holds its antiderivatives on a monotone knot grid; panel values and point
evaluations use one fixed Gauss-Legendre rule in extended precision, so
evaluation is seamless across knots (a requirement for the value-only
finite-difference oracle) and costs O(log n) after construction; a float64
lookup is rounded row by row, and no extended-precision array is raised to
a power (numpy calls powl per element for x**0 and x**1), so moments are
products.  The blending window has one node layout: the ramp tables hold
the blend rule's 64 panels and the build check's 16 and 8 on [0, 1], with
alpha and beta at their nodes, and t = R + eps (x - 1) maps them onto
[R - eps, R].  The blend
cache, the blend totals int (c'' - b'') phi_eps (t - R)^j, which size the
correction, and the build check share these nodes, so a build evaluates no
bump and makes no ramp lookup there; the check compares the totals, like
the ramp moments, with the rule on 16 panels (8 panels give its error);
c'' - b'' is formed once on the three layouts for both.
The rest of the ramp work depends on (R, eps) alone, so both junctions of a
family share one collar record: W, the ramp starts, the mapped nodes with
their offsets t - R, the ramp lookups at R, and the sides' values at the
nodes.  Each side is evaluated once per node set: the extension's three
callables per function scale one exponential, and the tube's sinh and cosh
serve both junctions.  One evaluator pass serves any junctions on one
record and any derivative orders, from one collar mask, one ramp-table
lookup (phi_eps's argument rides beside the four plateau ramps), one
blend-cache lookup per junction, and each side's transcendentals once per
region: smoothed_metric(0.8, 1e-2) makes 7 ramp-table lookups, one at R
and one per Ricci grid.  The smoothed pair's six callables share that
pass: read together through warped._Values, as every Ricci, curvature,
quadrature and oracle reader does, they take a, a' and a'' of both
junctions from one pass; called alone, each runs its own junction and
order.  The Ricci constant is the supremum over a uniform grid, refined by
bracket grids of 33 points across the two cells around the running argmax;
each grid is one warped._ricci_grid.  A bracket round ends the refinement
once the second difference at its peak, over 8, is within an ulp of the
running supremum: under a quadratic model the peak between samples exceeds
the sampled maximum by at most that, so a further round would only chase
rounding.  The uniform grid is exempt, since its cells may alias the narrow
collar features; a bracket that stops shrinking also ends it.
The bump function is evaluated in log space with a hard cutoff to 0 below
exp(-700) to avoid denormals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _require_positive, _require_sinh
from .errors import JunctionError, ParameterError, QuadratureError, WidthError
from .warped import (WarpingPair, _ricci_grid, _Shared, _Values, hyperbolic_tube,
                     kerckhoff_extension)

__all__ = [
    "bump_alpha",
    "ramp_beta",
    "step_phi",
    "SmoothedJunction",
    "smooth_junction",
    "SmoothedWarpingFamily",
    "smoothed_metric",
]

# The 24-point Gauss-Legendre rule on [-1, 1]: nodes -_GL_X[::-1] and _GL_X,
# with the mirrored weights, as numpy.polynomial.legendre.leggauss(24) gives
# them (it symmetrizes its output); literals spare importing numpy.polynomial.
_GL_X = np.array([
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
])
_GL_W = np.array([
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
])
_GL_NODES_F8 = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_WEIGHTS_F8 = np.concatenate([_GL_W[::-1], _GL_W])
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

# Panels of the blend stage's rule on the blending window, and of the build
# check's reference rule and its error estimate.  64 blend panels give a,
# a' and a'' on the window within extended-precision rounding (2e-19
# relative) of a 1024-panel rule, as 256 do, with the same k_eps, delta and
# gaps; 32 are measurably worse (5e-19), and 16 reach 2e-18.
_BLEND_PANELS = 64
_CHECK_PANELS = (16, 8)

# The smoothed pair's domain reaches _MARGIN past R, and its Ricci supremum
# is sampled on _K_GRID_N points of [R - delta - 1, R + _MARGIN].
_MARGIN = 1.0
_K_GRID_N = 4096

# Points of each bracket grid in the refinement of the Ricci supremum: 32
# cells across the two around the running argmax, so the bracket shrinks
# sixteenfold per round.  A bracket round whose peak has a second difference
# of at most 8 ulps of the running supremum ends the refinement; the uniform
# grid never does, as it may alias the collar.
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


def _panel_sums(half, values):
    """Running sums over the panels of the rule's integral of each
    component, from the integrand's values at the panel nodes."""
    return np.cumsum(half[:, None] * (np.swapaxes(values, -1, -2) @ _GL_WEIGHTS_LD), axis=0)


class _Cumulative:
    """Antiderivatives from lo of an integrand with several components,
    memoized on a uniform knot grid.

    ``fun`` maps an array of points to its component values, stacked on a
    new last axis; ``knots`` and ``half`` are the panel grid's knots and
    half-widths, and ``values`` is fun at its nodes.  The knot values are
    partial sums of fixed Gauss-Legendre panels computed in extended
    precision, and point evaluation adds the same rule on the remainder
    [knot, x], so crossing a knot never introduces a jump beyond
    extended-precision rounding.  All components share one evaluation of
    fun.  A float64 lookup is built in float64: its end rows (0 and the
    totals) are rounded once here, and only the rows inside are summed in
    extended precision and then rounded, the same bits as rounding the
    whole extended-precision lookup.
    """

    def __init__(self, fun: Callable, knots, half, values):
        self.fun = fun
        self._knots_ld = knots
        self._knots_f8 = knots.astype(np.float64)
        sums = _panel_sums(half, values)
        self._cum = np.concatenate([np.zeros((1, sums.shape[-1]), np.longdouble), sums])
        self._ends_ld = self._cum[[0, -1]]
        self._ends_f8 = self._ends_ld.astype(np.float64)

    def __call__(self, x):
        """The antiderivatives at x, stacked on a new last axis.

        They are 0 at or below lo and the totals at or above hi; the rule
        runs only for x strictly inside.
        """
        x = np.asarray(x)
        ld = x.dtype == np.longdouble
        knots, ends = (self._knots_ld, self._ends_ld) if ld else (self._knots_f8, self._ends_f8)
        above = x >= knots[-1]
        out = np.where(above[..., None], ends[1], ends[0])
        inside = ~above & ~(x <= knots[0])  # NaN stays inside and propagates
        if inside.any():
            nodes = _GL_NODES_LD if ld else _GL_NODES_F8
            weights = _GL_WEIGHTS_LD if ld else _GL_WEIGHTS_F8
            xi = x[inside]
            # xi > lo, so idx >= 0; NaN sorts past the last knot
            idx = np.minimum(np.searchsorted(knots, xi, side="right") - 1, len(knots) - 2)
            a = knots[idx]
            half = 0.5 * (xi - a)
            mid = 0.5 * (xi + a)
            t = mid[..., None] + half[..., None] * nodes
            values = np.swapaxes(self.fun(t), -1, -2) @ weights
            out[inside] = self._cum[idx] + half[..., None] * values
        return out


def _moments(fun: Callable, origin: float, count: int) -> Callable:
    """t -> fun(t) (t - origin)^j for j < count <= 3, stacked on a new last
    axis.

    The powers are products: numpy raises an extended-precision array to
    the power 0 or 1 with libm's powl per element, at six times a product's
    cost, and x**0, x**1, x**2 equal 1, x, x * x bit for bit."""
    def stacked(t):
        v, x = fun(t), t - np.asarray(origin, t.dtype)
        return np.stack([v, v * x, v * (x * x)][:count], axis=-1)
    return stacked


def _check_moments(label: str, totals, checks, lo: float, hi: float):
    """Compare totals[j] with the reference integral of the j-th moment over
    [lo, hi]: the panel rule on 16 equal panels, with its distance from the
    rule on 8 as error estimate.  ``checks`` pairs the half-widths of each
    of the two layouts with the moments' values at its nodes.  Raises
    QuadratureError on a disagreement; returns the references and their
    errors."""
    refs, coarse = (_panel_sums(half, values)[-1] for half, values in checks)
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
    j < 3, and the blending window's node layouts on [0, 1].

    t = R + eps (x - 1) maps [0, 1] onto every blending window [R - eps, R],
    so the junctions of all (R, eps) share these layouts: the blend rule's
    64 panels, with alpha / norm and beta at their nodes, and the build
    check's 16 and 8 panels, with beta at theirs (they check the ramp
    moments here too).  ``window_x`` holds the nodes of all three in one
    flat array, so that a side is evaluated on all of them in one call, and
    ``split`` cuts such an array back into the layouts.
    """

    def __init__(self) -> None:
        moments = _moments(bump_alpha, 0.0, 3)
        knots, nodes, half = _panels(0.0, 1.0, 1025)
        self.cum = _Cumulative(moments, knots, half, moments(nodes))
        del nodes  # not held through the lookups below, whose temporaries set the peak memory
        self.norm = self.cum._cum[-1, 0]
        layouts = [_panels(0.0, 1.0, n + 1) for n in (_BLEND_PANELS, *_CHECK_PANELS)]
        (self.blend_knots, self.blend_x, self.blend_half), *self.checks = layouts
        _check_moments("ramp moments", self.cum._cum[-1],
                       [(h, moments(x)) for _, x, h in self.checks], 0.0, 1.0)
        # beta is looked up in float64, a quarter of the extended-precision
        # cost, since the totals are rounded to float64 anyway; one lookup
        # per layout keeps the lookup's temporaries at the blend layout's size
        norm = float(self.norm)
        self.blend_beta, *self.check_beta = (self.cum(x.astype(np.float64))[..., 0] / norm
                                             for _, x, _ in layouts)
        self.blend_alpha = bump_alpha(self.blend_x) / self.norm
        self.window_x = np.concatenate([x.ravel() for _, x, _ in layouts])
        self._cuts = np.cumsum([x.size for _, x, _ in layouts])[:-1]

    def split(self, values) -> list:
        """An array over window_x, as one (panels, nodes) array per layout."""
        return [v.reshape(-1, len(_GL_NODES_LD)) for v in np.split(values, self._cuts)]


@functools.cache
def _ramp_tables() -> _RampTables:
    return _RampTables()


def _ramp_antiderivatives(x):
    """beta and its first and second antiderivatives from 0 at any real x,
    from one lookup in the ramp tables.

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
    a, first, second = m[..., 0], m[..., 1], m[..., 2]
    return a, x * a - first, 0.5 * (x * x * a - 2.0 * x * first + second)


def ramp_beta(x):
    """Normalized ramp beta(x) = int_0^x alpha / int_0^1 alpha.

    Monotone from 0 to 1, identically 0 for x <= 0 and 1 for x >= 1.  Only
    beta is formed from the lookup: the antiderivatives would overflow, or
    meet inf * 0, at huge or infinite x.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    t = _ramp_tables()
    out = np.clip(t.cum(x)[..., 0] / np.asarray(t.norm, dtype=x.dtype), 0.0, 1.0)
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


def _gaps(b, c, values: _Values, orders) -> list:
    """c - b, or the difference of their derivatives, of each of orders, at
    the points of values."""
    return [values(c[k]) - values(b[k]) for k in orders]


class _Collar:
    """The ramp work of one (R, eps), which depends on neither junction.

    The collar width W(eps), the reach max(eps, W) below R that covers the
    collar of every junction, and the starts of the four plateau ramps (rise
    and fall of the plateau on [R - W, cut], then of the one on [cut, R]);
    the ramp tables' window layouts mapped onto [R - eps, R] by
    t = R + eps (x - 1): the blend cache's knots and half-widths, and the
    offsets t - R at every node of the three layouts; the nodes themselves
    with ``ufunc_values``, the values of numpy ufuncs there, which serve both
    junctions; and ``at_R``, the lookups at R that both junctions take.
    """

    def __init__(self, R: float, eps: float):
        tab = _ramp_tables()
        self.R, self.eps = R, eps
        self.width = _COLLAR_SCALE * eps ** _COLLAR_POWER
        self.reach = max(eps, self.width)
        self.ramp_w = _COLLAR_RAMP * self.width
        cut = R - _COLLAR_SPLIT * self.width
        self.ramp_starts = np.array([R - self.width, cut - self.ramp_w, cut, R - self.ramp_w])
        R_ld, eps_ld = np.longdouble(R), np.longdouble(eps)
        offsets = eps_ld * (tab.window_x - 1)
        self.offsets = tab.split(offsets)
        self.nodes = R_ld + offsets
        self.ufunc_values: dict = {}
        self.blend_knots = R_ld + eps_ld * (tab.blend_knots - 1)
        self.blend_half = eps_ld * tab.blend_half

    def dphi(self, t):
        """phi_eps' at t."""
        dt = t.dtype
        eps = np.asarray(self.eps, dt)
        return _ramp_beta_prime((t - np.asarray(self.R, dt)) / eps + np.asarray(1.0, dt)) / eps

    def lookups(self, s, orders):
        """phi_eps at the collar points s, and for each of orders, along a
        new first axis, the stack (on a new last axis) of the two plateaus'
        antiderivatives that a's derivative of that order needs: the
        plateaus for order 2, their first antiderivatives for 1 and second
        for 0.  One ramp-table lookup gives all: phi_eps's argument is a
        fifth column beside the four plateau ramps, clipped like ramp_beta."""
        dt = s.dtype
        w = np.asarray(self.ramp_w, dtype=dt)
        x = (s - np.asarray(self.R, dt)) / np.asarray(self.eps, dt) + np.asarray(1.0, dt)
        ramps = _ramp_antiderivatives(np.concatenate(
            [(s[..., None] - self.ramp_starts.astype(dt)) / w, x[..., None]], axis=-1))
        g = (np.array([ramps[2 - k][..., :4] for k in orders])
             * np.array([w ** (2 - k) for k in orders], dt)[:, None, None])
        return np.clip(ramps[0][..., 4], 0.0, 1.0), g[..., 0::2] - g[..., 1::2]

    @functools.cached_property
    def at_R(self):
        """The lookups of orders 0 and 1 at R in extended precision, which
        give both junctions their plateau moments and seam residuals."""
        return self.lookups(np.array([self.R], dtype=np.longdouble), (0, 1))


# The two junctions that smoothed_metric builds in a row share one record.
# Keyed on the floats (R, eps): the byte images of equal extended-precision
# arrays may differ in their padding.
_collar_of = functools.lru_cache(maxsize=2)(_Collar)


def _blend_integrand(d0, d1, x, dphi):
    """w_k phi_eps' for w = (D1, D1 x, D0), stacked on a new last axis, from
    D0 = c - b, D1 = c' - b', x = t - R and phi_eps' at t: the blend cache's
    integrand."""
    w = d1 * dphi
    return np.stack([w, w * x, d0 * dphi], axis=-1)


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
        if not math.isfinite(R):
            raise ParameterError(f"{name}: junction radius must be finite, got {R}")
        b0, b1, c0, c1 = (float(side[k](R)) for side in (b, c) for k in (0, 1))
        # relative where |c|, |c'| > 1: from R = 10 on, one float64 rounding
        # of cosh R exceeds an absolute 1e-12
        v, d = abs(b0 - c0), abs(b1 - c1)
        if v > 1e-12 * max(1.0, abs(c0)) or d > 1e-12 * max(1.0, abs(c1)):
            raise JunctionError(f"{name}: b and c must match to first order at R={R}: "
                                f"|b-c|={v:.3e}, |b'-c'|={d:.3e}")

        self._collar = collar = _collar_of(R, self.eps)
        tab = _ramp_tables()
        eps_ld = np.longdouble(self.eps)
        # each side once at the window's nodes for the whole build; the
        # tube's sinh and cosh there come from the record, for both junctions
        nodes = _Values(collar.nodes, collar.ufunc_values)
        # c - b and c' - b' on the blend cache's nodes; the cache's integrand
        # holds b, c and the record, not self: no reference cycle keeps a
        # junction and its record alive after its last use
        d0, d1 = (tab.split(d)[0] for d in _gaps(b, c, nodes, (0, 1)))
        self._blend = _Cumulative(
            lambda t: _blend_integrand(*_gaps(b, c, _Values(t), (0, 1)),
                                       t - np.asarray(R, t.dtype), collar.dphi(t)),
            collar.blend_knots, collar.blend_half,
            _blend_integrand(d0, d1, collar.offsets[0], tab.blend_alpha / eps_ld))
        # c'' - b'' on each layout, for the totals and the check
        d2 = tab.split(_gaps(b, c, nodes, (2,))[0])
        self._totals = self._blend_totals(d2[0])
        checks = []
        for (_, _, half), gap, beta, x in zip(tab.checks, d2[1:], tab.check_beta,
                                              collar.offsets[1:]):
            h = gap * beta
            checks.append((eps_ld * half, np.stack([h, h * x], axis=-1)))
        _check_moments(f"{name}: blend stage", self._totals, checks, R - eps, R)
        slope_total, value_total = self._totals
        self.slope_gap = c1 - (b1 + slope_total)
        self.value_gap = c0 - (b0 - value_total)
        self.iota = collar.width if self.slope_gap != 0.0 else 0.0
        self.omega = collar.width if self.value_gap != 0.0 else 0.0
        self.delta = max(self.eps, self.iota, self.omega)
        if not np.all(np.diff(collar.ramp_starts, append=R) > 0.0):
            raise WidthError(f"{name}: collar width W={collar.width:.3g} (eps={eps:g}) is below "
                             f"the float64 resolution at R={R:g}: the plateau ramps collapse")

        # the slope gap times the unit correction of mass 1 and zero first
        # moment about R, plus the value gap times the reverse; the collar
        # record's lookups at R give the plateau moments and seam residuals
        R_ld = np.longdouble(R)
        phi, plateaus = collar.at_R
        (m00, m01), (m10, m11) = plateaus[1][0], plateaus[0][0]
        det = m00 * m11 - m01 * m10
        self._coef = (np.longdouble(self.slope_gap) * (np.array([m11, -m10]) / det)
                      + np.longdouble(self.value_gap) * (np.array([-m01, m00]) / det))
        # rounding left by the moment match, carried above R so that a stays
        # seamless at R for the value-only oracle; phi_eps(R) = 1
        terms = self._terms(phi, _Values(np.array([R_ld])), plateaus, (0, 1))
        self._res0, self._res1 = (b[k](R_ld) + terms[k][0] - c[k](R_ld) for k in (0, 1))

    def _blend_totals(self, gap) -> tuple[float, float]:
        """int (c'' - b'') phi_eps (t - R)^j over [R - eps, R] for j = 0, 1,
        from ``gap``, c'' - b'' at the blend cache's nodes.

        One pass of the panel rule on those nodes, with beta read from the
        ramp tables there; (t - R)^j is a product, not an
        extended-precision power.  The by-parts cache is not used
        here: its boundary terms carry the rounding by which the inputs b',
        b fail to be exact antiderivatives of b'', of order
        1e-16 |b''(R)| eps, which exceeds the check tolerance once sinh(R) is
        large (R above about 18 for the tube pair).  The seam residuals at R
        absorb that difference.
        """
        tab = _ramp_tables()
        h = gap * tab.blend_beta
        eps = np.longdouble(self.eps)
        return tuple(float(eps * (tab.blend_half @ (v @ _GL_WEIGHTS_LD)))
                     for v in (h, h * self._collar.offsets[0]))

    def _terms(self, phi, window: _Values, plateaus, orders):
        """a - b, or its derivative of each of orders, at collar points: the
        plateau correction, from the stack of each order that the collar
        record's lookups give, plus the blend stage where phi_eps > 0.  The
        blend is (c'' - b'') phi_eps (order 2), or its integral once (1) or
        twice (0) from R - eps by parts (see the module docstring);
        ``window`` holds the points where phi_eps > 0, so that a c undefined
        below the blending window never meets 0 * nan.  Orders 0 and 1 share
        one lookup in the blend cache."""
        inside = phi > 0.0
        t, p = window.x, phi[inside]
        i = self._blend(t) if t.size and min(orders) < 2 else None
        corrections = plateaus @ self._coef.astype(phi.dtype)
        outs = []
        for k, order in enumerate(orders):
            out = corrections[k]
            if t.size:
                blend = (window(self.c[order]) - window(self.b[order])) * p
                if order == 1:
                    blend = blend - i[..., 0]
                elif order == 0:
                    blend = blend - (t - np.asarray(self.R, t.dtype)) * i[..., 0] + i[..., 1] - i[..., 2]
                out[inside] += blend
            outs.append(out)
        return outs

    def a(self, r):
        """The interpolant: b below R - delta, c above R."""
        return _eval((self,), r, (0,))[0][0]

    def a_prime(self, r):
        return _eval((self,), r, (1,))[0][0]

    def a_second(self, r):
        return _eval((self,), r, (2,))[0][0]


def _eval(junctions, r, orders) -> list:
    """The derivatives of a of each of orders at r, for each of junctions,
    which share one collar record: b's below R - delta, b's plus the
    collar's on [R - delta, R], and c's plus the seam residuals above R.

    One pass serves all junctions and orders: one split of r at R, one
    collar mask [R - reach, R], one set of collar lookups with the plateau
    stacks of each order, and each side's transcendentals evaluated once
    per region (above R, below R, and the blending window).  A junction
    whose delta falls short of the reach has no gaps, so lambda = 0 and
    phi_eps = 0 give it exact zeros there.
    """
    r = np.asarray(r)
    if r.dtype.kind != "f":
        r = r.astype(np.float64)
    dt = r.dtype
    collar = junctions[0]._collar
    R = np.asarray(collar.R, dtype=dt)
    above = r > R
    below = ~above
    # b and c each only on their own side: c may overflow far below R
    ru = r[above]
    upper, lower = _Values(ru), _Values(r[below])
    on = (r >= np.asarray(collar.R - collar.reach, dtype=dt)) & below
    s = r[on]
    if s.size:
        phi, plateaus = collar.lookups(s, orders)
        window = _Values(s[phi > 0.0])
    outs = []
    for j in junctions:
        terms = j._terms(phi, window, plateaus, orders) if s.size else None
        mine = []
        for k, order in enumerate(orders):
            up = upper(j.c[order])
            if order == 0:
                up = up + j._res0.astype(dt) + j._res1.astype(dt) * (ru - R)
            elif order == 1:
                up = up + j._res1.astype(dt)
            low = lower(j.b[order])
            out = np.empty(r.shape, np.result_type(up, low))
            out[above], out[below] = up, low
            if terms is not None:
                out[on] += terms[k]
            mine.append(out if out.shape else out[()])
        outs.append(mine)
    return outs


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
    """Grid supremum of max(-Ric)/2 for ``pair`` on [lo, hi], refined on
    bracket grids at the peak.

    The refinement guards against the uniform grid aliasing the narrow
    collar features where the supremum lives.  Each round samples the two
    cells around the running argmax with _BRACKET_POINTS points and keeps
    the best value seen.  It stops after a round whose values v, at their
    argmax m (moved one point in from an end of the grid), satisfy
    |v[m-1] - 2 v[m] + v[m+1]| / 8 <= ulp(best): under a quadratic model the
    peak between samples exceeds the sampled maximum by at most that, so a
    further round could raise the result by rounding alone.  The uniform
    grid never stops on this test, however flat it looks, since it may
    alias; the refinement also stops once the bracket no longer shrinks.
    Each grid is one warped._ricci_grid, which reads the pair's six callables
    once: on the smoothed pair, one evaluator pass for a, a' and a'' of
    both junctions.  A warping function that is not positive on a grid is
    rejected: the collar corrections outweighed b there, which happens when
    eps is large for a small R.
    """
    rs = np.linspace(lo, hi, _K_GRID_N)
    best, width = -math.inf, math.inf
    while True:
        vals = _ricci_grid(pair, rs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        if width < math.inf:  # a bracket round, not the uniform grid
            m = min(max(i, 1), len(vals) - 2)
            if abs(vals[m - 1] - 2.0 * vals[m] + vals[m + 1]) / 8.0 <= math.ulp(best):
                return best
        b_lo, b_hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
        if not b_hi - b_lo < width:
            return best
        width = b_hi - b_lo
        rs = np.linspace(b_lo, b_hi, _BRACKET_POINTS)


def smoothed_metric(R: float, eps: float) -> SmoothedWarpingFamily:
    """Smooth the exponential extension into (sinh, cosh) at radius R.

    Applies the moment-matched construction to both warping functions and
    packages the result as a warping pair on (-inf, R + margin], together
    with its sampled Ricci lower bound constant.  The pair's six callables
    share one evaluator pass over both junctions (warped._Shared): a reader
    that takes several of them at the same points through warped._Values
    gets a, a' and a'' of both from one pass, and a callable called on its
    own runs only its junction's order, as the junction's evaluator does.
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
    both = functools.partial(_eval, (jf, jg), orders=(0, 1, 2))
    (f, fp, fpp), (g, gp, gpp) = ([_Shared(both, lambda v, i=i, k=k: v[i][k], alone)
                                   for k, alone in enumerate((j.a, j.a_prime, j.a_second))]
                                  for i, j in enumerate((jf, jg)))
    pair = WarpingPair(
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp,
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
