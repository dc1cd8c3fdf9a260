"""Smooth junctions of the tube's warping functions with their extension.

Each junction joins one warping function of the hyperbolic tube, c = sinh
for f or c = cosh for g, to the same function b of its exponential
extension at R (warped.kerckhoff_extension), which meets it to first order
there: b(R) = c(R) and b'(R) = c'(R).  The construction produces a function
a_eps equal to b below R - delta(eps) and to c above R, with second
derivative controlled by those of b and c at R.  On the collar
[R - W, R], W(eps) = 2 eps^(1/3), it is one moment-matched correction of
the blended second derivative:

    a'' = b'' (1 - phi_eps) + c'' phi_eps + lambda_1 psi_1 + lambda_2 psi_2

The ramps come from the bump alpha(x) = 630 (x (1 - x))^4 on (0, 1), of
mass 1: beta(x) = int_0^x alpha, phi_eps(r) = beta((r - R)/eps + 1), and
the plateaus psi_1 and psi_2 lie on either side of R - 2W/3, on
[R - W, R - 2W/3] and [R - 2W/3, R], each rising from 0 to 1 and falling
back over W/20 at its ends.  alpha is C^3 on the line, so beta is C^4 and
a_eps is C^6 wherever b and c are.  C^2 is enough: the curvatures of the
warped metric read the warping functions' second derivatives, and the
Ricci comparison behind the volume bound needs a C^2 metric.  lambda
solves int u'' = 0 and int (R - s) u'' = 0 for u = a - b, which closes the
slope and value gaps that the blend leaves at R.  The correction carries a
slope of order eps across the collar, so its amplitude is
O(eps / W) = O(eps^(2/3)); it and W both tend to 0 with eps.  The widths
are iota = W and omega = W for a nonzero slope and value gap (0 for a zero
gap), and delta(eps) = max(eps, iota, omega).  The collar may reach below
r = 0: only the blending window [R - eps, R] has to stay off the tube
core, since below R the correction acts on b alone.  When eps is large
for a small R it can outweigh b and drive a warping function through 0;
smoothed_metric rejects such a pair, and an eps whose ramps collapse below
the float64 spacing at R.
The f and the g junction give the smoothed negatively-curved metric family
whose Ricci lower bound constant tends to coth(R) coth(2R).

Numerics: a, a' and a'' share one evaluator, and every integral has one
quadrature level.  The bump's cumulative moments int_0^x t^j alpha, j < 3,
are polynomials with exact rational coefficients, so beta and the
plateaus' antiderivatives are closed forms in the input's dtype
(_ramp_moments).  The blend is one integrand: with
I_j(s) = int_{R-eps}^s (c'' - b'') phi_eps (t - R)^j dt,

    u_blend'' = (c'' - b'') phi_eps,  u_blend' = I_0,
    u_blend(s) = (s - R) I_0(s) - I_1(s),

and each I_j is one Gauss-Legendre rule of 24 points in the ramp variable
x = (s - R)/eps + 1: on [0, x], where t = R + eps (x - 1), phi_eps = beta(x)
is a polynomial of degree 9 and t - R = eps (x - 1), so the integrand is a
polynomial of degree 10 or less times the smooth gap, and the rule gives
I_j to rounding (within 2e-19 of each total, against values pinned at 140
digits).  The same rule gives the blend totals (x = 1), which size the
correction, and I_j at every window point of an evaluator pass, so I_j has
no knots and no seams (the value-only finite-difference oracle needs a
smooth a).  Its nodes and weights are computed once in extended precision
(_gauss_legendre): their float64 roundings would leave 8e-16 of each total.
The build check compares the totals with the rule on 4 equal panels of
[0, 1], and takes the distance from the rule on 2 as its error estimate:
168 nodes per build, which both junctions share.  No extended-precision
array is raised to a power (numpy calls powl per element for x**0 and
x**1), so moments are products.
The gap c'' - b'' is warped's closed form (_TubeGap), which each junction
holds, at the offsets t - R: its terms are each O(e^(-R)) at large R, where
the sides are about sinh R and their difference is rounding noise once
sinh R exceeds about 1e8 (a build check of that difference judged noise,
and failed 24 of 400 seeded builds with R in [15, 354]).
The rest of the ramp work depends on (R, eps) alone, so both junctions of a
family share one collar record: the extension and the tube pair, built
once per family, W, the ramp starts, the build's window rule with its
nodes' phi_eps and offsets, and the ramp lookups at R.  The record keeps no
side's values: each junction reads its own function of each pair.  One
evaluator pass serves any junctions on one record and any derivative
orders, from one collar mask, one ramp lookup (phi_eps's argument rides
beside the four plateau ramps), one window rule for all its junctions (its
nodes' _Values, offsets and phi_eps; each junction adds only its own
c'' - b'' and totals), and each side's transcendentals once per region,
with e^x of the window's offsets shared by both closed-form gaps.
Only values that carry extended precision are cast to a pass's dtype, once
per dtype: the ramp polynomials' constants per (dtype, count), for their
totals (3/11 has no float64 value), and the rule per dtype in module
caches, and each junction's lambda and seam residuals and its closed-form
gap's constants on their own instance, never in a cache keyed on a record
or a junction, which would keep every family alive.  The record's R,
collar end, ramp starts, widths and shifts are float64 values, exact in
longdouble, which a pass reads as they are (a float32 pass forms the ramp
arguments in float64 and rounds them back).  The smoothed pair's six
callables share that pass: read together through warped._Values, as every
Ricci, curvature, quadrature and oracle reader does, they take a, a' and
a'' of both junctions from one pass; called alone, each runs its own
junction and order.  The Ricci constant is the supremum over the collar's slice of a
uniform 4096-point grid (below R - delta the pair is the extension, with
-Ric/2 = k_limit(R), and above R the tube, with -Ric/2 = 1; one grid point
on each side samples those), refined by bracket grids of 129 points across
the two cells around the running argmax; each grid is one
warped._ricci_grid, whose cost is mostly its fixed per-pass work, so 129
points take 4.0 grids per build where 33 took 5.7.  A bracket round ends
the refinement once the second difference at its peak, over 8, is within
an ulp of the running supremum: under a quadratic model the peak between
samples exceeds the sampled maximum by at most that, so a further round
would only chase rounding.  The uniform grid is exempt, since its cells
may alias the narrow collar features; a bracket that stops shrinking also
ends it.
Each input of the construction has one producer: _floats coerces every
input array (float64 unless it already holds floats), _window_x maps r to
the ramp variable (r - R)/eps + 1 (the collar lookups form the same bits
beside the plateau ramps' arguments, as (r - R)/eps - (-1)),
_ramp_moments is the one evaluation of the ramp polynomials, and each
junction's _TubeGap (SmoothedJunction._gap) the one read of c'' - b''.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _require_positive, _require_sinh
from .errors import ParameterError, QuadratureError, WidthError
from .warped import (WarpingPair, _ricci_grid, _Shared, _TubeGap, _Values, hyperbolic_tube,
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

# Points of the Gauss-Legendre rule (_gauss_legendre): it is exact for
# polynomials of degree 47, and the blend integrand is one of degree 10 in
# the ramp variable times the smooth gap c'' - b''.
_GL_POINTS = 24

# The bump's cumulative moments int_0^x t^j alpha(t) dt on [0, 1], j < 3, are
# x^(5 + j) q_j(x) / d_j: the integer coefficients of q_j from x^4 down, and
# d_j.  Their totals q_j(1) / d_j are 1, 1/2 and 3/11.  Since alpha(1 - t) =
# alpha(t), int_x^1 t^j alpha is M_0(1 - x), M_0 - M_1 and M_0 - 2 M_1 + M_2
# there (_ramp_moments).
_RAMP_Q = np.array([[70, -315, 540, -420, 126],
                    [126, -560, 945, -720, 210],
                    [630, -2772, 4620, -3465, 990]])
_RAMP_D = np.array([1, 2, 11])

# Finite-difference step hint for the smoothed pair; resolves the collar
# features well below their width while staying above the evaluation noise.
_FD_STEP_HINT = 1e-6

# Collar of the slope and value corrections: W(eps) = 2 eps^(1/3).  The two
# plateaus split it at R - 2W/3, and each of their four ramps is W/20 wide.
_COLLAR_SCALE = 2.0
_COLLAR_POWER = 1.0 / 3.0
_COLLAR_SPLIT = 2.0 / 3.0
_COLLAR_RAMP = 0.05

# The build's panels of [0, 1], the blending window in the ramp variable:
# the blend totals' one, then the build check's reference on 4 and its
# error estimate on 2.
_BUILD_LO = np.array([0, 0, 0.25, 0.5, 0.75, 0, 0.5], np.longdouble)
_BUILD_HI = np.array([1, 0.25, 0.5, 0.75, 1, 0.5, 1], np.longdouble)

# The smoothed pair's domain reaches _MARGIN past R, and its Ricci supremum
# is sampled on the points of a _K_GRID_N-point grid of
# [R - delta - 1, R + _MARGIN] that cover the collar (_k_grid).
_MARGIN = 1.0
_K_GRID_N = 4096

# Points of each bracket grid in the refinement of the Ricci supremum: 128
# cells across the two around the running argmax, so the bracket shrinks
# 64-fold per round.  A round costs little more than its fixed per-pass work
# at 33 points or at 129, and 129 take 4.0 grids per build where 33 took
# 5.7.  A bracket round whose peak has a second difference of at most 8 ulps
# of the running supremum ends the refinement; the uniform grid never does,
# as it may alias the collar.
_BRACKET_POINTS = 129
_BRACKET_STEPS = np.arange(_BRACKET_POINTS, dtype=np.float64)


def _floats(x):
    """x as an array, cast to float64 unless it already holds floats."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _window_x(R: float, eps: float, r):
    """The ramp variable (r - R)/eps + 1 of the blending window, in r's
    dtype: 0 at R - eps and 1 at R."""
    dt = r.dtype
    return (r - np.asarray(R, dt)) / np.asarray(eps, dt) + np.asarray(1.0, dt)


def bump_alpha(r):
    """The bump 630 (r (1 - r))^4 on (0, 1), zero outside: mass 1, C^3 on the
    line, and at most 630/256, its value at r = 1/2."""
    r = _floats(r)
    out = np.zeros(r.shape, dtype=r.dtype)
    m = (r > 0) & (r < 1)
    out[m] = 630.0 * (r[m] * (1.0 - r[m])) ** 4
    return out if out.shape else out[()]


@functools.cache
def _gauss_legendre():
    """The _GL_POINTS-point Gauss-Legendre rule on [-1, 1] in extended
    precision: its nodes, increasing, and their weights.

    Newton's method on P_n runs in 256-bit fixed point on Python integers,
    from the estimate cos(pi (k - 1/4) / (n + 1/2)) of the k-th largest
    root, with P_n and P_(n-1) from the three-term recurrence and
    P_n' = n (P_(n-1) - x P_n) / (1 - x^2); the weights are
    2 (1 - x^2) / (n P_(n-1))^2 there.  Each value is rounded once to
    extended precision, as the sum of its float64 rounding and that
    rounding's error.  The same recurrence in extended precision is off by
    up to 90 units in the last place of a weight near the ends.
    """
    n, one = _GL_POINTS, 1 << 256

    def legendre(X):  # P_n and P_(n-1) at X / one, times one
        p0, p1 = one, X
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * X * p1 // one - (m - 1) * p0) // m
        return p1, p0

    def rounded(V):  # V / one in extended precision
        hi = V / one
        a, b = hi.as_integer_ratio()
        return np.longdouble(hi) + np.longdouble((V * b - a * one) / (one * b))

    nodes, weights = [], []
    for k in range(n // 2, 0, -1):
        X = int(math.cos(math.pi * (k - 0.25) / (n + 0.5)) * one)
        for _ in range(8):  # from within 2e-4 of the root, the step is 0 by the seventh
            pn, pm = legendre(X)
            X -= pn * (one * one - X * X) // (n * (pm * one - X * pn))
        pm = legendre(X)[1]
        nodes.append(rounded(X))
        weights.append(rounded(2 * (one * one - X * X) * one // (n * pm) ** 2))
    nodes, weights = np.array(nodes), np.array(weights)
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


@functools.cache
def _unit_rule(dt):
    """The rule on [0, 1] in dtype dt: nodes (1 + xi) / 2 and weights w / 2."""
    xi, w = _gauss_legendre()
    return ((1 + xi) / 2).astype(dt), (w / 2).astype(dt)


def _powers(v, x, count: int):
    """v x^j for j < count <= 3, stacked on a new last axis.

    The powers are products: numpy raises an extended-precision array to
    the power 0 or 1 with libm's powl per element, at six times a product's
    cost, and x**0, x**1, x**2 equal 1, x, x * x bit for bit."""
    out = np.empty(v.shape + (count,), np.result_type(v, x))
    out[..., 0] = v
    if count > 1:
        out[..., 1] = v * x
    if count > 2:
        out[..., 2] = v * (x * x)
    return out


def _check_moments(label: str, totals, sums, lo: float, hi: float):
    """Compare totals[j] with the reference integral of the j-th moment over
    [lo, hi].  ``sums`` holds the moments' integrals by the Gauss-Legendre
    rule on 4 and on 2 equal panels: the first is the reference, and its
    distance from the second the error estimate.  Raises QuadratureError on
    a disagreement; returns the references and their errors."""
    refs, coarse = sums
    errs = np.abs(refs - coarse)
    for j, (total, ref, err) in enumerate(zip(totals, refs, errs)):
        drift = float(abs(total - ref))
        if drift > max(5e-12, 10.0 * float(err)):
            raise QuadratureError(
                f"{label}: panel quadrature of moment {j} disagrees with the 4-panel "
                f"reference by {drift:.3e} on [{lo}, {hi}] (reference error {float(err):.1e})")
    return refs, errs


def _ramp_moments(x, count: int = 3):
    """The bump's cumulative moments int_0^x t^j alpha(t) dt, j < count <= 3,
    at min(max(x, 0), 1), stacked on a new last axis, in the dtype of the
    float array x.

    The polynomials run on (0, 1/2] only, where their alternating terms
    lose few digits: above 1/2 each moment is its total less the mirrored
    moments at 1 - x, which is exact there.  Points at or outside the ends
    skip them, and NaN propagates.
    """
    q, d, totals = _ramp_constants(x.dtype, count)
    # the points flat, and the moments along a new first axis while they are
    # formed, so that numpy's loops run over the points, not over the count
    shape, x = x.shape, x.reshape(-1)
    above = x >= 1.0
    inside = ~(above | (x <= 0.0))
    out = above.astype(x.dtype) * totals
    xi = x[inside]
    if xi.size:
        y = np.minimum(xi, 1.0 - xi)  # 1 - xi above 1/2, where it is exact and below xi
        acc = q[0] * y + q[1]
        for coef in q[2:]:
            acc = acc * y + coef
        y2 = y * y
        m = _powers(y2 * y2 * y, y, count).T * acc / d
        # int_x^1 t^j alpha from the moments at 1 - x, summed left to right
        tail = [m[0]]
        if count > 1:
            tail.append(m[0] - m[1])
        if count > 2:
            tail.append(m[0] - 2.0 * m[1] + m[2])
        m = np.where(xi > 0.5, totals - np.array(tail), m)
        for row, moment in zip(out, m):
            row[inside] = moment
    return out.reshape((count,) + shape).transpose(*range(1, len(shape) + 1), 0)


@functools.cache
def _ramp_constants(dt, count: int):
    """_ramp_moments' constants in dtype dt for count moments, built once
    per (dtype, count): the q_j's coefficients from x^4 down, d_j and the
    totals q_j(1) / d_j, each as a column."""
    q, d = _RAMP_Q[:count].astype(dt), _RAMP_D[:count].astype(dt)
    return tuple(q.T[:, :, None]), d[:, None], (q.sum(axis=1) / d)[:, None]


def _ramp_antiderivatives(x):
    """beta and its first and second antiderivatives from 0 at any real x,
    polynomials of degree 9, 10 and 11 on [0, 1].

    With A, T, Q the ramp moments at x: beta = A, int beta = x A - T and
    int int beta = (x^2 A - 2 x T + Q) / 2.  Since alpha vanishes outside
    (0, 1) these hold for every x >= 0, and all three vanish for x <= 0.
    """
    x = _floats(x)
    m = _ramp_moments(x)
    a, first, second = m[..., 0], m[..., 1], m[..., 2]
    return a, x * a - first, 0.5 * (x * x * a - 2.0 * x * first + second)


def ramp_beta(x):
    """Normalized ramp beta(x) = int_0^x alpha, C^4 on the line.

    Monotone from 0 to 1, identically 0 for x <= 0 and 1 for x >= 1, and
    126 x^5 - 420 x^6 + 540 x^7 - 315 x^8 + 70 x^9 between.  Only beta is
    evaluated: its antiderivatives would overflow, or meet inf * 0, at huge
    or infinite x.
    """
    out = _ramp_moments(_floats(x), 1)[..., 0]
    return out if out.shape else out[()]


def step_phi(eps: float, R: float, r):
    """Ramp step beta((r - R)/eps + 1): 0 for r <= R - eps, 1 for r >= R,
    C^4 in r.

    The width eps must be positive and finite.
    """
    _require_positive("step width", eps)
    return ramp_beta(_window_x(R, eps, _floats(r)))


class _Collar:
    """The ramp work of one (R, eps), which depends on neither junction, and
    the two pairs that the junctions join: ``extension``, the exponential
    extension at R, and ``tube``, built here once for both junctions.

    The collar width W(eps), the reach max(eps, W) below R that covers the
    collar of every junction, and the starts of the four plateau ramps (rise
    and fall of the plateau on [R - W, cut], then of the one on [cut, R]),
    with ``ramps_collapse`` set when they do not increase in float64;
    ``rule``, the window rule on the build's seven panels of [0, 1] that
    both junctions' builds read; ``at_R``, the pass at R that both
    junctions take, and ``units``, the two unit corrections' lambdas that
    its plateau moments give.  The lookups read the ramp starts, widths and
    shifts from float64 columns built here, in every dtype.
    """

    def __init__(self, R: float, eps: float):
        self.extension, self.tube = kerckhoff_extension(R), hyperbolic_tube()
        self.R, self.eps = R, eps
        self.width = _COLLAR_SCALE * eps ** _COLLAR_POWER
        self.reach = max(eps, self.width)
        self.ramp_w = _COLLAR_RAMP * self.width
        cut = R - _COLLAR_SPLIT * self.width
        self.ramp_starts = [R - self.width, cut - self.ramp_w, cut, R - self.ramp_w]
        ends = self.ramp_starts[1:] + [R]
        self.ramps_collapse = not all(a < b for a, b in zip(self.ramp_starts, ends))
        # the lookups' ramp starts and widths, phi_eps's start R and width
        # eps beside them, and the shifts (0, and -1 for phi_eps) whose
        # subtraction adds phi_eps's 1 and leaves the plateau ramps'
        # arguments as they are: float64 columns, exact in longdouble
        self._starts = np.array(self.ramp_starts + [R])[:, None]
        self._widths = np.array([self.ramp_w] * 4 + [eps])[:, None]
        self._shifts = np.array([0.0, 0.0, 0.0, 0.0, -1.0])[:, None]
        self.rule = _WindowRule(self, _BUILD_LO, _BUILD_HI)

    def lookups(self, s, orders):
        """phi_eps at the collar points s (1-d), and for each of orders,
        along a new first axis, the stack (on a new last axis) of the two
        plateaus' antiderivatives that a's derivative of that order needs:
        the plateaus for order 2, their first antiderivatives for 1 and
        second for 0.  One ramp lookup gives all: phi_eps's argument is a
        fifth row beside the four plateau ramps, each row running over the
        points.  The ramp arguments are formed against the float64 columns,
        which gives the same bits in float64 and longdouble, and returned to
        the points' dtype."""
        x = (s - self._starts) / self._widths - self._shifts
        ramps = _ramp_antiderivatives(x.astype(s.dtype, copy=False))
        w = s.dtype.type(self.ramp_w)
        powers = np.array([w ** (2 - k) for k in orders])[:, None, None]
        g = np.array([ramps[2 - k][:4] for k in orders]) * powers
        # C-contiguous (orders, points, 2): the layout whose product with
        # lambda (BLAS for float64) gave the values that the tests pin
        return ramps[0][4], np.ascontiguousarray((g[:, 0::2] - g[:, 1::2]).transpose(0, 2, 1))

    @functools.cached_property
    def at_R(self) -> "_CollarPass":
        """The pass of orders 0, 1 and 2 at R in extended precision, which
        gives both junctions their plateau moments and seam residuals."""
        return _CollarPass(self, np.array([self.R], dtype=np.longdouble), (0, 1, 2))

    @functools.cached_property
    def units(self):
        """lambda of the unit correction of mass 1 and zero first moment
        about R, and of the reverse, from the plateau moments at R."""
        (m00, m01), (m10, m11) = self.at_R.plateaus[1][0], self.at_R.plateaus[0][0]
        det = m00 * m11 - m01 * m10
        return np.array([m11, -m10]) / det, np.array([-m01, m00]) / det


class _WindowRule:
    """The Gauss-Legendre rule on panels [lo, hi] of [0, 1], the blending
    window in the ramp variable x, and what the blend integrand reads at
    its nodes x: phi_eps = beta(x) and the offsets t - R = eps (x - 1), also
    through one _Values (``x``), whose e^x both closed-form gaps share.
    ``scale`` is eps (hi - lo) per panel, and ``weights`` the rule's on
    [0, 1], in the dtype of lo and hi.  The junctions on a collar record
    share its build rule and, in each evaluator pass, the pass's rule on
    [0, x] for its points below R.
    """

    def __init__(self, collar: _Collar, lo, hi):
        u, self.weights = _unit_rule(hi.dtype)
        x = lo[:, None] + (hi - lo)[:, None] * u
        self.scale = collar.eps * (hi - lo)
        self.phi = ramp_beta(x)
        self.offsets = collar.eps * (x - 1)
        self.x = _Values(self.offsets)

    def integrals(self, gaps):
        """I_0 and I_1 over each panel, stacked on a new last axis, from
        c'' - b'' at the nodes: eps (hi - lo) times the rule's sum of
        (c'' - b'') phi_eps (t - R)^j."""
        values = np.swapaxes(_powers(gaps * self.phi, self.offsets, 2), -1, -2)
        return self.scale[:, None] * (values @ self.weights)


class _CollarPass:
    """The work of one evaluator pass at its collar points s that every
    junction on the record shares: ``phi`` (phi_eps) and ``plateaus`` from
    the record's lookups, the points where phi_eps > 0 (``inside``), phi_eps
    and t - R at them (``phi_in`` and ``offsets``, also as a _Values,
    ``x``), and, when there are such points and an order below 2 reads I_0
    and I_1, the window rule on [0, x] in the ramp variable for the points
    below R (``blend``, with ``below_R`` marking them among the window's
    points; those at R read the blend totals)."""

    def __init__(self, collar: _Collar, s, orders):
        self.orders = orders
        self.phi, self.plateaus = collar.lookups(s, orders)
        self.inside = self.phi > 0.0
        t = s[self.inside]
        self.phi_in, self.offsets = self.phi[self.inside], t - collar.R
        self.x = _Values(self.offsets)
        if t.size and min(orders) < 2:
            x = _window_x(collar.R, collar.eps, t)
            self.below_R = x < 1.0
            x = x[self.below_R]
            self.blend = _WindowRule(collar, np.zeros_like(x), x)


# The two junctions that smoothed_metric builds in a row share one record.
# Keyed on the floats (R, eps): the byte images of equal extended-precision
# arrays may differ in their padding.
_collar_of = functools.lru_cache(maxsize=2)(_Collar)


class SmoothedJunction:
    """The moment-matched interpolant for one junction at one smoothing width.

    ``side`` is "f" or "g": the junction joins that function of the
    exponential extension at R, kept below the collar, to the tube's, sinh
    or cosh, kept above R.  ``b`` and ``c`` are their (value, first, second)
    derivative triples, from the collar record's two pairs, and the junction
    holds the closed form of c'' - b'' (warped._TubeGap).  Exposes the
    interpolant a with its first two derivatives, the slope and value gaps
    that the blend leaves at R, and the widths iota, omega and delta.  The
    evaluators accept scalars or arrays, preserve extended-precision inputs,
    and equal b bit-exactly below the collar [R - delta, R] and c to
    rounding above it.
    """

    def __init__(self, R: float, eps: float, side: str):
        _require_positive("smoothing width", eps)
        if side not in ("f", "g"):
            raise ParameterError(f"junction side must be 'f' or 'g', got {side!r}")
        self.side = side
        self.name = name = f"{side}-junction(R={R:g})"
        self.eps = eps = float(eps)
        self.R = R = float(R)
        # the collar record's extension rejects an R that is not positive,
        # finite and of finite sinh
        self._collar = collar = _collar_of(R, eps)
        # b, the extension's function, and c, the tube's, with their derivatives
        self.b, self.c = b, c = [tuple(getattr(w, side + d) for d in ("", "p", "pp"))
                                 for w in (collar.extension, collar.tube)]
        self._gap = _TubeGap(R, 1 if side == "f" else -1)
        b0, b1, c0, c1 = (float(fn[k](R)) for fn in (b, c) for k in (0, 1))
        # I_j = int_{R-eps}^R (c'' - b'') phi_eps (t - R)^j, j = 0, 1, on the
        # record's build panels: the blend totals, which size the correction,
        # on one, and the build check's reference on 4 and its error
        # estimate on 2
        rule = collar.rule
        panels = rule.integrals(self._gap(rule.x))
        self._blend_totals = panels[0]
        self._totals = tuple(map(float, panels[0]))
        _check_moments(f"{name}: blend stage", self._totals,
                       (panels[1:5].sum(axis=0), panels[5:].sum(axis=0)), R - eps, R)
        slope_total, value_total = self._totals
        self.slope_gap = c1 - (b1 + slope_total)
        self.value_gap = c0 - (b0 - value_total)
        self.iota = collar.width if self.slope_gap != 0.0 else 0.0
        self.omega = collar.width if self.value_gap != 0.0 else 0.0
        self.delta = max(self.eps, self.iota, self.omega)
        if collar.ramps_collapse:
            raise WidthError(f"{name}: collar width W={collar.width:.3g} (eps={eps:g}) is below "
                             f"the float64 resolution at R={R:g}: the plateau ramps collapse")

        # the slope gap times the unit correction of mass 1 and zero first
        # moment about R, plus the value gap times the reverse; the collar
        # record's pass at R gives the plateau moments and seam residuals
        slope_unit, value_unit = collar.units
        self._coef = np.longdouble(self.slope_gap) * slope_unit + np.longdouble(self.value_gap) * value_unit
        # rounding left by the moment match in a and a', and in a'' the
        # distance of the exact extension's closed-form gap from the float64
        # constants of b: carried above R as a Taylor tail, so that a, a'
        # and a'' stay seamless at R for the value-only oracle; phi_eps(R) = 1
        terms = self._terms(collar.at_R, self._coef)
        at = _Values(np.longdouble(R))
        self._res = tuple(at(b[k]) + terms[k][0] - at(c[k]) for k in (0, 1, 2))
        self._casts: dict = {}

    def _cast(self, dt):
        """lambda and the seam residuals in dtype dt, cast once per dtype."""
        cast = self._casts.get(dt)
        if cast is None:
            cast = self._casts[dt] = tuple(v.astype(dt) for v in (self._coef, *self._res))
        return cast

    def _blend(self, p: _CollarPass):
        """I_0 and I_1 at the window points of p, stacked on a new last
        axis: the pass's window rule on [0, x] below R, and the blend
        totals, rounded to the points' dtype, at R."""
        rule = p.blend
        out = np.empty(p.offsets.shape + (2,), p.offsets.dtype)
        out[...] = self._blend_totals
        if rule.scale.size:
            out[p.below_R] = rule.integrals(self._gap(rule.x))
        return out

    def _terms(self, p: _CollarPass, coef):
        """a - b, or its derivative of each of the pass's orders, at its
        collar points: the plateau correction, from the stack of each order
        that the collar record's lookups give, times lambda (``coef``), plus
        the blend stage u where phi_eps > 0: u'' = (c'' - b'') phi_eps,
        u' = I_0 and u = (s - R) I_0 - I_1, from the window rule that the
        pass shares.  The gap is read only at the points where phi_eps > 0.
        Orders 0 and 1 share one run of the rule."""
        outs = list(p.plateaus @ coef)
        if p.offsets.size:
            i = self._blend(p) if min(p.orders) < 2 else None
            for out, order in zip(outs, p.orders):
                if order == 2:
                    out[p.inside] += self._gap(p.x) * p.phi_in
                elif order == 1:
                    out[p.inside] += i[..., 0]
                else:
                    out[p.inside] += p.offsets * i[..., 0] - i[..., 1]
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
    collar's on [R - delta, R], and c's plus the seam residuals' Taylor
    tail above R (res_0 + res_1 dr + res_2 dr^2 / 2 and its derivatives,
    dr = r - R).

    One pass serves all junctions and orders: one split of r at R, one
    collar mask [R - reach, R], one _CollarPass with the collar lookups,
    the plateau stacks of each order and one window rule, and each side's
    transcendentals evaluated once per region (above R, below R, and the
    blending window).  A junction whose delta falls short of the reach has
    no gaps, so lambda = 0 and phi_eps = 0 give it exact zeros there.  The
    tube side is skipped when no radius lies above R, and when every radius
    lies on the collar a is b's value plus the collar's.
    """
    r = _floats(r)
    dt = r.dtype
    collar = junctions[0]._collar
    R = collar.R
    above = r > R
    below = ~above
    on = (r >= R - collar.reach) & below
    s = r[on]
    p = _CollarPass(collar, s, orders) if s.size else None
    every = 0 < s.size == r.size
    # b and c each only on their own side: c may overflow far below R
    if every:
        lower = _Values(s)
    else:
        ru = r[above]
        upper, lower = _Values(ru), _Values(r[below])
        dr = ru - R
    outs = []
    for j in junctions:
        coef, res0, res1, res2 = j._cast(dt)
        terms = j._terms(p, coef) if p is not None else None
        mine = []
        for k, order in enumerate(orders):
            low = lower(j.b[order])
            if every:
                out = (low + terms[k]).reshape(r.shape)
            else:
                up = upper(j.c[order]) if ru.size else low[:0]
                if order == 0:
                    up = up + res0 + res1 * dr + res2 * dr * dr / 2
                elif order == 1:
                    up = up + res1 + res2 * dr
                else:
                    up = up + res2
                out = np.empty(r.shape, np.result_type(up, low))
                out[above], out[below] = up, low
                if terms is not None:
                    out[on] += terms[k]
            mine.append(out if out.shape else out[()])
        outs.append(mine)
    return outs


# The moment-matched junction of the tube's f or g with its exponential
# extension at R, at smoothing width eps.  smoothed_metric builds through
# this module-level name, which a profiler may wrap to time junction builds.
smooth_junction = SmoothedJunction


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


def _k_grid(R: float, delta: float):
    """The first grid of the smoothed pair's Ricci supremum: the points of
    the uniform _K_GRID_N-point grid of [R - delta - 1, R + _MARGIN] that
    lie on the collar [R - delta, R], and one neighbour on each side.

    Below R - delta the pair is the extension bit for bit, with
    -Ric/2 = k_limit(R), and above R it is the tube, with -Ric/2 = 1:
    constants, which the two neighbours sample.  They also give a peak at
    either end of the collar the same bracket as on the whole grid.
    """
    rs = np.linspace(R - delta - 1.0, R + _MARGIN, _K_GRID_N)
    first = int(np.searchsorted(rs, R - delta))  # the first point at or above R - delta
    past = int(np.searchsorted(rs, R, side="right"))  # the first point above R
    return rs[max(first - 1, 0):past + 1]


def _ricci_sup_half(pair: WarpingPair, rs) -> float:
    """Grid supremum of max(-Ric)/2 for ``pair`` on the uniform grid rs,
    refined on bracket grids at the peak.

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
    best, width = -math.inf, math.inf
    while True:
        vals = _ricci_grid(pair, rs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        if width < math.inf:  # a bracket round, not the uniform grid
            m = min(max(i, 1), len(vals) - 2)
            left, mid, right = vals[m - 1:m + 2].tolist()
            if abs(left - 2.0 * mid + right) / 8.0 <= math.ulp(best):
                return best
        b_lo, b_hi = rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)]
        if not b_hi - b_lo < width:
            return best
        width = b_hi - b_lo
        # np.linspace(b_lo, b_hi, _BRACKET_POINTS) by its own formula
        rs = b_lo + _BRACKET_STEPS * (width / (_BRACKET_POINTS - 1))
        rs[-1] = b_hi


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
    # the junctions' collar record, whose extension checks its radius
    # before the Ricci grid's f g = sinh(2r)/2 up to R + margin is checked
    _collar_of(R, eps)
    _require_sinh(2.0 * (R + _MARGIN), f"tube radius {R:g}")
    jf, jg = smooth_junction(R, eps, "f"), smooth_junction(R, eps, "g")
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
    k = _ricci_sup_half(pair, _k_grid(R, delta))
    return SmoothedWarpingFamily(
        R=R, eps=eps, margin=_MARGIN,
        junction_f=jf, junction_g=jg,
        pair=pair, delta=delta, k_eps=k,
    )
