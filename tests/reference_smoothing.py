"""An independent rebuild of the smoothed tube metric, for tests.

Written from the construction that drillvol.smoothing's module docstring
states, without importing that module: numpy only, in float64, with every
integral a trapezoid sum on a dense grid.  On the collar [R - W, R],
W = 2 eps^(1/3), the interpolant a = b + u has

    u'' = (c'' - b'') phi_eps + lambda_1 psi_1 + lambda_2 psi_2,

with phi_eps(r) = beta((r - R)/eps + 1), beta the normalized ramp of the
bump alpha(x) = exp(-1/x^2) exp(-1/(1 - x)^2) on (0, 1), and the plateaus
psi_1 on [R - W, R - 2W/3] and psi_2 on [R - 2W/3, R], each rising and
falling over W/20.  u and u' vanish at R - W, and lambda makes a and a' meet
c and c' at R:

    int u'' = c'(R) - b'(R),    int (R - s) u'' = c(R) - b(R).

So a = b below the collar and a = c above R.  u' and u are cumulative
trapezoid sums of u'' and u'.  The grid is uniform on [R - W, R - eps] and,
finer, on the blending window [R - eps, R], plus any requested radii; beta
is a cumulative trapezoid sum on a uniform grid of [0, 1], read between its
nodes by cubic Hermite interpolation with slope alpha / int alpha.

The tolerances below bound drillvol's distance from this rebuild, relative
where the value exceeds 1.  On the 9 criterion-7 pairs, 12 seeded pairs of
smooth_sweep's range and (0.4, 0.1), at 2502 radii across each collar, the
largest distances were 8.5e-13 on a, 3.2e-11 on a', 1.6e-11 on a'' and
1.6e-10 on k_eps; the tolerances are about three times those.  They come
from the trapezoid sums here, not from drillvol: with half the grid points
each grows about fourfold, and k_eps is a grid maximum here and a refined
one there.
"""

import functools
import math

import numpy as np

RAMP_PANELS = 2 ** 20
COLLAR_POINTS = 2 ** 18
WINDOW_POINTS = 2 ** 16

TOL_A, TOL_A1, TOL_A2, TOL_K = 3e-12, 1e-10, 5e-11, 5e-10


def bump(x):
    """alpha(x) on (0, 1), 0 outside."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / xi ** 2 - 1.0 / (1.0 - xi) ** 2)
    return out


@functools.lru_cache(maxsize=None)
def _ramp_table():
    """beta and its slope alpha / int alpha at the nodes of a uniform grid
    of [0, 1]."""
    x = np.linspace(0.0, 1.0, RAMP_PANELS + 1)
    alpha = bump(x)
    cum = _cumtrapz(alpha, x)
    return cum / cum[-1], alpha / cum[-1]


def beta(x):
    """The normalized ramp: 0 for x <= 0, 1 for x >= 1."""
    values, slopes = _ramp_table()
    x = np.asarray(x, float)
    out = (x >= 1.0).astype(float)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside] * RAMP_PANELS
    i = np.minimum(xi.astype(int), RAMP_PANELS - 1)
    t = xi - i
    out[inside] = (values[i] + t * t * (3.0 - 2.0 * t) * (values[i + 1] - values[i])
                   + t * (1.0 - t) * ((1.0 - t) * slopes[i] - t * slopes[i + 1]) / RAMP_PANELS)
    return out


def _cumtrapz(y, s):
    """The trapezoid sums of y from s[0] to each point of s."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(s))])


def _trapz(y, s):
    return _cumtrapz(y, s)[-1]


def collar_grid(R, eps, extra=()):
    """The dense grid of [R - W, R], with the radii of ``extra`` that lie
    on it."""
    W = 2.0 * eps ** (1.0 / 3.0)
    s = np.concatenate([np.linspace(R - W, R - eps, COLLAR_POINTS),
                        np.linspace(R - eps, R, WINDOW_POINTS),
                        [r for r in extra if R - W <= r <= R]])
    return np.unique(s)


def ramps(R, eps, s):
    """phi_eps and the two plateaus psi_1, psi_2 on the collar grid s."""
    W = 2.0 * eps ** (1.0 / 3.0)
    w, cut = W / 20.0, R - 2.0 * W / 3.0
    psi = np.array([beta((s - (R - W)) / w) - beta((s - (cut - w)) / w),
                    beta((s - cut) / w) - beta((s - (R - w)) / w)])
    return beta((s - R) / eps + 1.0), psi


def junction(b, c, R, s, phi, psi):
    """a, a' and a'' on the collar grid ``s`` of R for the derivative
    triples b and c (numpy callables) that meet to first order at R, from
    phi_eps and the plateaus there."""
    blend = (c[2](s) - b[2](s)) * phi
    moments = np.array([[_trapz(p, s) for p in psi],
                        [_trapz((R - s) * p, s) for p in psi]])
    gaps = np.array([c[1](R) - b[1](R) - _trapz(blend, s),
                     c[0](R) - b[0](R) - _trapz((R - s) * blend, s)])
    u2 = blend + np.linalg.solve(moments, gaps) @ psi
    u1 = _cumtrapz(u2, s)
    return b[0](s) + _cumtrapz(u1, s), b[1](s) + u1, b[2](s) + u2


def sides(R):
    """The extension's and the tube's triples for f and for g."""
    cth, tnh = 1.0 / math.tanh(R), math.tanh(R)

    def exponential(scale, rate):
        return tuple(lambda r, k=k: scale * rate ** k * np.exp(rate * (np.asarray(r) - R))
                     for k in range(3))
    return ((exponential(math.sinh(R), cth), (np.sinh, np.cosh, np.sinh)),
            (exponential(math.cosh(R), tnh), (np.cosh, np.sinh, np.cosh)))


def smoothed_pair(R, eps, rs):
    """(a, a', a'') of the f and of the g junction at the radii rs, b's below
    the collar and c's above R, and k_eps, the dense supremum of -Ric/2."""
    rs = np.asarray(rs, float)
    s = collar_grid(R, eps, rs)
    phi, psi = ramps(R, eps, s)
    at = np.minimum(np.searchsorted(s, rs), s.size - 1)
    pairs, collars = [], []
    for b, c in sides(R):
        collar = junction(b, c, R, s, phi, psi)
        collars.append(collar)
        pairs.append(tuple(np.where(rs > R, c[k](rs), np.where(rs < s[0], b[k](rs), v[at]))
                           for k, v in enumerate(collar)))
    return pairs, k_eps(R, *collars)


def k_eps(R, f, g):
    """The dense supremum of -Ric/2 from (a, a', a'') of f and g on the
    collar grid: the grid's maximum, or the extension's (coth^2 R + 1)/2
    below the collar (the tube's 1 above R is smaller)."""
    (a, a1, a2), (b, b1, b2) = f, g
    krt, krl, ktl = -a2 / a, -b2 / b, -a1 * b1 / (a * b)
    half = -0.5 * np.minimum(np.minimum(krt + krl, krt + ktl), krl + ktl)
    return max(float(half.max()), 0.5 * (1.0 / math.tanh(R) ** 2 + 1.0))


def rel_error(got, want):
    """|got - want|, relative where |want| exceeds 1."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    return np.abs(got - want) / np.maximum(np.abs(want), 1.0)
