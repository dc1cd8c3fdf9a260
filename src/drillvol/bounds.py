"""Volume inequalities for drilling a closed geodesic, and their corollaries.

Drilling a geodesic of length l with an embedded tube of radius R out of a
hyperbolic manifold of volume V bounds the drilled manifold's hyperbolic
volume two ways:

    tight:  (coth R coth 2R)^(3/2) (V + pi l sinh^2 R (coth R / coth 2R - 1))
    coarse: (coth R)^(5/2) (coth 2R)^(1/2) V

The tight bound is below the coarse one exactly when the solid tube fits,
i.e. pi l sinh^2 R <= V.  Inverting the coarse bound against the known
minimal cusped volume yields the minimum-volume corollary: every orientable
hyperbolic 3-manifold has volume > 0.32, and the shortest geodesic of a
minimal-volume manifold has tube radius below 0.956.

The tube's closed forms (``coth``, ``TubeParams`` and the two tube volumes)
live here too: this module needs only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError, ParameterError

__all__ = [
    "TubeParams",
    "tube_volume",
    "extended_tube_volume",
    "coth",
    "CONSTANTS",
    "DrillEstimate",
    "GmtCase",
    "MinVolumeReport",
    "coarse_factor",
    "k_limit",
    "drilled_volume_bound",
    "parent_volume_lower_bound",
    "solve_radius_bound",
    "min_volume_corollary",
    "gmt_cases",
    "bridgeman_bound",
]

# Literature constants used by the corollary chain, with their provenance.
# Single source of truth for all golden tests.
CONSTANTS: dict[str, tuple[float, str]] = {
    "cusped_volume_min": (2.0298, "Cao-Meyerhoff bound: minimal orientable cusped volume"),
    "weeks_volume": (0.9427, "volume of the Weeks manifold, conjecturally minimal"),
    "weeks_volume_rounded": (0.943, "rounded Weeks volume used in the radius equation"),
    "gmt_radius_threshold": (math.log(3.0) / 2.0, "Gabai-Meyerhoff-Thurston case 1 tube radius"),
    "gmt_case2_radius_hi": (1.0953 / 2.0, "Gabai-Meyerhoff-Thurston case 2 upper radius"),
    "gmt_case2_radius_lo": (1.0591 / 2.0, "Gabai-Meyerhoff-Thurston case 2 lower radius"),
    "gmt_case2_length_min": (1.059, "Gabai-Meyerhoff-Thurston case 2 length bound"),
    "gmt_case3_radius": (0.8314 / 2.0, "Gabai-Meyerhoff-Thurston case 3 radius (Vol3)"),
    "gmt_case3_volume": (1.0149, "volume of Vol3, third smallest census manifold"),
    "min_volume_target": (0.32, "claimed lower bound for the minimal orientable volume"),
    "radius_bound_target": (0.956, "claimed upper bound for the minimal-geodesic tube radius"),
}


TWO_PI = 2.0 * math.pi


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


def _require_positive(what: str, value: float) -> None:
    """Reject a value that is not positive, or not finite."""
    if not (value > 0.0) or not math.isfinite(value):
        raise ParameterError(f"{what} must be positive and finite, got {value}")


@dataclass(frozen=True)
class TubeParams:
    """Tube radius and core geodesic length.

    The tube's rotational holonomy is not carried: no volume or curvature
    computed here depends on it.
    """

    R: float
    l: float

    def __post_init__(self) -> None:
        _require_positive("tube radius", self.R)
        _require_positive("core length", self.l)


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


def _require_radius(R: float) -> None:
    """A tube radius R > 0 for which coth(2R) is finite."""
    _require_positive("R", R)
    _require_sinh(2.0 * R, f"tube radius {R:g}")


def _require_finite_factor(value: float, R: float) -> float:
    """A bound's factor at tube radius R, rejected where it overflows: each
    grows like a power of 1/R as R -> 0."""
    if not math.isfinite(value):
        raise ParameterError(f"tube radius {R:g} is too small: the bounds overflow")
    return value


def coarse_factor(R: float) -> float:
    """(coth R)^(5/2) (coth 2R)^(1/2): strictly decreasing in R, limit 1."""
    _require_radius(R)
    try:
        value = coth(R) ** 2.5 * coth(2.0 * R) ** 0.5
    except OverflowError:  # float ** raises where float * gives inf
        value = math.inf
    return _require_finite_factor(value, R)


def k_limit(R: float) -> float:
    """k = coth R coth 2R of the tight bound, the limit of the smoothed
    metrics' Ricci lower bound constant."""
    _require_radius(R)
    return _require_finite_factor(coth(R) * coth(2.0 * R), R)


@dataclass(frozen=True)
class DrillEstimate:
    """Both drilled-volume bounds for one (volume, length, radius) triple.

    ``tube_volume`` is pi l sinh^2 R and ``extended_tube_volume`` the
    volume of the extended region under the exponential pair.
    ``tube_fits`` records whether the tube volume is at most vol_parent; the
    tight bound is guaranteed below the coarse one only in that case, so
    when the flag is false the estimate carries a warning instead of an
    ordering claim.
    """

    vol_parent: float
    l: float
    R: float
    k: float
    tube_volume: float
    extended_tube_volume: float
    bound_tight: float
    bound_coarse: float
    tube_fits: bool
    warnings: tuple[str, ...] = field(default=())


def drilled_volume_bound(vol_parent: float, l: float, R: float) -> DrillEstimate:
    """Evaluate both volume bounds for drilling a geodesic of length l."""
    _require_positive("vol_parent", vol_parent)
    _require_positive("l", l)
    k = k_limit(R)
    params = TubeParams(R=R, l=l)
    tube_vol, ext_vol = tube_volume(params), extended_tube_volume(params)
    ratio = coth(R) / coth(2.0 * R)
    try:
        tight = k ** 1.5 * (vol_parent + tube_vol * (ratio - 1.0))
        coarse = coarse_factor(R) * vol_parent
    except OverflowError:  # k grows like 1/R^2 as R -> 0
        raise ParameterError(f"tube radius {R:g} is too small: the bounds overflow") from None
    values = {"tube volume": tube_vol, "extended tube volume": ext_vol,
              "tight bound": tight, "coarse bound": coarse}
    overflow = [name for name, value in values.items() if not math.isfinite(value)]
    if overflow:
        raise ParameterError(f"{', '.join(overflow)} not finite for vol={vol_parent:g}, "
                             f"l={l:g}, R={R:g}")
    fits = tube_vol <= vol_parent
    warn: tuple[str, ...] = ()
    if not fits:
        warn = (
            f"tube volume {tube_vol:.6g} exceeds the parent volume {vol_parent:.6g}; "
            "the tight bound is reported but is not guaranteed below the coarse bound",
        )
    return DrillEstimate(
        vol_parent=vol_parent, l=l, R=R, k=k,
        tube_volume=tube_vol, extended_tube_volume=ext_vol,
        bound_tight=tight, bound_coarse=coarse,
        tube_fits=fits, warnings=warn,
    )


def parent_volume_lower_bound(vol_drilled: float, R: float) -> float:
    """Invert the coarse bound: the parent volume exceeds drilled / factor."""
    _require_positive("vol_drilled", vol_drilled)
    return vol_drilled / coarse_factor(R)


def solve_radius_bound(vol_drilled_min: float, vol_parent_max: float) -> float:
    """Unique R0 with coarse_factor(R0) * vol_parent_max = vol_drilled_min.

    The factor decreases strictly from +inf to 1, so a root exists exactly
    when vol_drilled_min > vol_parent_max > 0.  Bisection on [1e-6, 50] to a
    bracket of 1e-12: unconditionally convergent and trivially auditable.  A
    ratio whose root lies outside that bracket raises :class:`DomainError`.
    """
    _require_positive("vol_drilled_min", vol_drilled_min)
    _require_positive("vol_parent_max", vol_parent_max)
    target = vol_drilled_min / vol_parent_max
    if target <= 1.0:
        raise DomainError(
            f"no finite radius: need vol_drilled_min > vol_parent_max, "
            f"got ratio {target:.6g} <= 1"
        )
    lo, hi = 1e-6, 50.0
    if coarse_factor(hi) >= target:
        raise DomainError(f"ratio {target:.6g} too close to 1 for the bracket [{lo}, {hi}]")
    f_lo = coarse_factor(lo) - target
    if f_lo <= 0.0:
        raise DomainError(f"ratio {target:.6g} too large for the bracket [{lo}, {hi}]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = coarse_factor(mid) - target
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GmtCase:
    """One case of the shortest-geodesic trichotomy for closed manifolds."""

    case_id: int
    radius_lo: Optional[float]
    radius_hi: Optional[float]
    length_min: Optional[float]
    note: str


def gmt_cases() -> list[GmtCase]:
    """The Gabai-Meyerhoff-Thurston trichotomy for a minimal length geodesic."""
    return [
        GmtCase(
            case_id=1,
            radius_lo=CONSTANTS["gmt_radius_threshold"][0],
            radius_hi=None,
            length_min=None,
            note="tube radius exceeds (ln 3)/2",
        ),
        GmtCase(
            case_id=2,
            radius_lo=CONSTANTS["gmt_case2_radius_lo"][0],
            radius_hi=CONSTANTS["gmt_case2_radius_hi"][0],
            length_min=CONSTANTS["gmt_case2_length_min"][0],
            note="intermediate radius band with a long core geodesic; volume > 1.01",
        ),
        GmtCase(
            case_id=3,
            radius_lo=CONSTANTS["gmt_case3_radius"][0],
            radius_hi=CONSTANTS["gmt_case3_radius"][0],
            length_min=None,
            note=f"the exceptional manifold Vol3, volume {CONSTANTS['gmt_case3_volume'][0]}",
        ),
    ]


@dataclass(frozen=True)
class MinVolumeReport:
    """The full minimum-volume corollary chain with provenance.

    ``radius_bound`` solves the coarse-factor equation with the rounded
    Weeks volume 0.943; ``radius_bound_weeks`` repeats it with 0.9427 for
    comparison (the published chain uses the rounded value).
    """

    cusped_volume_min: float
    weeks_volume: float
    equation_volume: float
    radius_threshold: float
    coarse_factor_at_threshold: float
    lower_bound: float
    lower_bound_target: float
    radius_bound: float
    radius_bound_weeks: float
    radius_bound_target: float
    case_filter: str

    @property
    def lower_bound_ok(self) -> bool:
        return self.lower_bound > self.lower_bound_target

    @property
    def radius_bound_ok(self) -> bool:
        return self.radius_bound < self.radius_bound_target


def min_volume_corollary() -> MinVolumeReport:
    """Assemble the minimum-volume corollary from the constants table.

    A cusped manifold has volume above the Weeks volume, so the minimizer is
    closed; the trichotomy cases with volume > 1.01 are excluded the same
    way, leaving tube radius > (ln 3)/2.  Dividing the minimal cusped volume
    by the coarse factor at that threshold bounds the parent volume from
    below, and solving the factor equation bounds the tube radius from
    above.
    """
    cusped = CONSTANTS["cusped_volume_min"][0]
    weeks = CONSTANTS["weeks_volume"][0]
    eq_vol = CONSTANTS["weeks_volume_rounded"][0]
    thresh = CONSTANTS["gmt_radius_threshold"][0]
    case3 = CONSTANTS["gmt_case3_volume"][0]
    return MinVolumeReport(
        cusped_volume_min=cusped,
        weeks_volume=weeks,
        equation_volume=eq_vol,
        radius_threshold=thresh,
        coarse_factor_at_threshold=coarse_factor(thresh),
        lower_bound=parent_volume_lower_bound(cusped, thresh),
        lower_bound_target=CONSTANTS["min_volume_target"][0],
        radius_bound=solve_radius_bound(cusped, eq_vol),
        radius_bound_weeks=solve_radius_bound(cusped, weeks),
        radius_bound_target=CONSTANTS["radius_bound_target"][0],
        case_filter=(
            "cases 2 and 3 force volume > 1.01 > "
            f"{weeks} (Weeks volume), so a minimal-volume manifold falls in case 1; "
            f"case 3 alone has volume {case3}"
        ),
    )


def bridgeman_bound(vol_parent: float, l: float) -> float:
    """Conjectured drilling bound vol_parent + pi * l (additive in l)."""
    _require_positive("vol_parent", vol_parent)
    if l < 0.0 or not math.isfinite(l):
        raise ParameterError(f"length must be nonnegative and finite, got {l}")
    bound = vol_parent + math.pi * l
    if not math.isfinite(bound):
        raise ParameterError(f"conjectured bound not finite for vol={vol_parent:g}, l={l:g}")
    return bound
