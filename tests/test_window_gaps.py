"""The closed-form window gaps of the smoothed metric.

smoothed_metric smooths the exponential extension into the tube, and each
junction reads c'' - b'' (the tube's second derivative less the
extension's) from warped._TubeGap at the offsets from R of the points it
reads: the nodes of the window rules and the collar's points.
Subtracting the sides leaves only rounding noise once sinh R is about 1e8,
and the build check then judged noise; below R = 10 the sides' difference
is exact to rounding and serves as the reference here.
"""

import importlib.util
import math

import numpy as np
import pytest

from conftest import REPO_ROOT, cached_family
from drillvol import hyperbolic_tube, kerckhoff_extension, smoothed_metric
from drillvol.smoothing import _collar_of
from drillvol.warped import _TubeGap, _Values

LD = np.longdouble
EPS_LD = float(np.finfo(LD).eps)

pytestmark = pytest.mark.skipif(np.finfo(LD).nmant != 63,
                                reason="bounds measured with the x87 80-bit longdouble")

# The gap at R + x for f and for g, each as float64 (hi, lo) with hi + lo the
# value to about 1e-32, computed once with mpmath at 500 digits from the
# definition sinh(R + x) - sinh R coth^2 R e^(x coth R) (and its cosh, tanh
# counterpart), at the binary values of R and x.  At R = 300 the two sides
# are about 1e130 and their difference 1e-130, so the subtraction needs
# more than 260 digits.  R = 354 is near the largest radius a build takes
# (sinh 2R overflows past 355.2).
PINNED = {
    (20.0, -0.5): (("-0x1.9558cda6ea65fp-29", "-0x1.683470ed0feeap-83"),
                   ("0x1.9558cda6ea65fp-29", "0x1.61a149eea60dap-83")),
    (20.0, -0.1): (("-0x1.01b246912626ap-28", "0x1.1282e4f029457p-82"),
                   ("0x1.01b246912626ap-28", "-0x1.3218363eb2472p-82")),
    (20.0, -0.001): (("-0x1.1afff2b5a8416p-28", "-0x1.6bdb5f5224564p-83"),
                     ("0x1.1afff2b5a8416p-28", "0x1.156583c41d469p-83")),
    (20.0, -1e-06): (("-0x1.1b4852ce8604ep-28", "0x1.e0ad8775632dep-83"),
                     ("0x1.1b4852ce8604ep-28", "-0x1.1bb2ed6981acbp-82")),
    (37.25, -0.5): (("-0x1.b687101d9a8eap-54", "-0x1.2d8e24b92ce22p-108"),
                    ("0x1.b687101d9a8eap-54", "0x1.2d8e24b92ce22p-108")),
    (37.25, -0.1): (("-0x1.16ca70c7a4ae1p-53", "-0x1.8b41542c26207p-109"),
                    ("0x1.16ca70c7a4ae1p-53", "0x1.8b41542c26204p-109")),
    (37.25, -0.001): (("-0x1.322a5bfe534ffp-53", "-0x1.3e52582d52e10p-107"),
                      ("0x1.322a5bfe534ffp-53", "0x1.3e52582d52e0fp-107")),
    (37.25, -1e-06): (("-0x1.3278a8c15246ap-53", "-0x1.264c4e62d40ffp-107"),
                      ("0x1.3278a8c15246ap-53", "0x1.264c4e62d40ffp-107")),
    (100.0, -0.5): (("-0x1.2fe416770b3bbp-144", "0x1.0495c59f2fe06p-201"),
                    ("0x1.2fe416770b3bbp-144", "-0x1.0495c59f2fe06p-201")),
    (100.0, -0.1): (("-0x1.82649d4a9aae3p-144", "-0x1.d68fce6318e65p-198"),
                    ("0x1.82649d4a9aae3p-144", "0x1.d68fce6318e65p-198")),
    (100.0, -0.001): (("-0x1.a85550383ca72p-144", "-0x1.efb62ffbb6571p-199"),
                      ("0x1.a85550383ca72p-144", "0x1.efb62ffbb6571p-199")),
    (100.0, -1e-06): (("-0x1.a8c1d577ecd58p-144", "-0x1.609b78b5abcbdp-198"),
                      ("0x1.a8c1d577ecd58p-144", "0x1.609b78b5abcbdp-198")),
    (200.0, -0.5): (("-0x1.f837fe9c9dfe7p-289", "0x1.9b63d836f0e8fp-345"),
                    ("0x1.f837fe9c9dfe7p-289", "-0x1.9b63d836f0e8fp-345")),
    (200.0, -0.1): (("-0x1.408daf4a6c80ep-288", "-0x1.f95298543dff3p-342"),
                    ("0x1.408daf4a6c80ep-288", "0x1.f95298543dff3p-342")),
    (200.0, -0.001): (("-0x1.600762944049bp-288", "0x1.c86303afd545cp-343"),
                      ("0x1.600762944049bp-288", "-0x1.c86303afd545cp-343")),
    (200.0, -1e-06): (("-0x1.60616a085dfbep-288", "-0x1.dd63c23ba9fa6p-345"),
                      ("0x1.60616a085dfbep-288", "0x1.dd63c23ba9fa6p-345")),
    (300.0, -0.5): (("-0x1.a24d5d98830f7p-433", "0x1.595379cebafe8p-487"),
                    ("0x1.a24d5d98830f7p-433", "-0x1.595379cebafe8p-487")),
    (300.0, -0.1): (("-0x1.09eec1a5d6e66p-432", "-0x1.52241d209da1bp-486"),
                    ("0x1.09eec1a5d6e66p-432", "0x1.52241d209da1bp-486")),
    (300.0, -0.001): (("-0x1.240b7654a6afap-432", "-0x1.64dff19f03c37p-486"),
                      ("0x1.240b7654a6afap-432", "0x1.64dff19f03c37p-486")),
    (300.0, -1e-06): (("-0x1.2456269b0ccd4p-432", "-0x1.9cc426ecd24f6p-487"),
                      ("0x1.2456269b0ccd4p-432", "0x1.9cc426ecd24f6p-487")),
    (354.0, -0.5): (("-0x1.be9bfd7310530p-511", "-0x1.f0a32b5588a0dp-565"),
                    ("0x1.be9bfd7310530p-511", "0x1.f0a32b5588a0dp-565")),
    (354.0, -0.1): (("-0x1.1bedbf04b4b62p-510", "0x1.d53dba123d377p-564"),
                    ("0x1.1bedbf04b4b62p-510", "-0x1.d53dba123d377p-564")),
    (354.0, -0.001): (("-0x1.37ced0db419a7p-510", "-0x1.554d1caa205a9p-565"),
                      ("0x1.37ced0db419a7p-510", "0x1.554d1caa205a9p-565")),
    (354.0, -1e-06): (("-0x1.381e8f0754debp-510", "0x1.b5af87864a40dp-565"),
                      ("0x1.381e8f0754debp-510", "-0x1.b5af87864a40dp-565")),
}


def second_derivatives(R: float):
    """The closed form's sign and the sides' second derivatives b'' and c''
    of both junctions: the extension's f'' against sinh, its g'' against
    cosh."""
    ext, tube = kerckhoff_extension(R), hyperbolic_tube()
    return [(1, ext.fpp, tube.fpp), (-1, ext.gpp, tube.gpp)]


@pytest.mark.parametrize("R,x", list(PINNED))
def test_closed_form_matches_high_precision_values(R, x):
    """At R from 20 to 354, where the sides' difference is pure noise, the
    closed form is within 4 units of extended-precision eps of the pinned
    values, relative (1.6e-19, 1.5 units, at most, measured)."""
    for sign, (hi, lo) in zip((1, -1), PINNED[R, x]):
        want = LD(float.fromhex(hi)) + LD(float.fromhex(lo))
        got = _TubeGap(R, sign)(_Values(np.array([x], LD)))[0]
        assert abs(got - want) <= 4 * EPS_LD * abs(want)


@pytest.mark.parametrize("R", [0.05, 0.4, 0.8, 1.5, 8.0])
@pytest.mark.parametrize("eps", [0.04, 1e-2, 1e-3])
def test_closed_form_agrees_with_the_sides_difference(R, eps):
    """Below R = 10 the sides' difference, in extended precision at the
    nodes of the record's build rule, is exact to the float64 rounding of
    the extension's constants, and the closed form (the exact extension's
    gap) agrees with it within 2.5 float64 units in the last place of
    max(|b''|, |c''|): 1.9 at most, measured, at these radii and widths."""
    rule = _collar_of(R, eps).rule
    t = R + rule.offsets
    for sign, b2, c2 in second_derivatives(R):
        sides = c2(t) - b2(t)
        scale = np.maximum(np.abs(b2(t)), np.abs(c2(t))).astype(np.float64)
        assert np.all(np.abs(_TubeGap(R, sign)(rule.x) - sides) <= 2.5 * np.spacing(scale))


_spec = importlib.util.spec_from_file_location("large_r_scan", REPO_ROOT / "tools" / "large_r_scan.py")
large_r_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(large_r_scan)

# the seeded large-R scan's first three pairs whose build check failed on
# rounding noise while the junction subtracted its sides: (301.26, 0.0326),
# (201.01, 1.21e-6) and (336.97, 2.83e-3)
NOISY_AT_LARGE_R = [large_r_scan.pairs(46)[i] for i in (0, 17, 45)]


@pytest.mark.parametrize("R,eps", NOISY_AT_LARGE_R)
def test_large_radius_builds_pass_their_check(R, eps):
    """Pairs whose build check judged rounding noise now build: the blend
    totals integrate the closed form, of the size of 1/sinh R, and agree
    with the build check's reference.  The f gap is about -1/sinh R and the g gap
    about 1/cosh R on the window, so the slope totals lie strictly between 0
    and eps times those, and k_eps is the tube's 1 to rounding."""
    fam = smoothed_metric(R, eps)
    f_total, g_total = fam.junction_f._totals[0], fam.junction_g._totals[0]
    assert 0.0 < -f_total < eps / math.sinh(R)
    assert 0.0 < g_total < eps / math.cosh(R)
    assert abs(fam.k_eps - 1.0) <= 4e-16


def test_pairs_below_the_noise_keep_their_gaps():
    """Where the sides' difference is still exact to rounding, the closed
    form moves the blend totals of the criterion-7 family (0.8, 1e-2) by
    rounding alone: within 1e-15 relative of totals that the record's build
    rule integrates from the sides' difference at its nodes."""
    fam = cached_family(0.8, 1e-2)
    rule = fam.junction_f._collar.rule
    t = 0.8 + rule.offsets
    for junction, (_, b2, c2) in zip((fam.junction_f, fam.junction_g), second_derivatives(0.8)):
        plain = tuple(map(float, rule.integrals(c2(t) - b2(t))[0]))
        assert np.allclose(junction._totals, plain, rtol=1e-15, atol=0.0)
