"""The blend integrals against high-precision values.

I_j(s) = int_{R-eps}^s (c'' - b'') phi_eps (t - R)^j dt, j = 0, 1, for the
extension against the tube (f: sinh, g: cosh) is one Gauss-Legendre rule on
[0, x] in the ramp variable x = (s - R)/eps + 1 (smoothing._WindowRule): at
s = R the blend totals, and at a point inside the blending window an
evaluator pass's value there.  The pinned values were computed once with
mpmath at 140 digits, by tanh-sinh quadrature in x of the gap's definition
sinh(R + y) - sinh R coth^2 R e^(y coth R) at y = t - R (and its cosh,
tanh counterpart) times beta(x) = 126 x^5 - 420 x^6 + 540 x^7 - 315 x^8 + 70 x^9
and (eps (x - 1))^j, at the binary values of R, eps and s; Gauss-Legendre
quadrature there agreed to 4e-115.  Each is stored as float64 (hi, lo)
with hi + lo the value to about 1e-32.
"""

import numpy as np
import pytest

from drillvol import smooth_junction
from drillvol.smoothing import _CollarPass

LD = np.longdouble

pytestmark = pytest.mark.skipif(np.finfo(LD).nmant != 63,
                                reason="bounds measured with the x87 80-bit longdouble")

# (R, eps): {s: ((I_0, I_1) of f, (I_0, I_1) of g)} at s = R, R - eps/3 and
# R - 3 eps/4, each value as (hi, lo)
PINNED = {
    (0.05, 0.04): {
        0.05: (
            (("-0x1.4c6c119248f48p-2", "-0x1.d48c44be5bc0dp-57"),
             ("0x1.a69af393fcedbp-9", "-0x1.cd8d5b9af2296p-69")),
            (("0x1.471ecb8ecef54p-6", "0x1.ede0d09e3012fp-60"),
             ("-0x1.c8b31fc6fd9d9p-13", "-0x1.05dcffecaeb8cp-68")),
        ),
        0.03666666666666667: (
            (("-0x1.8da43b71a2bcap-4", "0x1.d8dbc70a859c9p-59"),
             ("0x1.d90e1c735f392p-10", "0x1.bb6c27124cffap-64")),
            (("0x1.ce3165376bff2p-8", "0x1.2824ace95ab13p-63"),
             ("-0x1.17e7353507b42p-13", "0x1.a9efdb50a5831p-67")),
        ),
        0.020000000000000004: (
            (("-0x1.080f6161e132ap-10", "0x1.70c0d74f8e15ep-64"),
             ("0x1.0aa1db70e8a99p-15", "-0x1.dd9bd66a95584p-69")),
            (("0x1.8c5b41326d306p-14", "0x1.34900ed348ea4p-69"),
             ("-0x1.90a904366d8cfp-19", "0x1.d83d821a65a56p-78")),
        ),
    },
    (0.5, 0.1): {
        0.5: (
            (("-0x1.72f83b1a738b9p-4", "-0x1.e37a814a8fd7fp-58"),
             ("0x1.3bd1cfbcd9701p-9", "-0x1.36c7c708a2ad7p-64")),
            (("0x1.66e529acf1b5dp-5", "0x1.763ef7c0b3d46p-63"),
             ("-0x1.37a7e79ce3b27p-10", "0x1.d21084611f9abp-64")),
        ),
        0.4666666666666667: (
            (("-0x1.f62a6654251cfp-6", "0x1.d1b9b0eef8640p-62"),
             ("0x1.7a512641b2e36p-10", "0x1.40634aae95b22p-65")),
            (("0x1.f6e1cb10a2182p-7", "-0x1.4f640212fd404p-63"),
             ("-0x1.7c54ec7bc91f3p-11", "-0x1.68ad1454da13dp-65")),
        ),
        0.425: (
            (("-0x1.930fd44588fe3p-12", "0x1.a97f3fe43c10bp-66"),
             ("0x1.fd269ccd3c09dp-16", "-0x1.f67cc6dcca977p-72")),
            (("0x1.a9f8e0b8d1350p-13", "0x1.63f55302fb95bp-67"),
             ("-0x1.0d1c00dacc5a8p-16", "0x1.40510f1162e7ap-71")),
        ),
    },
    (1.2, 0.001): {
        1.2: (
            (("-0x1.5b388db3b5f4cp-12", "-0x1.312a46f87f7cfp-66"),
             ("0x1.83d2c36f770f9p-24", "0x1.bbfbeb3548fcep-79")),
            (("0x1.217dbefcf3587p-12", "0x1.45911be3bda35p-67"),
             ("-0x1.435b4f559a9b9p-24", "-0x1.c584eea18acd9p-78")),
        ),
        1.1996666666666667: (
            (("-0x1.ea9f15ba4eaafp-14", "0x1.1a15fd8c6ae2cp-71"),
             ("0x1.db640502e1348p-25", "-0x1.356aa340b6d36p-79")),
            (("0x1.9914620217f40p-14", "-0x1.7ccec04cbfef8p-70"),
             ("-0x1.8c62341726120p-25", "-0x1.f4d9fe8104621p-79")),
        ),
        1.19925: (
            (("-0x1.a4b5e6f38f3a2p-20", "-0x1.354139c21aaf2p-74"),
             ("0x1.543907423890dp-30", "-0x1.c49460c7397e1p-84")),
            (("0x1.5ed42264d6f9bp-20", "-0x1.5c58753a91ddep-74"),
             ("-0x1.1bb5dc1478109p-30", "0x1.78a50c5ec8dacp-87")),
        ),
    },
    (8.0, 0.01): {
        8.0: (
            (("-0x1.c106f54aac673p-19", "0x1.ed7439ac95c71p-74"),
             ("0x1.3923c6fcd46c3p-27", "-0x1.d30f3cb3acc2dp-81")),
            (("0x1.c106eeb45c4adp-19", "-0x1.f8676b8d733d7p-73"),
             ("-0x1.3923c2679658ep-27", "-0x1.cee0a0d78a8f3p-81")),
        ),
        7.996666666666667: (
            (("-0x1.3cade5164c051p-20", "-0x1.ac89a3bab8956p-76"),
             ("0x1.7f7ba72fe4c0bp-28", "-0x1.dfdaabe472747p-82")),
            (("0x1.3cade075cfd7fp-20", "0x1.0b3de1d2ee1a1p-75"),
             ("-0x1.7f7ba19635689p-28", "-0x1.7149bfb8a32f6p-85")),
        ),
        7.9925: (
            (("-0x1.0ecdc53dd91cep-26", "-0x1.034a165a988f6p-82"),
             ("0x1.11bd9f0ae9fdap-33", "0x1.8c42ea3e35f71p-91")),
            (("0x1.0ecdc14f6dd97p-26", "-0x1.c1568fca43517p-81"),
             ("-0x1.11bd9b119bfc8p-33", "0x1.f0cefd419c908p-88")),
        ),
    },
    (37.25, 0.13): {
        37.25: (
            (("-0x1.33fd7e4e034d0p-57", "0x1.aa2a1f2d73987p-114"),
             ("0x1.5867ddff5853bp-62", "0x1.6a85c65a377fbp-117")),
            (("0x1.33fd7e4e034d0p-57", "-0x1.aa2a1f2d7398ep-114"),
             ("-0x1.5867ddff5853bp-62", "-0x1.6a85c65a377f9p-117")),
        ),
        37.20666666666666: (
            (("-0x1.a8836d654dd09p-59", "-0x1.6e4edccb0d438p-113"),
             ("0x1.a09da958db000p-63", "-0x1.3b0b703771167p-117")),
            (("0x1.a8836d654dd09p-59", "0x1.6e4edccb0d437p-113"),
             ("-0x1.a09da958db000p-63", "0x1.3b0b703771168p-117")),
        ),
        37.1525: (
            (("-0x1.5eb3be6d0b605p-65", "-0x1.091c9245563cfp-119"),
             ("0x1.1ffe4948c964fp-68", "0x1.0c11a246f172ap-125")),
            (("0x1.5eb3be6d0b605p-65", "0x1.091c9245563cep-119"),
             ("-0x1.1ffe4948c964fp-68", "-0x1.0c11a246f1725p-125")),
        ),
    },
    (0.8, 1e-06): {
        0.8: (
            (("-0x1.2e41880903119p-21", "-0x1.70386da3d32e0p-75"),
             ("0x1.59c03a2211dbdp-43", "-0x1.5fd7dad637d47p-97")),
            (("0x1.916b135ea947cp-22", "0x1.046cbdf9dd0e4p-76"),
             ("-0x1.cb2ec908b1e88p-44", "0x1.6273854533568p-98")),
        ),
        0.7999996666666667: (
            (("-0x1.ab3050f008040p-23", "0x1.ee49001e1a482p-79"),
             ("0x1.a7df881617ef4p-44", "0x1.534f38e922ecap-98")),
            (("0x1.1bab4cd12f2b6p-23", "-0x1.e0e4bcf6e1c02p-78"),
             ("-0x1.1977ad54c6411p-44", "0x1.8aada95d57b44p-98")),
        ),
        0.79999925: (
            (("-0x1.6e74a09be9cf1p-29", "0x1.559726134ab9bp-83"),
             ("0x1.2f75dafa4af99p-49", "-0x1.547f48e31bf00p-103")),
            (("0x1.e6ae26a9c0b95p-30", "-0x1.2f045e0c31221p-84"),
             ("-0x1.930499049138dp-50", "-0x1.54792b1fae847p-106")),
        ),
    },
}

# The largest distance from the pinned values as a share of each total,
# measured: 1.8e-19 (1.7 units of the longdouble's eps) in extended
# precision, at R and inside the window alike, and 2.2e-16 (one unit of
# float64's eps) for the float64 values inside the window.
LD_BOUND, F8_BOUND = 8 * float(np.finfo(LD).eps), 2 * float(np.finfo(np.float64).eps)


def junctions(R: float, eps: float) -> list:
    """The f and the g junction of the extension against the tube at R."""
    return [smooth_junction(R, eps, side) for side in ("f", "g")]


def blend_lookup(junction, s):
    """I_0 and I_1 of the junction at the window points s, as an evaluator
    pass reads them."""
    collar = junction._collar
    return junction._blend(_CollarPass(collar, s))


@pytest.mark.parametrize("R,eps", list(PINNED))
def test_blend_integrals_match_high_precision_values(R, eps):
    """The blend totals, and I_0 and I_1 at two points inside the window in
    extended precision, are within 8 units of the longdouble's eps of the
    pinned values as a share of each total; the float64 values inside the
    window are within 2 units of float64's eps, and at R they are the
    totals rounded."""
    for s, rows in PINNED[R, eps].items():
        for junction, row in zip(junctions(R, eps), rows):
            want = np.array([LD(float.fromhex(hi)) + LD(float.fromhex(lo)) for hi, lo in row])
            totals = np.abs(junction._blend_totals)
            if s == R:
                assert np.all(np.abs(junction._blend_totals - want) <= LD_BOUND * totals)
                assert junction._totals == tuple(map(float, junction._blend_totals))
            got = blend_lookup(junction, np.array([LD(s)]))[0]
            assert np.all(np.abs(got - want) <= LD_BOUND * totals)
            got = blend_lookup(junction, np.array([s]))[0]
            assert np.all(np.abs(got - want) <= F8_BOUND * totals)
