"""Smoothed families pinned bit for bit.

tests/golden/smoothing_bits.json holds, for 12 families, float.hex of k_eps,
delta and both junctions' slope and value gaps, and of a, a' and a'' of both
junctions at four radii: R - eps/2 (the blending window), R - W/2 (the
collar), R - delta and R + 0.05, as float64 and as extended-precision
inputs.  An extended-precision value v is stored as the pair
hi = float(v), lo = float(v - hi).  A change that should leave every value
of the smoothing as it is must pass this unchanged; one that means to move
them regenerates the file with
``PYTHONPATH=src python tests/test_smoothing_bits.py`` and says why.  The
regeneration checks every value against the independent rebuild in
tests/reference_smoothing.py and writes nothing if one strays beyond its
tolerance; it prints each value it changes (family, junction, dtype, order,
radius, old -> new) before writing.

The values were recorded with numpy's longdouble as the x87 80-bit format
(a 63-bit fraction); the test is skipped where longdouble is another format.
"""

import json
import random
import sys

import numpy as np
import pytest

import reference_smoothing
from conftest import REPO_ROOT, cached_family

GOLDEN = REPO_ROOT / "tests" / "golden" / "smoothing_bits.json"

# the criterion-7 grid, and one seeded R in smooth_sweep's range per eps
EPS_SEQ = (1e-1, 1e-2, 1e-3)
_SEEDED = random.Random(1)
FAMILIES = ([(R, eps) for R in (0.5, 0.8, 1.2) for eps in EPS_SEQ]
            + [(_SEEDED.uniform(0.4, 1.5), eps) for eps in EPS_SEQ])

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                                reason="values recorded with x87 80-bit longdouble")


# the labels of family_bits' four radii and three orders, in its order
RADII = ("R - eps/2", "R - W/2", "R - delta", "R + 0.05")
ORDERS = ("a", "a1", "a2")


def _key(R, eps):
    return f"R={R!r}-eps={eps!r}"


def _hex(v):
    """float.hex of a float64 value, or the (hi, lo) pair of an extended one."""
    if v.dtype == np.longdouble:
        hi = float(v)
        return [hi.hex(), float(v - np.longdouble(hi)).hex()]
    return float(v).hex()


def _radii(fam, dt):
    """The four pinned radii of a family, in the dtype dt."""
    R, eps, W, delta = (dt(v) for v in (fam.R, fam.eps, fam.junction_f._collar.width, fam.delta))
    return np.array([R - eps / 2, R - W / 2, R - delta, R + dt(0.05)], dtype=dt)


def family_bits(R, eps) -> dict:
    """The pinned values of smoothed_metric(R, eps), as a JSON-ready dict."""
    fam = cached_family(R, eps)
    out = {"k_eps": fam.k_eps.hex(), "delta": fam.delta.hex()}
    for name, j in (("f", fam.junction_f), ("g", fam.junction_g)):
        bits = {"slope_gap": j.slope_gap.hex(), "value_gap": j.value_gap.hex()}
        for label, dt in (("f8", np.float64), ("ld", np.longdouble)):
            rs = _radii(fam, dt)
            bits[label] = {order: [_hex(v) for v in fn(rs)]
                           for order, fn in zip(ORDERS, (j.a, j.a_prime, j.a_second))}
        out[name] = bits
    return out


def reference_misses(R, eps, bits) -> list:
    """(path, value, reference) of each value of a family's bits that
    differs from the independent rebuild by more than its tolerance."""
    fam = cached_family(R, eps)
    want, k = reference_smoothing.smoothed_pair(R, eps, _radii(fam, np.float64))
    tols = (reference_smoothing.TOL_A, reference_smoothing.TOL_A1, reference_smoothing.TOL_A2)
    misses = []
    if abs(float.fromhex(bits["k_eps"]) - k) > reference_smoothing.TOL_K * k:
        misses.append((("k_eps",), bits["k_eps"], k))
    for name, values in zip(("f", "g"), want):
        for path, v in _flat(bits[name], (name,)):
            if path[-2] in ORDERS:
                order = ORDERS.index(path[-2])
                ref = values[order][RADII.index(path[-1])]
                got = float.fromhex(v if isinstance(v, str) else v[0])  # hi of an extended value
                if reference_smoothing.rel_error(got, ref) > tols[order]:
                    misses.append((path, v, ref))
    return misses


@pytest.mark.parametrize("R,eps", FAMILIES, ids=[_key(R, eps) for R, eps in FAMILIES])
def test_smoothed_family_bits_unchanged(R, eps):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(R, eps)]
    got = family_bits(R, eps)
    for name in ("k_eps", "delta", "f", "g"):
        assert got[name] == want[name], name


def _flat(bits, path=()):
    """(path, value) for each pinned value of a family's or a file's dict;
    a list of values per radius is split by the radius's label."""
    if isinstance(bits, dict):
        for key, value in bits.items():
            yield from _flat(value, path + (key,))
    elif path[-1] in ORDERS:
        for label, value in zip(RADII, bits):
            yield path + (label,), value
    else:
        yield path, bits


def changed_entries(old: dict, new: dict) -> list:
    """(path, old value, new value) of each value of new that old lacks or
    pins otherwise."""
    was = dict(_flat(old))
    return [(path, was.get(path), value) for path, value in _flat(new)
            if was.get(path) != value]


if __name__ == "__main__":
    if np.finfo(np.longdouble).nmant != 63:
        sys.exit("longdouble is not the x87 80-bit format: values would not compare")
    new = {_key(R, eps): family_bits(R, eps) for R, eps in FAMILIES}
    misses = [(key, *miss) for (R, eps), (key, bits) in zip(FAMILIES, new.items())
              for miss in reference_misses(R, eps, bits)]
    for key, path, value, ref in misses:
        print(key, " ".join(path) + ":", value, "but the reference gives", ref)
    if misses:
        sys.exit(f"{len(misses)} values stray from the reference: nothing written")
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changes = changed_entries(old, new)
    for path, was, now in changes:
        print(" ".join(path) + ":", was, "->", now)
    print(f"{len(changes)} values changed")
    lines = [f" {json.dumps(key)}: {json.dumps(bits)}" for key, bits in new.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
