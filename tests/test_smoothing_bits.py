"""Smoothed families pinned bit for bit.

tests/golden/smoothing_bits.json holds, for 12 families, float.hex of k_eps,
delta and both junctions' slope and value gaps, and of a, a' and a'' of both
junctions at four radii: R - eps/2 (the blending window), R - W/2 (the
collar), R - delta and R + 0.05, as float64 and as extended-precision
inputs.  An extended-precision value v is stored as the pair
hi = float(v), lo = float(v - hi).  A change that should leave every value
of the smoothing as it is must pass this unchanged; one that means to move
them regenerates the file with
``PYTHONPATH=src python tests/test_smoothing_bits.py``, which prints each
value it changes (family, junction, dtype, order, radius, old -> new) before
writing, and says why.

The values were recorded with numpy's longdouble as the x87 80-bit format
(a 63-bit fraction); the test is skipped where longdouble is another format.
"""

import json
import random
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT, cached_family

GOLDEN = REPO_ROOT / "tests" / "golden" / "smoothing_bits.json"

# the criterion-7 grid, and one seeded R in smooth_sweep's range per eps
EPS_SEQ = (1e-1, 1e-2, 1e-3)
_SEEDED = random.Random(1)
FAMILIES = ([(R, eps) for R in (0.5, 0.8, 1.2) for eps in EPS_SEQ]
            + [(_SEEDED.uniform(0.4, 1.5), eps) for eps in EPS_SEQ])

pytestmark = pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                                reason="values recorded with x87 80-bit longdouble")


# the labels of family_bits' four radii, in its order
RADII = ("R - eps/2", "R - W/2", "R - delta", "R + 0.05")


def _key(R, eps):
    return f"R={R!r}-eps={eps!r}"


def _hex(v):
    """float.hex of a float64 value, or the (hi, lo) pair of an extended one."""
    if v.dtype == np.longdouble:
        hi = float(v)
        return [hi.hex(), float(v - np.longdouble(hi)).hex()]
    return float(v).hex()


def family_bits(R, eps) -> dict:
    """The pinned values of smoothed_metric(R, eps), as a JSON-ready dict."""
    fam = cached_family(R, eps)
    out = {"k_eps": fam.k_eps.hex(), "delta": fam.delta.hex()}
    for name, j in (("f", fam.junction_f), ("g", fam.junction_g)):
        bits = {"slope_gap": j.slope_gap.hex(), "value_gap": j.value_gap.hex()}
        for label, dt in (("f8", np.float64), ("ld", np.longdouble)):
            R_, eps_, W, delta = (dt(v) for v in (fam.R, fam.eps, j._collar.width, fam.delta))
            rs = np.array([R_ - eps_ / 2, R_ - W / 2, R_ - delta, R_ + dt(0.05)], dtype=dt)
            bits[label] = {order: [_hex(v) for v in fn(rs)]
                           for order, fn in (("a", j.a), ("a1", j.a_prime), ("a2", j.a_second))}
        out[name] = bits
    return out


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
    elif path[-1] in ("a", "a1", "a2"):
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
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changes = changed_entries(old, new)
    for path, was, now in changes:
        print(" ".join(path) + ":", was, "->", now)
    print(f"{len(changes)} values changed")
    lines = [f" {json.dumps(key)}: {json.dumps(bits)}" for key, bits in new.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
