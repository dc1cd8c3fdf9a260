"""tools/family_digest.py digests a smoothed family by value: equal
extended-precision values digest alike whatever their padding bytes hold, a
one-ulp change moves the digest, and a rebuilt family digests as before."""

import dataclasses
import importlib.util
import math

import numpy as np
import pytest

from conftest import REPO_ROOT, cached_family
from drillvol import smoothing

_spec = importlib.util.spec_from_file_location("family_digest",
                                               REPO_ROOT / "tools" / "family_digest.py")
family_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(family_digest)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="padding bytes of the x87 80-bit longdouble")
def test_padding_bytes_do_not_change_the_digest():
    v = np.array([1.0, np.pi, -2.5], dtype=np.longdouble) / 3
    raw = v.view(np.uint8).reshape(v.size, v.itemsize).copy()
    raw[:, 10:] ^= 0xA5
    padded = raw.reshape(-1).view(np.longdouble)
    assert np.array_equal(padded, v) and padded.tobytes() != v.tobytes()
    assert family_digest.digest([padded]) == family_digest.digest([v])


def test_one_ulp_in_k_eps_changes_the_digest():
    fam = cached_family(0.8, 1e-2)
    moved = dataclasses.replace(fam, k_eps=math.nextafter(fam.k_eps, math.inf))
    digests = {family_digest.digest(family_digest.family_values(f)) for f in (fam, moved)}
    assert len(digests) == 2


def test_two_builds_of_one_family_digest_alike():
    first = family_digest.family_line(0.8, 1e-2)
    smoothing._collar_of.cache_clear()  # the second build makes its own collar record
    assert family_digest.family_line(0.8, 1e-2) == first
    R, eps, digest = first.split()
    assert (R, eps) == ((0.8).hex(), (1e-2).hex()) and len(digest) == 64


def test_a_failed_build_prints_its_error_class():
    assert family_digest.family_line(0.5, 0.6).split()[2] == "WidthError"
