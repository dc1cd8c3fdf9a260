"""The smoothed metric against an independent rebuild of its construction
(tests/reference_smoothing.py), and its open convexity defect."""

import random

import numpy as np
import pytest

import reference_smoothing as ref
from conftest import cached_family

EPS_SEQ = (1e-1, 1e-2, 1e-3)
_SEEDED = random.Random(1)
# the criterion-7 grid, and one seeded R in smooth_sweep's range per eps
FAMILIES = ([(R, eps) for R in (0.5, 0.8, 1.2) for eps in EPS_SEQ]
            + [(_SEEDED.uniform(0.4, 1.5), eps) for eps in EPS_SEQ])


@pytest.mark.parametrize("R,eps", FAMILIES)
def test_family_matches_reference(R, eps):
    """a, a' and a'' of both junctions across the collar and 0.05 beyond
    it, with the blending window sampled densely, and k_eps, within the
    reference's tolerances."""
    fam = cached_family(R, eps)
    rs = np.concatenate([np.linspace(R - fam.delta - 0.05, R + 0.05, 2001),
                         np.linspace(R - eps, R, 501)])
    want, k = ref.smoothed_pair(R, eps, rs)
    for junction, values in zip((fam.junction_f, fam.junction_g), want):
        evaluators = (junction.a, junction.a_prime, junction.a_second)
        for fn, value, tol in zip(evaluators, values, (ref.TOL_A, ref.TOL_A1, ref.TOL_A2)):
            assert ref.rel_error(fn(rs), value).max() <= tol
    assert abs(fam.k_eps - k) <= ref.TOL_K * fam.k_eps


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: deep in the collar the flat plateau "
                   "corrections outweigh the extension's b'', so g'' dips to -0.0041")
def test_g_is_convex_on_the_collar():
    """g'' > 0 on the collar at (0.4, 0.1), a pair in smooth_sweep's range.
    The reference rebuild dips to the same minimum, so the defect is the
    construction's, not its numerics'."""
    fam = cached_family(0.4, 0.1)
    rs = np.linspace(0.4 - fam.delta, 0.4, 20001)
    assert np.all(fam.junction_g.a_second(rs) > 0.0)
