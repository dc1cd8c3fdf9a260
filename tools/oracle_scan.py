"""Scan the value-only curvature oracle over seeded smoothed families.

Draws the families from random.Random(seed): for each, R uniform in
[0.4, 1.5], then eps one of 0.1, 1e-2 and 1e-3.  Each family's pair is
checked by validate_lemma_curvature at the tolerance 1e-5 on acceptance
criterion 3's window [R - delta - 0.1, R + 0.1], with the family's index
as the sample seed.  Prints one line per flagged sample and plane (family
index, R, eps, r, plane, error), or the error class of a build that
failed, then the flagged count and the worst error:

    python tools/oracle_scan.py [families [samples [seed]]]

The defaults are 60 families of 2000 samples each, from seed 11.
"""

import random
import sys
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from drillvol import smoothed_metric, validate_lemma_curvature  # noqa: E402
from drillvol.errors import ToolkitError  # noqa: E402
from drillvol.oracle import PLANE_NAMES, PLANES  # noqa: E402

R_RANGE = (0.4, 1.5)
EPS_CHOICES = (1e-1, 1e-2, 1e-3)
TOLERANCE = 1e-5
WINDOW_PAD = 0.1


def families(count: int, seed: int) -> list:
    """The seeded (R, eps) pairs of a scan."""
    rng = random.Random(seed)
    return [(rng.uniform(*R_RANGE), rng.choice(EPS_CHOICES)) for _ in range(count)]


def scan(count: int = 60, samples: int = 2000, seed: int = 11):
    """The scan's output lines."""
    flagged, worst = 0, 0.0
    for i, (R, eps) in enumerate(families(count, seed)):
        try:
            fam = smoothed_metric(R, eps)
        except ToolkitError as exc:
            yield f"family={i} R={R!r} eps={eps!r} build={type(exc).__name__}"
            continue
        rep = validate_lemma_curvature(fam.pair, samples=samples, tolerance=TOLERANCE,
                                       window=(R - fam.delta - WINDOW_PAD, R + WINDOW_PAD), seed=i)
        worst = max(worst, rep.max_rel_error)
        for k, p in zip(*np.nonzero(rep.rel_errors > TOLERANCE)):
            flagged += 1
            yield (f"family={i} R={R!r} eps={eps!r} r={float(rep.radii[k])!r} "
                   f"plane={PLANE_NAMES[PLANES[p]]} error={rep.rel_errors[k, p]:.3e}")
    yield f"flagged={flagged}"
    yield f"worst={worst:.3e}"


def main(argv: list) -> None:
    for line in scan(*(int(a) for a in argv[1:])):
        print(line)


if __name__ == "__main__":
    main(sys.argv)
