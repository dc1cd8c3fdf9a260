"""Build smoothed families over the seeded large-R scan and report its
build checks.

Draws the pairs from random.Random(seed): for each, R uniform in
[15, 354], then eps log-uniform in [1e-6, 0.9].  Builds
smoothed_metric(R, eps) for each and prints the count built, the count of
failed builds per error class, and the build check's largest drift: the
distance of a blend total from the check's reference as a share of its
threshold max(5e-12, 10 err), which fails the build at 1 or more, with the
pair where it occurred:

    python tools/large_r_scan.py [pairs [seed]]

The defaults are 400 pairs from seed 0.  The drift is read by wrapping
smoothing._check_moments for the length of the scan.
"""

import collections
import math
import random
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from drillvol import smoothed_metric, smoothing  # noqa: E402
from drillvol.errors import ToolkitError  # noqa: E402

R_RANGE = (15.0, 354.0)
EPS_RANGE = (1e-6, 0.9)


def pairs(count: int, seed: int = 0) -> list:
    """The first ``count`` (R, eps) pairs of the scan from ``seed``."""
    rng = random.Random(seed)
    log_eps = [math.log(e) for e in EPS_RANGE]
    return [(rng.uniform(*R_RANGE), math.exp(rng.uniform(*log_eps))) for _ in range(count)]


def scan(count: int = 400, seed: int = 0) -> list:
    """The scan's output lines."""
    check = smoothing._check_moments
    shares = []

    def recording(label, totals, sums, lo, hi):
        refs, coarse = sums
        shares.extend(float(abs(total - ref)) / max(5e-12, 10.0 * float(abs(ref - c)))
                      for total, ref, c in zip(totals, refs, coarse))
        return check(label, totals, sums, lo, hi)

    built, failed, worst = 0, collections.Counter(), (0.0, None)
    smoothing._check_moments = recording
    try:
        for R, eps in pairs(count, seed):
            shares.clear()
            try:
                smoothed_metric(R, eps)
                built += 1
            except ToolkitError as exc:
                failed[type(exc).__name__] += 1
            if shares and max(shares) > worst[0]:
                worst = (max(shares), (R, eps))
    finally:
        smoothing._check_moments = check
    lines = [f"built={built}"] + [f"failed.{name}={n}" for name, n in sorted(failed.items())]
    share, at = worst
    return lines + [f"max_drift_share={share:.3e}" + (f" R={at[0]!r} eps={at[1]!r}" if at else "")]


def main(argv: list) -> None:
    print("\n".join(scan(*(int(a) for a in argv[1:]))))


if __name__ == "__main__":
    main(sys.argv)
