"""Compare the build speed of two checkouts in one process.

Copies src/drillvol of this checkout and of OTHER_CHECKOUT into a temporary
directory as two packages, imports both into this process, and builds every
(R, eps) of ``sweep_pairs(1)`` in bench/drillbench/inputs.py (its first
``pairs`` families, all 1152 unless given) with each copy in turn, the copy
that goes first alternating from family to family.  This is repeated
``rounds`` times (default 3), and each family keeps the fastest build of
each side.  Prints, per eps and over all families, the mean of those
per-family minima for both sides in ms and their ratio, other / this, which
is above 1 when this checkout builds faster:

    python tools/build_ab.py OTHER_CHECKOUT [pairs [rounds]]

Separate benchmark processes each settle in one of a machine's speed
states; in one process both sides share the state, so the ratio repeats far
more tightly than a comparison of two processes.  A build that raises a
ToolkitError is timed like any other, as the benchmark's sweep would meet
it on both sides.
"""

import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from drillbench.inputs import sweep_pairs  # noqa: E402

SIDES = ("this", "other")


def load(checkout: Path, name: str, into: Path):
    """checkout's src/drillvol imported as the package ``name``, from a copy
    under ``into``."""
    shutil.copytree(Path(checkout) / "src" / "drillvol", into / name)
    return importlib.import_module(name)


def build_time(package, R: float, eps: float) -> float:
    """Seconds that one smoothed_metric(R, eps) build takes."""
    t0 = time.perf_counter()
    try:
        package.smoothed_metric(R, eps)
    except package.ToolkitError:
        pass
    return time.perf_counter() - t0


def compare(packages: dict, pairs: list, rounds: int) -> dict:
    """The fastest build of each family on each side, over ``rounds``
    interleaved rounds."""
    best = {side: [float("inf")] * len(pairs) for side in SIDES}
    for _ in range(rounds):
        for i, (R, eps) in enumerate(pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                best[side][i] = min(best[side][i], build_time(packages[side], R, eps))
    return best


def report(pairs: list, best: dict) -> list:
    """Per eps and overall: the mean per-family minimum of each side in ms
    and the ratio other / this."""
    groups = {eps: [i for i, (_, e) in enumerate(pairs) if e == eps]
              for eps in sorted({e for _, e in pairs})}
    groups["all"] = list(range(len(pairs)))
    lines = [f"{'eps':>6}  {'n':>5}  {'this_ms':>8}  {'other_ms':>8}  {'ratio':>6}"]
    for key, idx in groups.items():
        this, other = (1e3 * sum(best[side][i] for i in idx) / len(idx) for side in SIDES)
        lines.append(f"{key!s:>6}  {len(idx):>5}  {this:>8.4f}  {other:>8.4f}  {other / this:>6.4f}")
    return lines


def main(argv: list) -> None:
    if not 2 <= len(argv) <= 4:
        raise SystemExit(__doc__)
    pairs = sweep_pairs(1)
    pairs = pairs[:int(argv[2])] if len(argv) > 2 else pairs
    rounds = int(argv[3]) if len(argv) > 3 else 3
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = {side: load(checkout, f"drillvol_ab_{side}", Path(tmp))
                    for side, checkout in zip(SIDES, (ROOT, Path(argv[1])))}
        for package in packages.values():
            build_time(package, *pairs[0])  # builds the lazy ramp tables before any timing
        print("\n".join(report(pairs, compare(packages, pairs, rounds))))


if __name__ == "__main__":
    main(sys.argv)
