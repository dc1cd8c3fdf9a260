"""Print one digest line per smoothed family of the benchmark's sweep.

For every (R, eps) of ``sweep_pairs(seed)`` in bench/drillbench/inputs.py
(seeds 1 and 2 unless given: 2304 families), builds ``smoothed_metric(R,
eps)`` from this checkout's src/ and prints R and eps as float.hex, then
either the class name of the error the build raised or a SHA-256 over

- k_eps, delta, and both junctions' slope and value gaps;
- f, f', f'', g, g' and g'' on 200 float64 points across
  [R - delta - 0.05, R + 0.05], and on the longdouble copy of those points.

Values are compared by value: an x87 extended-precision number is hashed
by its 10 value bytes, not the padding that numpy leaves undefined, so equal
values digest alike.  Run it in two checkouts and diff the outputs to name
the families whose values moved:

    python tools/family_digest.py [seed ...] > digest.txt
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from drillbench.inputs import sweep_pairs  # noqa: E402
from drillvol import smoothed_metric  # noqa: E402
from drillvol.errors import ToolkitError  # noqa: E402

GRID_POINTS = 200
GRID_PAD = 0.05
CALLABLES = ("f", "fp", "fpp", "g", "gp", "gpp")
# bytes that carry an x87 extended-precision value; the rest of its storage is padding
_X87_VALUE_BYTES = 10


def digest(arrays) -> str:
    """SHA-256 over the values of arrays, in order, with each array's dtype."""
    sha = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        raw = a.view(np.uint8).reshape(a.size, a.itemsize)
        if a.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63:
            raw = raw[:, :_X87_VALUE_BYTES]
        sha.update(a.dtype.str.encode())
        sha.update(raw.tobytes())
    return sha.hexdigest()


def family_values(fam) -> list:
    """The family's scalars and its six callables on the float64 grid and
    its longdouble copy."""
    rs = np.linspace(fam.R - fam.delta - GRID_PAD, fam.R + GRID_PAD, GRID_POINTS)
    scalars = [fam.k_eps, fam.delta]
    for j in (fam.junction_f, fam.junction_g):
        scalars += [j.slope_gap, j.value_gap]
    out = [np.array(scalars, dtype=np.float64)]
    for grid in (rs, rs.astype(np.longdouble)):
        out += [np.asarray(getattr(fam.pair, name)(grid)) for name in CALLABLES]
    return out


def family_line(R: float, eps: float) -> str:
    """R and eps as float.hex, then the build's error class or digest."""
    try:
        tail = digest(family_values(smoothed_metric(R, eps)))
    except ToolkitError as exc:
        tail = type(exc).__name__
    return f"{R.hex()} {eps.hex()} {tail}"


def main(argv: list) -> None:
    for seed in [int(s) for s in argv[1:]] or [1, 2]:
        for R, eps in sweep_pairs(seed):
            print(family_line(R, eps))


if __name__ == "__main__":
    main(sys.argv)
