import functools
import math
from pathlib import Path

import numpy as np
import pytest

from drillvol import WarpingPair, hyperbolic_tube, kerckhoff_extension, smoothed_metric

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO_ROOT / "data" / "weeks_drill_synthetic.csv"
TEMPLATE_CSV = REPO_ROOT / "data" / "template.csv"


@functools.lru_cache(maxsize=None)
def cached_family(R: float, eps: float):
    """Smoothed families are expensive; share them across test modules."""
    return smoothed_metric(R, eps)


@pytest.fixture(scope="session")
def tube():
    return hyperbolic_tube()


@pytest.fixture(scope="session")
def kerckhoff08():
    return kerckhoff_extension(0.8)


@pytest.fixture(scope="session")
def family_08():
    return cached_family(0.8, 1e-2)


@pytest.fixture
def flat_cylinder():
    """Euclidean cylinder coordinates: f = r, g = 1 (flat metric)."""
    return WarpingPair(
        f=lambda r: np.asarray(r) * 1.0,
        fp=lambda r: np.asarray(r) * 0 + 1.0,
        fpp=lambda r: np.asarray(r) * 0.0,
        g=lambda r: np.asarray(r) * 0 + 1.0,
        gp=lambda r: np.asarray(r) * 0.0,
        gpp=lambda r: np.asarray(r) * 0.0,
        domain=(0.0, math.inf),
        name="flat_cylinder",
    )


def parse_kv(text: str) -> dict:
    """Parse the CLI's key=value block (first occurrence wins per key)."""
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith(("#", " ")):
            key, _, value = line.partition("=")
            if key and "," not in key:
                out.setdefault(key.strip(), value.strip())
    return out
