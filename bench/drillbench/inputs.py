"""Seeded input generators for the two workloads.

Each generator is a pure function of the workload seed, so the same seed
gives the same inputs.  The program under test receives only what these
functions produce; ``digest`` identifies them in the environment record.
Nothing is downloaded.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Radii: the paper's range for the CLI; the sweep reaches 1.5, where the
# collar is narrowest.  Every (R, eps) drawn here keeps delta(eps) < R.
CLI_R = (0.4, 1.4)
SWEEP_R = (0.4, 1.5)
SWEEP_EPS = (1e-1, 1e-2, 1e-3)

# Placeholders the CLI workload replaces with paths inside the checkout.
OUT_DIR = "{out}"
FIXTURE = "{fixture}"


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across runs
    # and independent between workloads that share a seed.
    return random.Random(f"drillvol-bench:{workload}:{seed}")


def digest(obj) -> str:
    """SHA-256 of a JSON rendering (or of the text itself for strings)."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- cli_mix ------------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    """One ``python -m drillvol`` invocation; ``kind`` names its layer metric."""

    kind: str
    argv: tuple[str, ...]


CLI_KINDS = ("version", "minvol", "bound", "bound_quad", "curvature_validate", "smooth", "analyze")
CLI_BLOCK = 8  # one call of each kind, smooth twice (eps 1e-2 and 1e-3)


def cli_calls(seed: int, blocks: int = 64) -> list[CliCall]:
    """Blocks of one call per subcommand variant, each block in seeded order.

    Whole blocks keep the mix of cheap and expensive calls the same on every
    seed, so the latency quantiles compare across seeds.
    """
    rng = _rng("cli_mix", seed)
    calls: list[CliCall] = []
    for _ in range(blocks):
        def radius() -> str:
            return repr(rng.uniform(*CLI_R))

        def bound_args() -> tuple[str, ...]:
            return ("bound", "--vol", repr(rng.uniform(0.9, 3.0)),
                    "--length", repr(rng.uniform(0.1, 1.5)), "--R", radius())

        block = [
            CliCall("version", ("--version",)),
            CliCall("minvol", ("minvol",)),
            CliCall("bound", bound_args()),
            CliCall("bound_quad", bound_args() + ("--quadrature-check",)),
            CliCall("curvature_validate", ("curvature", "--R", radius(), "--validate")),
            CliCall("smooth", ("smooth", "--R", radius(), "--eps", "1e-2",
                               "--csv", f"{OUT_DIR}/smooth.csv")),
            CliCall("smooth", ("smooth", "--R", radius(), "--eps", "1e-3",
                               "--csv", f"{OUT_DIR}/smooth.csv")),
            CliCall("analyze", ("analyze", "--input", FIXTURE,
                                "--output", f"{OUT_DIR}/report.csv",
                                "--plot", f"{OUT_DIR}/plot.svg", "--style", "linear")),
        ]
        rng.shuffle(block)
        calls.extend(block)
    return calls


# -- smooth_sweep -------------------------------------------------------------

SWEEP_STRATA = 3
SWEEP_BLOCK = SWEEP_STRATA * len(SWEEP_EPS)


def sweep_pairs(seed: int, blocks: int = 128) -> list[tuple[float, float]]:
    """Distinct (R, eps) pairs in blocks, each in seeded order.

    A block holds every eps once in each of SWEEP_STRATA equal slices of
    SWEEP_R, so the mix of cheap and costly builds is the same on every
    seed; build time and memory depend on where R and eps fall.
    """
    rng = _rng("smooth_sweep", seed)
    lo, hi = SWEEP_R
    width = (hi - lo) / SWEEP_STRATA
    pairs: list[tuple[float, float]] = []
    for _ in range(blocks):
        block = [(lo + width * (i + rng.random()), e)
                 for i in range(SWEEP_STRATA) for e in SWEEP_EPS]
        rng.shuffle(block)
        pairs.extend(block)
    return pairs


@dataclass(frozen=True)
class Probe:
    """What a traced pass probes on one family besides its build.

    ``oracle_seed`` draws the oracle's sample radii, ``length`` is the tube
    length of the volume quadrature, and ``sweep`` holds positions in
    [0, 1) across the oracle's window for the scalar Ricci sweep.
    """

    oracle_seed: int
    length: float
    sweep: tuple[float, ...]


def probes(seed: int, count: int, ricci_points: int) -> list[Probe]:
    """One probe per build of ``sweep_pairs``, from a stream of its own."""
    rng = _rng("smooth_sweep.probe", seed)
    return [Probe(rng.randrange(2**31), rng.uniform(0.1, 2.0),
                  tuple(rng.random() for _ in range(ricci_points)))
            for _ in range(count)]


# The bundled fixture the CLI's ``analyze`` call reads.
FIXTURE_PATH = ("data", "weeks_drill_synthetic.csv")
