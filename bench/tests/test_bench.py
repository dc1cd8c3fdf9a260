"""Tests of the benchmark itself: output schema in smoke mode, inputs, tracer.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from drillbench import inputs, metrics  # noqa: E402
from drillbench.tracer import Span, Tracer  # noqa: E402
from drillbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_output_schema(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert math.isfinite(got["value"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.units(False)
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == {
        k: better for k, (_, better) in metrics.E2E.items()}
    assert all(m["better"] == "lower" for m in SPEC["per_layer"]
               if m["name"].startswith("trace.overhead."))
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.units(True)
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "smooth_sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_are_seeded():
    assert inputs.cli_calls(5) == inputs.cli_calls(5) != inputs.cli_calls(6)
    assert inputs.sweep_pairs(5) == inputs.sweep_pairs(5) != inputs.sweep_pairs(6)
    assert inputs.probes(5, 9, 4) == inputs.probes(5, 9, 4) != inputs.probes(6, 9, 4)
    calls = inputs.cli_calls(5, blocks=2)
    assert sorted(c.kind for c in calls[:inputs.CLI_BLOCK]) == sorted(
        list(inputs.CLI_KINDS) + ["smooth"])


def test_self_time_subtracts_children():
    t = Tracer(True)
    t.spans = [Span("outer", 0.0, 10.0, -1, 1, 1), Span("inner", 1.0, 4.0, 0, 1, 1),
               Span("inner", 5.0, 7.0, 0, 1, 1), Span("leaf", 2.0, 3.0, 1, 1, 1)]
    assert t.self_times() == [5.0, 2.0, 2.0, 1.0]
    assert t.child_totals("outer", "inner") == [5.0]
    assert t.layer_table()[0] == ("outer", 1, 10.0, 5.0)


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, pct, n = metrics.tail(values)
    assert (value, pct, n) == (89.0, 90.0, 100) and sum(v > value for v in values) == 10
    assert metrics.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert metrics.tail([float(i) for i in range(16)]) == (7.5, 50.0, 16)


def test_disabled_tracer_records_nothing():
    t = Tracer(False)
    with t.span("x"):
        t.observe("y", 1.0)
    assert t.spans == [] and not t.observed


def test_oracle_check_judges_flagged_samples_at_fourth_order():
    import dataclasses

    import drillvol as dv
    from drillbench import checks

    # A radius in the eps = 1e-3 collar where the oracle at the pair's own
    # step is off by more than 1e-5 in two planes while the closed form is right.
    fam = dv.smoothed_metric(0.44261, 1e-3)
    r = fam.R - 5.4e-4
    rep = dv.validate_lemma_curvature(fam.pair, samples=1, window=(r, r + 1e-12))
    assert not rep.passed
    assert checks.check_oracle(fam.pair, rep) == ([], 2)
    wrong = rep.closed.copy()
    wrong[0, 0] *= 1 + 3e-5
    problems, flagged = checks.check_oracle(fam.pair, dataclasses.replace(rep, closed=wrong))
    assert flagged == 2 and len(problems) == 1 and "(0, 1)" in problems[0]
