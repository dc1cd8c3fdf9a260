"""Run one workload, print every metric with its unit, and the result line."""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import metrics
from .metrics import Setup
from .tracer import Tracer
from .workloads import FULL, SMOKE, WORKLOADS, Pass

SETUP_REPEATS = 5
# A traced run alternates untraced and traced passes on the same inputs in
# this order, so that a steady drift in machine speed falls equally on both
# halves of the tracing-overhead comparison.
TRACE_ORDER = (False, True, True, False)
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import drillvol\n"
    "t1 = time.perf_counter()\n"
    "drillvol.ramp_beta(0.5)\n"  # builds the lazy ramp tables
    "t2 = time.perf_counter()\n"
    "print(repr(t1 - t0), repr(t2 - t1), drillvol.__file__)\n"
)


class SetupSampler:
    """Set-up time from fresh interpreters that import drillvol and build the
    ramp tables, ``repeats`` times.

    A workload's loop calls ``due`` between operations, so the repetitions
    are spread over the run rather than taken together at its start: the
    machine's speed drifts over seconds, and the median of repetitions
    taken at one moment would carry that moment's speed.  ``spent`` is the
    wall time the repetitions took, which the loop does not count.
    """

    def __init__(self, root: Path, repeats: int):
        self.root = root
        self.repeats = repeats
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.imports: list[float] = []
        self.ramps: list[float] = []
        self.spent = 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=120, check=True)
        t_import, t_ramp, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"set-up imported drillvol from {path}, "
                               f"outside {self.root / 'src'}")
        self.imports.append(float(t_import))
        self.ramps.append(float(t_ramp))
        self.spent += time.perf_counter() - t0

    def due(self, fraction: float) -> None:
        """Take the repetitions scheduled up to ``fraction`` of the run."""
        while len(self.imports) < self.repeats and fraction >= len(self.imports) / self.repeats:
            self.take()

    def result(self) -> Setup:
        """All ``repeats`` repetitions, taking any a short run left over."""
        self.due(1.0)
        return Setup(self.imports, self.ramps)


def _git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, args, digest: str) -> dict:
    return {
        "git_revision": _git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_sha256": digest,
    }


def _print_report(env: dict, values: dict, unit_of: dict, workload: str, passes, tracer,
                  attempted: int, failed: int, problems: list[str], notes: list[str]) -> None:
    print(f"# drillvol benchmark, workload {workload}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    aliases = WORKLOADS[workload].aliases
    ops = passes[0].op_times
    for name, value in values.items():
        note = f"   ({aliases[name]})" if name in aliases else ""
        if name == "op_tail_s":
            _, pct, n = metrics.tail(ops)
            note += f"   p{pct:.0f} of n={n}"
        print(f"metric {name} = {value!r} {unit_of[name]}{note}")
    if tracer.enabled:
        for label, p in (("untraced", passes[1]), ("traced", passes[0])):
            print(f"{label} pass: {len(p.op_times)} operations, "
                  f"op_p50_s = {metrics.median(p.op_times)!r}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    for line in problems[:20]:
        print(f"failure: {line}")
    for line in notes[:20]:
        print(f"note: {line}")
    if tracer.enabled:
        print("layer self time (span, count, total s, self s):")
        for name, count, total, own in tracer.layer_table():
            print(f"  {name:<40} {count:>7} {total:>12.6f} {own:>12.6f}")


def run(root: Path, args) -> int:
    scale = SMOKE if args.smoke else FULL
    out_root = root / ".bench_out"
    out_dir = out_root / f"tmp-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](root, args.seed, scale, out_dir)
        sampler = SetupSampler(root, 1 if args.smoke else SETUP_REPEATS)
        if args.trace:
            setup = sampler.result()
            tracer = Tracer(True)
            halves: dict[bool, list[Pass]] = {False: [], True: []}
            for traced in TRACE_ORDER:
                halves[traced].append(workload.run(tracer if traced else Tracer(False),
                                                   args.seconds / len(TRACE_ORDER)))
            passes = [Pass.merge(halves[True]), Pass.merge(halves[False])]
            values = metrics.per_layer(tracer, setup, metrics.end_to_end(passes[1], setup),
                                       metrics.end_to_end(passes[0], setup))
        else:
            tracer = Tracer(False)
            passes = [workload.run(tracer, args.seconds, sampler)]
            values = metrics.end_to_end(passes[0], sampler.result())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [line for p in passes for line in p.problems]
    notes = [line for p in passes for line in p.notes]
    unit_of = metrics.units(bool(args.trace))
    env = environment(root, args, workload.digest())
    _print_report(env, values, unit_of, args.workload, passes, tracer, attempted, failed, problems,
                  notes)

    record = {"environment": env, "metrics": values, "attempted": attempted, "failed": failed,
              "problems": problems, "notes": notes, "op_times": [p.op_times for p in passes],
              "spans": tracer.dump()}
    path = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"record written to {path.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()},
    }))
    return 0
