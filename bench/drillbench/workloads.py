"""The two workloads: seeded, closed-loop, one client, no extra threads.

Each workload generates its inputs from the seed, then runs passes.  A pass
issues operations back to back, in whole blocks, until its time is up (see
``_Loop``), times each primary operation, and checks every operation's
output.  The primary operation is what the end-to-end latency metrics
describe:

    cli_mix          one ``python -m drillvol`` invocation
    smooth_sweep     one ``smoothed_metric(R, eps)`` build
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import drillvol as dv

from . import checks, inputs
from .tracer import CallCounter, Tracer, median

CLI_TIMEOUT_S = 120
# Runs one CLI call and records its wall time, exit code and peak RSS.  On
# Linux a child's ru_maxrss starts from the high-water mark of the process
# that spawned it, so the CLI is spawned from this small interpreter rather
# than from the benchmark, whose footprint would otherwise set the floor.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "drillvol", *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter() - t0
with open(sys.argv[1], "w") as out:
    out.write(f"{elapsed!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""
CLI_OUTPUTS = ("smooth.csv", "report.csv", "plot.svg")  # files the CLI calls write


@dataclass(frozen=True)
class Scale:
    """Input sizes; SMOKE keeps every layer on the path at a fraction of the cost."""

    grid_points: int  # odd: Simpson's rule runs on the float64 grid
    scalar_points: int
    ricci_points: int
    oracle_samples: int
    smoke: bool  # run ``smoke_ops`` operations, whatever the time budget


FULL = Scale(grid_points=257, scalar_points=4, ricci_points=16, oracle_samples=12, smoke=False)
SMOKE = Scale(grid_points=65, scalar_points=2, ricci_points=4, oracle_samples=2, smoke=True)


@dataclass
class Pass:
    """What one pass measured."""

    op_times: list[float] = field(default_factory=list)
    work: int = 0  # items done by primary operations (calls, builds, samples, rows)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    call_rss_mb: list[float] = field(default_factory=list)  # cli_mix: each call's own peak
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # observed, not failures

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @classmethod
    def merge(cls, passes: list["Pass"]) -> "Pass":
        """One Pass from consecutive passes on the same inputs.

        ru_maxrss only rises, so an in-process peak is the first pass's:
        later ones would carry the peak of passes in between.
        """
        out = cls()
        for p in passes:
            out.op_times += p.op_times
            out.work += p.work
            out.attempted += p.attempted
            out.failed += p.failed
            out.call_rss_mb += p.call_rss_mb
            out.problems += p.problems
            out.notes += p.notes
        out.peak_rss_mb = median(out.call_rss_mb) if out.call_rss_mb else passes[0].peak_rss_mb
        return out


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Loop:
    """Closed-loop pacing in whole blocks.

    The next operation starts only after the last one ends, and a new block
    starts only while time remains, so every pass runs the same mix of
    operations whatever the seed.  Smoke mode runs ``smoke_ops`` operations.
    A set-up sampler, if given, takes its repetitions between operations,
    spread over the run, and the time they take is not counted against it.
    """

    def __init__(self, seconds: float, block: int, smoke_ops: int | None, setup=None):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.block = block
        self.smoke_ops = smoke_ops
        self.setup = setup

    def _elapsed(self) -> float:
        spent = self.setup.spent if self.setup is not None else 0.0
        return time.perf_counter() - self.start - spent

    def more(self, done: int) -> bool:
        if self.setup is not None:
            self.setup.due(self._elapsed() / self.seconds)
        if self.smoke_ops is not None:
            return done < self.smoke_ops
        if done % self.block:
            return True
        return done == 0 or self._elapsed() < self.seconds


class Workload:
    name = ""
    # What the shared end-to-end metrics are called on this workload, printed beside them.
    aliases: dict[str, str] = {}
    block = 1  # operations in one block
    smoke_ops = 1  # enough operations to put every layer of the workload on the path

    def __init__(self, root: Path, seed: int, scale: Scale, out_dir: Path):
        self.root, self.seed, self.scale, self.out_dir = root, seed, scale, out_dir

    def loop(self, seconds: float, setup=None) -> _Loop:
        return _Loop(seconds, self.block, self.smoke_ops if self.scale.smoke else None, setup)

    def digest(self) -> str:
        raise NotImplementedError

    def run(self, tracer: Tracer, seconds: float, setup=None) -> Pass:
        """One pass of ``seconds``; ``setup`` samples set-up time during it."""
        raise NotImplementedError


def _fixture(root: Path) -> Path:
    path = root.joinpath(*inputs.FIXTURE_PATH)
    if not path.is_file():
        raise FileNotFoundError(f"bundled fixture {path} is missing")
    return path


class CliMix(Workload):
    name = "cli_mix"
    aliases = {"op_p50_s": "cli_p50_s", "op_tail_s": "cli_tail_s", "work_per_s": "calls_per_s"}
    block = smoke_ops = inputs.CLI_BLOCK

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = inputs.cli_calls(self.seed)
        self.fixture = _fixture(self.root)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def digest(self) -> str:
        return inputs.digest([dataclasses.astuple(c) for c in self.calls])

    def _argv(self, call: inputs.CliCall) -> tuple[str, ...]:
        return tuple(a.replace(inputs.OUT_DIR, str(self.out_dir))
                     .replace(inputs.FIXTURE, str(self.fixture)) for a in call.argv)

    def _invoke(self, argv) -> tuple[float, int, str, str, float]:
        """Run one CLI process; return (seconds, exit code, stdout, stderr, peak RSS MB)."""
        out_path, err_path = self.out_dir / "stdout", self.out_dir / "stderr"
        result_path = self.out_dir / "launcher"
        result_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(result_path), *argv],
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.root, start_new_session=True)
            try:
                proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the CLI under it
                proc.wait()
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        if proc.returncode != 0 or not result_path.is_file():
            return math.nan, proc.returncode or -1, stdout, stderr, math.nan
        elapsed, rc, max_rss_kb = result_path.read_text(encoding="utf-8").split()
        return float(elapsed), int(rc), stdout, stderr, int(max_rss_kb) / 1024.0

    def run(self, tracer: Tracer, seconds: float, setup=None) -> Pass:
        result = Pass()
        outcomes = []
        loop = self.loop(seconds, setup)
        for call in self.calls:
            if not loop.more(len(outcomes)):
                break
            argv = self._argv(call)
            for name in CLI_OUTPUTS:
                (self.out_dir / name).unlink(missing_ok=True)
            tracer.next_op()
            with tracer.span(f"cli.{call.kind}"):
                elapsed, rc, stdout, stderr, rss = self._invoke(argv)
            if rc == 0:
                result.op_times.append(elapsed)
                result.call_rss_mb.append(rss)
                tracer.observe(f"cli.{call.kind}_s", elapsed)
            files = {name: (self.out_dir / name).read_text(encoding="utf-8")
                     for name in CLI_OUTPUTS if (self.out_dir / name).is_file()}
            outcomes.append((inputs.CliCall(call.kind, argv), rc, stdout, stderr, files))
        result.work = len(result.op_times)  # calls that succeeded
        # The peak of one invocation, at the median over the mix: the maximum
        # would flip with the seed between the two memory regimes of
        # smoothed_metric, which depend on where R and eps fall.
        result.peak_rss_mb = median(result.call_rss_mb)
        # Checks run after the timed calls, so the library calls that make
        # the expected values never overlap a measured process.
        ref = checks.CliReference(tracer, str(self.fixture))
        for call, rc, stdout, stderr, files in outcomes:
            try:
                result.record(checks.check_cli(ref, call, rc, stdout, stderr, files))
            except dv.ToolkitError as exc:
                result.record([f"{call.argv}: reference failed: {exc}"])
        return result


class SmoothSweep(Workload):
    name = "smooth_sweep"
    aliases = {"op_p50_s": "family_p50_s", "op_tail_s": "family_tail_s",
               "work_per_s": "families_per_s"}
    block = inputs.SWEEP_BLOCK

    def __init__(self, *args):
        super().__init__(*args)
        self.pairs = inputs.sweep_pairs(self.seed)
        self.probes = inputs.probes(self.seed, len(self.pairs), self.scale.ricci_points)

    def digest(self) -> str:
        return inputs.digest([self.pairs, [dataclasses.astuple(p) for p in self.probes]])

    def run(self, tracer: Tracer, seconds: float, setup=None) -> Pass:
        result = Pass()
        dv.ramp_beta(0.5)  # the lazy ramp tables belong to set-up, not to the first build
        loop = self.loop(seconds, setup)
        for (radius, eps), probe in zip(self.pairs, self.probes):
            if not loop.more(len(result.op_times)):
                break
            tracer.next_op()
            t0 = time.perf_counter()
            try:
                fam = checks.build_family(tracer, radius, eps)
            except dv.ToolkitError as exc:
                result.record([f"smoothed_metric({radius!r}, {eps!r}) raised {exc}"])
                continue
            result.op_times.append(time.perf_counter() - t0)
            result.record(checks.check_family(fam))
            if tracer.enabled:
                self._probe(tracer, fam, probe, result)
        result.work = len(result.op_times)
        result.peak_rss_mb = _self_rss_mb()
        return result

    def _probe(self, tracer: Tracer, fam, probe: inputs.Probe, result: Pass) -> None:
        """Traced passes only: the layers under a family, each timed and checked.

        The grid-only Ricci bound, dense and scalar evaluation over the
        collar in float64 and longdouble, the oracle on the smoothed pair
        over criterion 3's window, the volume quadrature across the collar,
        and a scalar Ricci sweep.
        """
        window = (fam.R - fam.delta - 1.0, fam.R + fam.margin)
        with tracer.span("warped.ricci_lower_bound_constant", n=4096):
            grid = dv.ricci_lower_bound_constant(fam.pair, window, 4096)
        tracer.observe("smoothing.refine_gain", (fam.k_eps - grid) / grid)
        checks.observe_criterion_7(tracer, fam)
        c_lo, c_hi = fam.R - fam.delta, fam.R
        rs = np.linspace(c_lo, c_hi, self.scale.grid_points)
        result.record(checks.eval_grids(
            tracer, fam.pair, rs, rs[1::max(1, len(rs) // self.scale.scalar_points)]))

        counter = CallCounter()
        pair = counter.wrap(fam.pair)
        samples = self.scale.oracle_samples
        lo, hi = fam.R - fam.delta - 0.1, fam.R + 0.1
        with tracer.span("oracle.validate.smoothed", n=samples):
            rep = dv.validate_lemma_curvature(pair, samples=samples, window=(lo, hi),
                                              tolerance=checks.ORACLE_TOLERANCE,
                                              seed=probe.oracle_seed)
        tracer.observe("oracle.evals_per_sample", counter.calls / samples)
        tracer.observe("oracle.max_rel_error", rep.max_rel_error)
        problems, flagged = checks.check_oracle(fam.pair, rep)
        result.record(problems)
        if flagged:
            result.notes.append(f"{fam.pair.name}: oracle error {rep.max_rel_error:.3e} "
                                f"> 1e-5 on {flagged} of {samples * 3} curvatures, "
                                "judged at fourth order")

        counter.calls = 0
        with tracer.span("warped.quad.smoothed"):
            quad = dv.warped_volume_quadrature(pair, c_lo, c_hi, probe.length)
        tracer.observe("warped.quad_evals.smoothed", counter.calls)
        fg = np.asarray(fam.pair.f(rs), float) * np.asarray(fam.pair.g(rs), float)
        ref = 2.0 * math.pi * probe.length * checks.simpson(fg, rs[1] - rs[0])
        rel = abs(quad.value - ref) / abs(ref)
        result.record([] if rel <= 1e-7 else
                      [f"{fam.pair.name}: quadrature {quad.value!r} vs Simpson {ref!r}"])

        points = [lo + (hi - lo) * x for x in probe.sweep]
        with tracer.span("warped.ricci_diagonal", n=len(points)):
            worst = max(-dv.ricci_diagonal(fam.pair, r).min() / 2.0 for r in points)
        result.record([] if worst <= fam.k_eps + 1e-9 else
                      [f"{fam.pair.name}: sampled -min Ric/2 = {worst!r} > k_eps {fam.k_eps!r}"])


WORKLOADS = {w.name: w for w in (CliMix, SmoothSweep)}
