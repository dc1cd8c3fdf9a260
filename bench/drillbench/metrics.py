"""Metric definitions: end-to-end from an untraced pass, per layer from a traced one.

The end-to-end metrics are shared by all workloads; what an "operation" and
a "work item" are depends on the workload (see each workload's ``aliases``).
A per-layer metric whose layer is not on a workload's path reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import CLI_KINDS
from .tracer import Tracer, median
from .workloads import Pass


@dataclass(frozen=True)
class Setup:
    """Fresh-interpreter set-up, one entry per repetition."""

    imports: list[float]
    ramps: list[float]

    @property
    def totals(self) -> list[float]:
        return [a + b for a, b in zip(self.imports, self.ramps)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the latency tail.

    The tail is the highest percentile with at least ten samples beyond it,
    but never below the median: with fewer than 21 samples that percentile
    would sit under p50, and with fewer than 11 it does not exist, so the
    median stands in for it.
    """
    xs = sorted(values)
    n = len(xs)
    mid = median(xs)
    if n < 11 or xs[n - 11] <= mid:
        return mid, 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# name: (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
}
E2E_UNITS = {name: unit for name, (unit, _) in E2E.items()}


def end_to_end(p: Pass, setup: Setup) -> dict[str, float]:
    busy = sum(p.op_times)
    return {
        "setup_s": median(setup.totals),
        "peak_rss_mb": p.peak_rss_mb,
        "op_p50_s": median(p.op_times),
        "op_tail_s": tail(p.op_times)[0],
        "work_per_s": p.work / busy if busy > 0 else 0.0,
    }


def _duration(name: str, scale: float = 1.0):
    return lambda t, s: median(t.durations(name)) * scale


def _per_item(name: str, scale: float):
    return lambda t, s: median(t.per_item(name)) * scale


def _observed(name: str, agg=median):
    return lambda t, s: agg(t.observed[name]) if t.observed.get(name) else 0.0


def _ricci_sup(t: Tracer, s: Setup) -> float:
    own = t.self_times()
    return median(own[i] for i, sp in enumerate(t.spans) if sp.name == "smoothing.smoothed_metric")


# (name, unit, better, extractor(tracer, setup))
PER_LAYER = [
    ("drillvol.import_s", "s", "lower", lambda t, s: median(s.imports)),
    ("smoothing.ramp_tables_s", "s", "lower", lambda t, s: median(s.ramps)),
    *[(f"cli.{k}_s", "s", "lower", _observed(f"cli.{k}_s")) for k in CLI_KINDS],
    ("smoothing.junction_build_s", "s", "lower",
     lambda t, s: median(t.child_totals("smoothing.smoothed_metric", "smoothing.smooth_junction"))),
    ("smoothing.ricci_sup_s", "s", "lower", _ricci_sup),
    ("smoothing.refine_gain", "ratio", "higher", _observed("smoothing.refine_gain")),
    *[(f"smoothing.eval_{mode}_{tag}_us.{d}", "us", "lower",
       _per_item(f"smoothing.eval.{mode}.{tag}.{d}", 1e6))
      for mode in ("vec", "scalar") for tag in ("f8", "ld") for d in ("a", "a1", "a2")],
    ("smoothing.k_gap_max", "curvature", "lower", _observed("smoothing.k_gap", max)),
    ("smoothing.convexity_min", "value", "higher", _observed("smoothing.convexity_min", min)),
    ("oracle.sample_ms.smoothed", "ms", "lower", _per_item("oracle.validate.smoothed", 1e3)),
    ("oracle.evals_per_sample", "count", "lower", _observed("oracle.evals_per_sample")),
    ("oracle.sample_ms.analytic", "ms", "lower", _per_item("oracle.validate.analytic", 1e3)),
    ("oracle.max_rel_error", "ratio", "lower", _observed("oracle.max_rel_error", max)),
    ("warped.quad_s.smoothed", "s", "lower", _duration("warped.quad.smoothed")),
    ("warped.quad_evals.smoothed", "count", "lower", _observed("warped.quad_evals.smoothed")),
    ("warped.ricci_diagonal_us", "us", "lower", _per_item("warped.ricci_diagonal", 1e6)),
    ("warped.quad_s.extension", "s", "lower", _duration("warped.quad.extension")),
    ("warped.ricci_grid_s", "s", "lower", _duration("warped.ricci_lower_bound_constant")),
    ("bounds.drilled_volume_bound_us", "us", "lower", _per_item("bounds.drilled_volume_bound", 1e6)),
    ("bounds.min_volume_corollary_ms", "ms", "lower", _duration("bounds.min_volume_corollary", 1e3)),
    ("data.parse_s", "s", "lower", _duration("data.parse_records")),
    ("data.analyze_s", "s", "lower", _duration("data.analyze_records")),
    ("data.emit_report_s", "s", "lower", _duration("data.emit_report")),
    ("data.emit_plot_s", "s", "lower", _duration("data.emit_plot")),
    ("data.report_bytes", "bytes", "lower", _observed("data.report_bytes")),
    ("data.plot_bytes", "bytes", "lower", _observed("data.plot_bytes")),
    ("trace.spans", "count", "lower", lambda t, s: float(len(t.spans))),
]

# Tracing overhead per end-to-end metric: what tracing costs, so lower is
# better for each.  It is traced minus untraced where lower is better, and
# untraced minus traced where higher is better.  The set-up runs untraced in
# fresh interpreters, so it has none.
OVERHEAD = [(f"trace.overhead.{k}", k, u) for k, (u, _) in E2E.items() if k != "setup_s"]


def per_layer(t: Tracer, setup: Setup, untraced: dict, traced: dict) -> dict[str, float]:
    out = {name: float(fn(t, setup)) for name, _, _, fn in PER_LAYER}
    for name, key, _ in OVERHEAD:
        cost = traced[key] - untraced[key]
        out[name] = cost if E2E[key][1] == "lower" else -cost
    return out


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return dict(E2E_UNITS)
    out = {name: unit for name, unit, _, _ in PER_LAYER}
    out.update((name, unit) for name, _, unit in OVERHEAD)
    return out
