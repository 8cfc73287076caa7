"""Per-layer metrics from the spans and counters of traced CLI runs.

A layer is a ggmwatch module; a span belongs to the layer named before the
first dot of its name. A span's self time is its duration minus the
durations of its direct children. The layers' self times plus the time no
span covers (interpreter start-up, imports, tracer set-up) add up to the
traced wall time; :func:`per_layer` checks that identity.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import kernel_shapes

LAYERS = (
    "cli", "iofmt", "threshold", "clime", "statistic", "detector", "kernels", "harness", "modelgen",
)

# name -> unit, in the order they are reported
UNITS = {
    "threshold.solve_ms": "ms",
    "threshold.tail_evals": "count",
    "clime.fits": "count",
    "clime.fit_s": "s",
    "clime.fit_rows": "count",
    "clime.column_ms": "ms",
    "clime.lp_iters": "count",
    "statistic.calls": "count",
    "statistic.us": "us",
    "statistic.scale_calls": "count",
    "detector.steps": "count",
    "detector.step_us": "us",
    "detector.step_us_p99": "us",
    "detector.self_us": "us",
    "detector.evaluated_frac": "ratio",
    "detector.detections": "count",
    "cli.row_us": "us",
    "iofmt.write_s": "s",
    "kernels.window_us_per_window": "us",
    "kernels.sliding_ms_per_path": "ms",
    "kernels.sliding_mb_computed": "MB",
    "kernels.sliding_mb_peak": "MB",
    **{name: "ms" for name in kernel_shapes.metric_names()},
    "harness.streams": "count",
    "harness.pools": "count",
    "harness.chunks": "count",
    "harness.pool_s": "s",
    "modelgen.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(results: list[dict], untraced_wall: float) -> tuple[dict, bool]:
    """Aggregate traced child results (one per CLI invocation of one op).

    Returns ``(metrics, identity_holds)`` where ``metrics`` maps each name
    in :data:`UNITS` to its value. Means are per call, totals are per op.
    """
    durs: dict[str, list[float]] = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, float] = defaultdict(float)
    step_self: list[float] = []
    modelgen_s = 0.0
    row_s = 0.0
    wall = uncovered = 0.0
    fit_rows: list[int] = []
    peaks: list[float] = []
    for res in results:
        names = res["names"]
        spans = res["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        step_total = 0.0
        manifest_end = monitor_end = None
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            dur = end - start
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            durs[name].append(dur)
            if parent < 0:
                top += dur
            if name == "detector.step":
                step_self.append(own)
                step_total += dur
            elif layer == "modelgen":
                if parent < 0 or not names[spans[parent][0]].startswith("modelgen."):
                    modelgen_s += dur
            elif name == "cli._manifest_for":
                manifest_end = end
            elif name == "cli.cmd_monitor":
                monitor_end = end
        if manifest_end is not None and monitor_end is not None:
            row_s += monitor_end - manifest_end - step_total
        wall += res["wall"]
        uncovered += res["wall"] - top
        for key, value in res["counters"].items():
            counters[key] += value
        fit_rows += res["fit_rows"]
        peaks += res.get("sliding_peak_mb", [])

    solves = durs["threshold.critical_value_exact"]
    stat_calls = durs["statistic.oracle_statistic"] + durs["statistic.plugin_statistic"]
    steps = durs["detector.step"]
    sliding = durs["kernels.sliding_supnorms"]
    m = {
        "threshold.solve_ms": _mean(solves) * 1e3,
        "threshold.tail_evals": _ratio(counters["threshold.tail_evals"], len(solves)),
        "clime.fits": len(durs["clime.clime_estimate"]),
        "clime.fit_s": _mean(durs["clime.clime_estimate"]),
        "clime.fit_rows": _mean(fit_rows),
        "clime.column_ms": _mean(durs["clime.clime_column"]) * 1e3,
        "clime.lp_iters": _ratio(counters["clime.lp_iters"], counters["clime.lps"]),
        "statistic.calls": len(stat_calls),
        "statistic.us": _mean(stat_calls) * 1e6,
        "statistic.scale_calls": _ratio(counters["statistic.scale_calls"], len(stat_calls)),
        "detector.steps": len(steps),
        "detector.step_us": _mean(steps) * 1e6,
        "detector.step_us_p99": (
            statistics.quantiles(steps, n=100)[98] * 1e6 if len(steps) >= 2 else _mean(steps) * 1e6
        ),
        "detector.self_us": _mean(step_self) * 1e6,
        "detector.evaluated_frac": _ratio(len(stat_calls), len(steps)),
        "detector.detections": counters["detector.detections"],
        "cli.row_us": _ratio(row_s, len(steps)) * 1e6,
        "iofmt.write_s": sum(
            sum(durs[f"iofmt.{n}"])
            for n in ("write_manifest", "write_result_csv", "write_result_ndjson")
        ),
        "kernels.window_us_per_window": (
            _ratio(sum(durs["kernels.window_supnorms"]), counters["kernels.windows"]) * 1e6
        ),
        "kernels.sliding_ms_per_path": _mean(sliding) * 1e3,
        "kernels.sliding_mb_computed": _ratio(counters["kernels.sliding_mb"], len(sliding)),
        "kernels.sliding_mb_peak": max(peaks, default=0.0),
        "harness.streams": counters["harness.streams"],
        "harness.pools": counters["harness.pools"],
        "harness.chunks": counters["harness.chunks"],
        "harness.pool_s": sum(durs["harness.pool"]),
        "modelgen.s": modelgen_s,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.wall_s": wall,
        "trace.untraced_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.uncovered_s": uncovered,
    }
    identity = abs(sum(layer_self.values()) + uncovered - wall) <= 1e-6 * max(1.0, wall)
    return m, identity
