"""Run one ggmwatch CLI command in this process, optionally traced.

Usage (the benchmark starts it with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --result OUT.json [--wrap] [--stdout FILE] -- <ggmwatch args>

Without ``--wrap`` it only times ``ggmwatch.cli.main``; the benchmark uses
that as the untraced baseline of the tracing overhead. With ``--wrap`` it
replaces the public functions of each module, at the attribute their callers
look up, by wrappers that record spans (name, start, end, parent) and counts.
Spans stay in memory and are written to ``OUT.json`` after ``main`` returns.
Worker processes started by ``--jobs 2`` inherit the wrappers, but their
spans are not collected.

After the timed region it also checks every CLIME column solved during the
run against the feasibility bound ``|S b_j - e_j|_inf <= lambda + tol`` and
measures, under ``tracemalloc``, the peak allocation of one sliding scan per
input shape.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.fits: list[dict] = []  # one entry per clime_estimate call
        self.sliding_args: dict[tuple, tuple] = {}

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, key: str):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def install(tracer: Tracer) -> None:
    """Put wrappers on the attributes that ggmwatch's callers look up."""
    from ggmwatch import cli, clime, detector, harness, kernels, modelgen, statistic, threshold

    def patch(module, attr, name=None):
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))

    # cli: command bodies and the monitor set-up steps
    for attr in ("cmd_monitor", "cmd_experiment", "_monitor_settings", "_monitor_detector",
                 "_manifest_for"):
        patch(cli, attr)
    # iofmt, as imported into cli
    for attr in ("read_matrix", "load_config", "manifest_dict", "write_manifest",
                 "write_result_csv", "write_result_ndjson"):
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), f"iofmt.{attr}"))
    # threshold
    solve = threshold.critical_value_exact
    threshold.critical_value_exact = tracer.wrap(solve, "threshold.critical_value_exact")
    harness.critical_value_exact = threshold.critical_value_exact
    for attr in ("critical_value_union", "critical_value_asymptotic"):
        setattr(harness, attr, tracer.wrap(getattr(harness, attr), f"threshold.{attr}"))
    threshold.InnerProductTail.__call__ = tracer.counting(
        threshold.InnerProductTail.__call__, "threshold.tail_evals"
    )
    # clime
    estimate = clime.clime_estimate

    def clime_estimate(samples, config=clime.ClimeConfig()):
        fit = {"samples": samples, "config": config, "columns": []}
        tracer.fits.append(fit)
        return estimate(samples, config)

    traced_estimate = tracer.wrap(clime_estimate, "clime.clime_estimate")
    detector.clime_estimate = traced_estimate
    harness.clime_estimate = traced_estimate
    column = clime.clime_column

    def clime_column(s_hat, j, lam, lp_tolerance=1e-6):
        beta = column(s_hat, j, lam, lp_tolerance)
        if tracer.fits:
            tracer.fits[-1]["columns"].append((s_hat, j, lam, lp_tolerance, beta))
        return beta

    clime.clime_column = tracer.wrap(clime_column, "clime.clime_column")
    linprog = clime.linprog

    def counted_linprog(*args, **kwargs):
        res = linprog(*args, **kwargs)
        tracer.count("clime.lps")
        tracer.count("clime.lp_iters", int(getattr(res, "nit", 0) or 0))
        return res

    clime.linprog = counted_linprog
    harness.normalized_error = tracer.wrap(harness.normalized_error, "clime.normalized_error")
    # statistic
    for attr in ("oracle_statistic", "plugin_statistic"):
        patch(detector, attr, f"statistic.{attr}")
    statistic.scale_entries = tracer.counting(statistic.scale_entries, "statistic.scale_calls")
    harness.scale_entries = tracer.wrap(harness.scale_entries, "statistic.scale_entries")
    # detector
    step = detector.Detector.step

    def detector_step(self, x):
        event = step(self, x)
        if event is not None:
            tracer.count("detector.detections")
        return event

    detector.Detector.step = tracer.wrap(detector_step, "detector.step")
    # kernels (harness calls them through the module attribute)
    window = kernels.window_supnorms

    def window_supnorms(samples, omega, psi):
        tracer.count("kernels.windows", samples.shape[0])
        return window(samples, omega, psi)

    kernels.window_supnorms = tracer.wrap(window_supnorms, "kernels.window_supnorms")
    sliding = kernels.sliding_supnorms

    def sliding_supnorms(x, omega, psi, w):
        t_len, p = x.shape
        tracer.count("kernels.sliding_mb", _sliding_bytes(t_len, p, w) / 1e6)
        tracer.sliding_args.setdefault((t_len, p, w), (x, omega, psi, w))
        return sliding(x, omega, psi, w)

    kernels.sliding_supnorms = tracer.wrap(sliding_supnorms, "kernels.sliding_supnorms")
    # harness
    harness.run_experiment = tracer.wrap(harness.run_experiment, "harness.run_experiment")
    cli.run_experiment = harness.run_experiment
    harness.derive_key = tracer.counting(harness.derive_key, "harness.streams")
    base_pool = harness.ProcessPoolExecutor

    class CountingPool(base_pool):
        def __init__(self, *args, **kwargs):
            tracer.count("harness.pools")
            self._span = tracer.open("harness.pool")
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            tracer.count("harness.chunks")
            return super().submit(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    harness.ProcessPoolExecutor = CountingPool
    # modelgen, as imported into harness
    for attr in ("gen_chain_precision", "gen_random_sparse", "cholesky_factor", "invert_spd",
                 "make_block_change", "make_antidiag_change"):
        setattr(harness, attr, tracer.wrap(getattr(harness, attr), f"modelgen.{attr}"))
    from_entries = modelgen.PrecisionMatrix.from_entries.__func__
    modelgen.PrecisionMatrix.from_entries = classmethod(
        tracer.wrap(from_entries, "modelgen.PrecisionMatrix.from_entries")
    )


def _sliding_bytes(t_len: int, p: int, w: int) -> int:
    """Bytes the numpy sliding scan allocates, computed from its shapes: the
    transformed path, the outer products, their cumulative sum, and five
    window-sized temporaries (difference, centring, scaling, weighting, abs)."""
    nwin = t_len - w + 1
    return 8 * (t_len * p + t_len * p * p + (t_len + 1) * p * p + 5 * nwin * p * p)


def check_fits(fits: list[dict]) -> dict:
    """Independent feasibility check of every CLIME column of every fit."""
    import numpy as np

    columns = violations = 0
    worst = 0.0
    for fit in fits:
        x = np.asarray(fit["samples"], dtype=np.float64)
        if fit["config"].center:
            x = x - x.mean(axis=0)
        s_ref = x.T @ x / x.shape[0]
        for s_hat, j, lam, tol, beta in fit["columns"]:
            columns += 1
            e = np.zeros(len(beta))
            e[j] = 1.0
            slack = float(np.abs(s_ref @ beta - e).max() - lam)
            worst = max(worst, slack)
            same_s = np.allclose(s_hat, s_ref, rtol=1e-12, atol=1e-12)
            if slack > tol + 1e-12 or not same_s:
                violations += 1
    return {"fits": len(fits), "columns": columns, "violations": violations, "worst_slack": worst}


def sliding_peaks(tracer: Tracer, sliding) -> list[float]:
    """Peak traced allocation (MB) of one sliding scan per input shape."""
    import tracemalloc

    peaks = []
    for args in tracer.sliding_args.values():
        tracemalloc.start()
        sliding(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    return peaks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--wrap", action="store_true")
    parser.add_argument("--stdout", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    from ggmwatch import cli, kernels

    sliding = kernels.sliding_supnorms
    if args.wrap:
        install(tracer)
    out = open(args.stdout, "w") if args.stdout else None
    if out is not None:
        sys.stdout = out
    root = tracer.open("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tracer.close(root)
        t_end = time.perf_counter()
        if out is not None:
            sys.stdout = sys.__stdout__
            out.close()
    result = {
        "rc": rc,
        "wall": t_end - _T0,
        "backend": kernels.BACKEND,
        "names": tracer.names,
        "spans": [[n, s - _T0, e - _T0, p] for n, s, e, p in tracer.spans],
        "counters": tracer.counters,
        "fit_rows": [len(f["samples"]) for f in tracer.fits],
    }
    if args.wrap:
        result["clime_check"] = check_fits(tracer.fits)
        result["sliding_peak_mb"] = sliding_peaks(tracer, sliding)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
