"""Time ggmwatch's two statistic kernels on fixed input shapes.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/kernel_shapes.py --result OUT.json

Each shape is timed five times after one warm-up call; OUT.json maps each
per-layer metric name to the median in milliseconds and records the largest
relative difference of the kernels' output from an independent recompute.
The shapes cover the window batch (p, w, m) and sliding path (p, T, w)
sizes the presets use and a few beyond them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import streams

WINDOW_SHAPES = ((50, 40, 200), (100, 50, 200), (100, 150, 100))  # (p, w, m)
SLIDING_SHAPES = ((100, 175, 75), (100, 400, 150))  # (p, T, w)
REPEATS = 5


def metric_names() -> list[str]:
    return [f"kernels.window_ms.p{p}_w{w}_m{m}" for p, w, m in WINDOW_SHAPES] + [
        f"kernels.sliding_ms.p{p}_T{t}_w{w}" for p, t, w in SLIDING_SHAPES
    ]


def _median_ms(fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _model(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    omega = streams.sparse_precision(np.random.default_rng(3), p, 0.05, 0.1)
    d = np.diag(omega)
    psi = 1.0 / np.sqrt(np.outer(d, d) + omega * omega)
    return omega, psi, np.linalg.cholesky(np.linalg.inv(omega))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from ggmwatch import kernels

    rng = np.random.default_rng(1)
    out = {}
    worst = 0.0  # largest relative difference from streams.window_supnorms
    names = iter(metric_names())
    for p, w, m in WINDOW_SHAPES:
        omega, psi, chol = _model(p)
        xs = rng.standard_normal((m, w, p)) @ chol.T
        out[next(names)] = _median_ms(kernels.window_supnorms, xs, omega, psi)
        ref = np.array([streams.window_supnorms(x, omega, w)[0] for x in xs])
        out_k = kernels.window_supnorms(xs, omega, psi)
        worst = max(worst, float(np.max(np.abs(out_k / ref - 1))))
    for p, t_len, w in SLIDING_SHAPES:
        omega, psi, chol = _model(p)
        x = rng.standard_normal((t_len, p)) @ chol.T
        out[next(names)] = _median_ms(kernels.sliding_supnorms, x, omega, psi, w)
        ref = streams.window_supnorms(x, omega, w)
        out_k = kernels.sliding_supnorms(x, omega, psi, w)
        worst = max(worst, float(np.max(np.abs(out_k / ref - 1))))
    with open(args.result, "w") as fh:
        json.dump({"metrics": out, "max_rel_err": worst}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
