"""ggmwatch benchmark: monitor throughput and set-up, Monte Carlo preset wall
time, and a traced per-module breakdown.

Run from the root of a checkout (nothing to build; the CLI runs from
``src`` with BLAS pinned to one thread)::

    python3 perfbench/run.py --workload oracle_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, tiny sizes
    python3 perfbench/run.py --write-reference  # refresh reference.json

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, every metric with its unit, and the workload's extra
figures. Full results (and, when traced, all spans) are written under
``.perfbench/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MIN_PROBES = 5

E2E_UNITS = {"setup_s": "s", "samples_per_s": "rows/s", "peak_rss_mb": "MB"}


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(ROOT / "src"))
    from ggmwatch import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "backend": kernels.BACKEND,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else None


def measure(wl, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Untraced run: ops until ``seconds`` have passed, with a set-up probe
    before each op so the probes see the same machine state as the ops."""
    from workloads import StreamWorkload

    probes = []
    ops = []
    start = time.perf_counter()
    for attempt in itertools.count(1):
        probes.append(wl.probe())
        t_op = time.perf_counter()
        rec = wl.op()
        if rec is not None:
            ops.append(rec)
        now = time.perf_counter()
        # at least two ops; then another only if it should end within half an op of the deadline
        if smoke or (attempt >= 2 and now + (now - t_op) / 2 >= start + seconds):
            break
    while not smoke and len(probes) < MIN_PROBES:
        probes.append(wl.probe())
    setups = [p for p in probes if p is not None]
    report = {"measured_ops": len(ops), "measured_s": time.perf_counter() - start}
    if isinstance(wl, StreamWorkload):
        setups += [op["setup"] for op in ops]
        gaps = sorted(g for op in ops for g in op["gaps"])
        if len(gaps) >= 2:
            cuts = statistics.quantiles(gaps, n=100)
            report.update(
                decision_p50_us=statistics.median(gaps) * 1e6,
                decision_p99_us=cuts[98] * 1e6,
                decision_samples=len(gaps),
            )
    else:
        for preset in ops[0]["walls"] if ops else ():
            report[f"{preset.split('-')[0]}_s"] = median([op["walls"][preset] for op in ops])
    if ops and "blind_max" in ops[0]:
        report["blind_max_ms"] = median([op["blind_max"] for op in ops]) * 1e3
    values = {
        "setup_s": median(setups),
        "samples_per_s": median([op["samples_per_s"] for op in ops]),
        "peak_rss_mb": median([op["rss_mb"] for op in ops]),
    }
    report["per_op"] = [{k: v for k, v in op.items() if k != "gaps"} for op in ops]
    report["setup_probes"] = probes
    return {k: (v, E2E_UNITS[k]) for k, v in values.items() if v is not None}, report


def trace(wl, seconds: float, smoke: bool) -> tuple[dict, dict, list]:
    """Traced run: untraced in-process ops for the overhead baseline, then one traced op."""
    import layers

    walls = []
    start = time.perf_counter()
    while True:
        results = wl.inproc_op(wrap=False)
        if results is not None:
            walls.append(sum(r["wall"] for r in results))
        if smoke or time.perf_counter() - start >= seconds / 2:
            break
    results = wl.inproc_op(wrap=True)
    if results is None or not walls:
        return {}, {"identity": False}, []
    values, identity = layers.per_layer(results, statistics.median(walls))
    values.update(wl.kernel_shapes())
    report = {
        "identity": identity,
        "untraced_ops": len(walls),
        "note": "spans of --jobs worker processes are not collected" if wl.jobs > 1 else "",
    }
    return {k: (v, layers.UNITS[k]) for k, v in values.items()}, report, results


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[name](ROOT, workdir, seed, smoke)
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - t0
        spans = []
        if traced:
            metrics, report, spans = trace(wl, seconds, smoke)
        else:
            metrics, report = measure(wl, seconds, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["prepare_s"] = prepare_s
    failed = len(wl.failures)
    correct = failed == 0 and wl.attempted > 0 and report.get("identity", True)
    result = {
        "correct": bool(correct),
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "smoke": smoke,
        "env": environment(seed), "report": report, "failures": wl.failures, "result": result,
    }
    tag = f"{name}-trace{int(traced)}{'-smoke' if smoke else ''}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if spans:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    return details


def print_details(details: dict) -> None:
    print(f"# workload {details['workload']} seed {details['seed']} trace {details['trace']}")
    print(f"# env {json.dumps(details['env'], sort_keys=True)}")
    for name, m in details["result"]["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for key, value in details["report"].items():
        if isinstance(value, list):
            continue
        print(f"# {key} {value:.6g}" if isinstance(value, float) else f"# {key} {value}")
    for failure in details["failures"]:
        print(f"# FAILED {failure}")
    print(f"# ops {details['result']['attempted']} failed_ops {details['result']['failed']}")


def smoke() -> int:
    """Every workload once at tiny sizes, traced and untraced; checks that each
    metric BENCHMARK.json names is emitted with its unit."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for name in WORKLOADS:
        for traced in (0, 1):
            details = run_workload(name, seed=1, seconds=0, traced=bool(traced), smoke=True)
            res = details["result"]
            missing = [m["name"] for m in expected[traced]
                       if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            good = res["correct"] and not missing
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={traced} ops={res['attempted']} "
                  f"failed={res['failed']} missing={missing} {details['failures'][:2]}")
    return 0 if ok else 1


def write_reference() -> int:
    """Run every Monte Carlo preset size at --jobs 1 and store its cell values."""
    from workloads import WORKLOADS, load_outputs

    refs = {}
    work = OUT / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for cls in (WORKLOADS["mc_presets"], WORKLOADS["mc_parallel"]):
            wl = cls(ROOT, work, 0, False)
            for kind, preset, reps, smoke_reps in cls.presets:
                for n in (reps, smoke_reps):
                    stem = work / f"{preset}-{n}"
                    run = wl.run_cli(*wl.experiment_args(kind, preset, n, 1, stem))
                    if run.rc != 0:
                        print(run.stderr, file=sys.stderr)
                        return 1
                    lines = load_outputs(stem)[1].decode().splitlines()[1:]
                    refs[f"{preset}@{n}"] = {"cells": [
                        {
                            "cell": c["cell"],
                            "n": c["n"],
                            "metrics": {k: v["value"] for k, v in c["metrics"].items()},
                        }
                        for c in map(json.loads, lines)
                    ]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="ggmwatch benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "ggmwatch" / "cli.py").is_file():
        print(f"error: no ggmwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print_details(details)
    print(json.dumps(details["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
