"""The benchmark's tracer wraps ggmwatch functions by name
(``perfbench/tracer.py::install``). These runs fail here, in the test suite,
when a pinned name is renamed or stops being called, rather than only when the
benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ggmwatch as gw
from ggmwatch.iofmt import write_matrix

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced(tmp_path: Path, args: list[str]) -> dict:
    result = tmp_path / "trace.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--result", str(result), "--wrap",
         "--stdout", str(tmp_path / "stdout.txt"), "--", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["rc"] == 0, proc.stderr
    return data


def _span_names(data: dict) -> set[str]:
    return {data["names"][span[0]] for span in data["spans"]}


def _stream(tmp_path: Path, p: int, rows: int, oracle: bool, **settings) -> list[str]:
    omega = gw.gen_chain_precision(p, 0.4)
    chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
    x = np.random.default_rng(3).standard_normal((rows, p)) @ chol.T
    np.savetxt(tmp_path / "rows.csv", x, delimiter=",")
    lines = [f"{k}={v}" for k, v in settings.items()]
    if oracle:
        write_matrix(str(tmp_path / "omega.txt"), omega.entries)
        lines.append("oracle_matrix=omega.txt")
    else:
        lines.append(f"p={p}")
    (tmp_path / "monitor.cfg").write_text("\n".join(lines) + "\n")
    return ["monitor", "--config", "monitor.cfg", "--input", "rows.csv", "--trace"]


def test_oracle_monitor_spans(tmp_path):
    args = _stream(tmp_path, p=10, rows=60, oracle=True, w=20, pi0=0.05)
    data = _traced(tmp_path, args)
    names = _span_names(data)
    assert {"detector.step", "statistic.oracle_statistic"} <= names
    assert data["clime_check"]["fits"] == 0


def test_plugin_monitor_spans_and_fits(tmp_path):
    # burn-in fit at step 30, tests from step 40, one batch refit at step 44
    args = _stream(tmp_path, p=6, rows=46, oracle=False, w=10, n_burnin=30, batch=5, zeta=1e9)
    data = _traced(tmp_path, args)
    names = _span_names(data)
    assert {"detector.step", "statistic.plugin_statistic", "clime.clime_estimate"} <= names
    check = data["clime_check"]
    assert check["fits"] == 2
    assert check["columns"] > 0
    assert check["violations"] == 0
    assert data["fit_rows"] == [30, 44]


def test_experiment_spans(tmp_path):
    args = ["experiment", "fa-calibration", "--preset", "fig1-desk", "--replicates", "20",
            "--jobs", "1", "--out", "fig1"]
    data = _traced(tmp_path, args)
    names = _span_names(data)
    assert {"statistic.scale_entries", "kernels.window_supnorms",
            "threshold.critical_value_exact"} <= names
