"""The four benchmark workloads: how each prepares its inputs, runs one
operation through the ggmwatch CLI, and checks what the CLI wrote.

An operation (op) of a stream workload is one ``ggmwatch monitor --trace``
over the generated stream; an op of a Monte Carlo workload is one pass over
its presets, one ``ggmwatch experiment`` per preset. Every CLI invocation is
counted in ``attempted``; it fails on a non-zero exit, a line of output that
is not JSON, or a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import kernel_shapes
import streams

HERE = Path(__file__).resolve().parent
RATE_METRICS = {
    "exceed_exact", "exceed_union", "pi1", "miss_rate", "pre_any_exceed", "window_exceed", "p_n",
}


@dataclass
class Launch:
    """One finished CLI process: exit code, timings (perf_counter seconds),
    peak RSS of its process tree, and the stdout lines with arrival times."""

    argv: list[str]
    rc: int
    t_launch: float
    t_exit: float
    rss_mb: float
    lines: list[bytes] = field(default_factory=list)
    stamps: list[float] = field(default_factory=list)
    stderr: str = ""

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_launch


def launch(argv: list[str], env: dict, cwd: Path) -> Launch:
    """Run ``argv`` to completion, timestamping each stdout line as it arrives."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=env)
        lines, stamps = [], []
        for line in proc.stdout:
            stamps.append(time.perf_counter())
            lines.append(line)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        argv=argv,
        rc=proc.returncode,
        t_launch=t0,
        t_exit=t1,
        rss_mb=usage.ru_maxrss / 1024.0,
        lines=lines,
        stamps=stamps,
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


class Workload:
    """Shared workload state: paths, the child environment and op bookkeeping."""

    name = ""
    jobs = 1

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["OMP_NUM_THREADS"] = "1"
        self.attempted = 0
        self.failures: list[str] = []
        self._serial = 0

    def run_cli(self, *args: str) -> Launch:
        return launch([sys.executable, "-m", "ggmwatch.cli", *args], self.env, self.workdir)

    def run_script(self, script: str, *args: str) -> Launch:
        return launch([sys.executable, str(HERE / script), *args], self.env, self.workdir)

    def fresh_path(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{stem}-{self._serial}"

    def record(self, run: Launch, errors: list[str]) -> bool:
        """Count one CLI invocation; returns whether it succeeded."""
        self.attempted += 1
        if run.rc != 0:
            errors = [f"exit code {run.rc}: {run.stderr.strip()[-300:]}"] + errors
        if errors:
            args = run.argv[run.argv.index("--") + 1:] if "--" in run.argv else run.argv[3:]
            self.failures.append(f"{' '.join(args[:3])}: {'; '.join(errors[:3])}")
        return not errors

    def kernel_shapes(self) -> dict[str, float]:
        """Kernel timings at fixed shapes; measured on mc_presets only."""
        return dict.fromkeys(kernel_shapes.metric_names(), 0.0)

    def traced(self, args: list[str], wrap: bool, stdout: Path | None = None):
        """Run one CLI command in-process under perfbench/tracer.py."""
        result = self.fresh_path("trace").with_suffix(".json")
        opts = ["--result", str(result)] + (["--wrap"] if wrap else [])
        if stdout is not None:
            opts += ["--stdout", str(stdout)]
        run = self.run_script("tracer.py", *opts, "--", *args)
        data = json.loads(result.read_text()) if run.rc == 0 and result.exists() else None
        if data is not None:
            run.rc = data["rc"]
        return run, data


# ---------------------------------------------------------------------------
# monitor workloads


class StreamWorkload(Workload):
    """``ggmwatch monitor --trace`` over a seeded CSV stream.

    The model is fixed per workload; the sample stream comes from the seed.
    """

    def prepare(self) -> None:
        cfg = self.config()
        model_rng = np.random.default_rng(cfg["model_seed"])
        omega = streams.sparse_precision(model_rng, cfg["p"], cfg["density"], cfg["inflation"])
        self.rows = cfg["rows"]
        rng = np.random.default_rng([self.seed, cfg["model_seed"]])
        x = streams.gaussian_rows(rng, omega, self.post_change(omega), cfg["t0"], self.rows)
        self.input = self.workdir / "rows.csv"
        streams.write_csv(self.input, x)
        self.empty = self.workdir / "empty.csv"
        self.empty.write_text("")
        self.cfg_path = self.workdir / "monitor.cfg"
        lines = [f"{k}={v}" for k, v in cfg["monitor"].items()]
        if cfg.get("oracle"):
            matrix = self.workdir / "omega.txt"
            streams.write_matrix(matrix, omega)
            lines.append(f"oracle_matrix={matrix}")
        self.cfg_path.write_text("\n".join(lines) + "\n")
        self.n_burnin = cfg["monitor"].get("n_burnin", 0)
        self.w = cfg["monitor"]["w"]
        self.zeta_ref = streams.critical_value(cfg["monitor"]["pi0"], cfg["p"], self.w)
        self.sups = streams.window_supnorms(x, omega, self.w) if cfg.get("oracle") else None
        self.references = {}

    def monitor_args(self, path: Path) -> list[str]:
        return ["monitor", "--config", str(self.cfg_path), "--input", str(path), "--trace"]

    def probe(self) -> float | None:
        """Set-up time of one monitor on an empty stream (launch to manifest)."""
        run = self.run_cli(*self.monitor_args(self.empty))
        errors = []
        if len(run.lines) != 1 or not run.lines[0].startswith(b'{"'):
            errors.append("expected exactly the run manifest on an empty stream")
        ok = self.record(run, errors + self.manifest_errors(run.lines[:1]))
        return run.stamps[0] - run.t_launch if ok else None

    @staticmethod
    def manifest_errors(lines: list[bytes]) -> list[str]:
        try:
            first = json.loads(lines[0]) if lines else None
        except ValueError:
            first = None
        if not isinstance(first, dict) or first.get("type") != "run_manifest":
            return ["first output line is not a run_manifest object"]
        return []

    def op(self) -> dict | None:
        run = self.run_cli(*self.monitor_args(self.input))
        errors, trace = self.check_output(run.lines)
        if not self.record(run, errors):
            return None
        stamp_of = {t: run.stamps[i] for i, t in trace}
        stamps = run.stamps
        return {
            "setup": stamps[0] - run.t_launch,
            "samples_per_s": self.rows / (run.t_exit - stamps[0]),
            "blind_max": max(b - a for a, b in zip(stamps, stamps[1:])),
            "gaps": [stamp_of[t] - stamp_of[t - 1] for t in stamp_of if t - 1 in stamp_of],
            "rss_mb": run.rss_mb,
        }

    def inproc_op(self, wrap: bool) -> list[dict] | None:
        out = self.fresh_path("stdout")
        run, data = self.traced(self.monitor_args(self.input), wrap, out)
        errors = []
        if data is not None:
            errors = self.check_output(out.read_bytes().splitlines(keepends=True))[0]
            check = data.get("clime_check")
            if check is not None and check["violations"]:
                errors.append(f"{check['violations']} CLIME columns break |S b - e_j| <= lam + tol")
            if check is not None and self.n_burnin and not check["columns"]:
                errors.append("no CLIME column was checked")
        return [data] if self.record(run, errors) else None

    def check_output(self, lines: list[bytes]) -> tuple[list[str], list[tuple[int, int]]]:
        """Check one monitor output; returns (errors, [(line index, t) of each trace line])."""
        errors = self.manifest_errors(lines)
        trace, trace_stat, changes, zetas = [], [], [], set()
        for i, line in enumerate(lines[1:], start=1):
            try:
                obj = json.loads(line)
                if obj.get("type") == "change_point":
                    changes.append(obj["t"])
                    zetas.add(obj["zeta"])
                    if not obj["stat"] >= obj["zeta"]:
                        errors.append(f"change point at t={obj['t']} below zeta")
                elif "type" not in obj:
                    trace.append((i, obj["t"]))
                    trace_stat.append(obj["stat"])
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                errors.append(f"output line {i + 1} is not a valid object: {exc!r}")
                break
        if errors:
            return errors, []
        trace_t = [t for _, t in trace]
        if len(zetas) > 1:
            errors.append(f"change points report {len(zetas)} different zeta values")
        zeta = zetas.pop() if zetas else self.zeta_ref
        if abs(zeta - self.zeta_ref) > 1e-6 * self.zeta_ref:
            errors.append(f"zeta {zeta!r} differs from the independent root {self.zeta_ref!r}")
        detections = set(changes)
        if trace_t != streams.evaluated_steps(self.rows, self.n_burnin, self.w, detections):
            errors.append("traced steps do not follow the burn-in / window / restart rule")
        for t, stat in zip(trace_t, trace_stat):
            if not math.isfinite(stat) or (stat >= zeta) != (t in detections):
                errors.append(f"step {t}: statistic {stat!r} and detection disagree with zeta")
                break
        errors += self.check_values(trace_t, trace_stat, changes, zeta)
        return errors, trace

    def check_values(self, trace_t, trace_stat, changes, zeta) -> list[str]:
        return []

    def post_change(self, omega: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError


class OracleStream(StreamWorkload):
    name = "oracle_stream"

    def config(self) -> dict:
        rows = 1500 if self.smoke else 10_000
        return {
            "model_seed": 11, "p": 100, "density": 0.05, "inflation": 0.1,
            "rows": rows, "t0": rows * 3 // 4, "oracle": True,
            "monitor": {"w": 50, "pi0": 0.05, "threshold_method": "exact"},
        }

    def post_change(self, omega):
        # leading-block change, s = 2, beta = 3: beta / s added to the 2x2 block
        post = omega.copy()
        post[:2, :2] += 1.5
        return post

    def check_values(self, trace_t, trace_stat, changes, zeta):
        if zeta not in self.references:
            self.references[zeta] = streams.oracle_reference(self.sups, self.w, zeta)
        steps, values, detections = self.references[zeta]
        errors = []
        if changes != detections:
            errors.append(f"change points {changes[:5]}... differ from {detections[:5]}...")
        if trace_t != steps:
            errors.append("traced steps differ from the recompute")
        else:
            worst = max((abs(a - b) / abs(b) for a, b in zip(trace_stat, values)), default=0.0)
            if worst > 1e-9:
                errors.append(f"trace statistic off the recompute by {worst:.3g} relative")
        return errors


class PluginRefitStream(StreamWorkload):
    name = "plugin_refit_stream"

    def config(self) -> dict:
        # Refits land at steps 649 + 100 k; the change at t0 = 1260 is detected
        # well before 1349, and 2290 rows leave room for exactly three refits
        # after the post-detection burn-in: 11 fits per op.
        if self.smoke:
            return {
                "model_seed": 12, "p": 20, "density": 0.1, "inflation": 1.0, "rows": 420, "t0": 230,
                "monitor": {"p": 20, "w": 20, "n_burnin": 100, "batch": 40, "pi0": 1e-6},
            }
        return {
            "model_seed": 12, "p": 50, "density": 0.04, "inflation": 1.0, "rows": 2290, "t0": 1260,
            "monitor": {"p": 50, "w": 50, "n_burnin": 600, "batch": 100, "pi0": 1e-6},
        }

    def post_change(self, omega):
        # the first two coordinates double their standard deviation
        d = np.ones(omega.shape[0])
        d[:2] = 0.5
        return omega * np.outer(d, d)


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def rows_per_replicate(provenance: dict) -> int:
    """Sample rows one replicate of an experiment draws and tests."""
    prm = provenance["params"]
    if provenance["kind"] == "fa_calibration":
        return prm["w"]
    if provenance["kind"] == "delay_profile":
        return (prm["t0"] + prm["w"]) * (2 if prm.get("control", True) else 1)
    if provenance["kind"] in ("power_curve", "delay_curve"):
        return len(prm["s_grid"]) * len(prm["beta_grid"]) * sum(prm["w_grid"])
    raise ValueError(f"no row count for experiment kind {provenance['kind']!r}")


def load_outputs(stem: Path) -> tuple[bytes, bytes, dict]:
    return (
        stem.with_suffix(".csv").read_bytes(),
        stem.with_suffix(".ndjson").read_bytes(),
        json.loads(stem.with_suffix(".manifest.json").read_text()),
    )


def _close(value, ref, tol: float) -> bool:
    if ref is None or value is None:
        return value is ref
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= tol


def check_experiment(
    stem: Path, preset: str, replicates: int, reference: dict | None
) -> tuple[list[str], int]:
    """Schema, range and reference checks of one experiment's files.

    Reference values (the presets' default master seed) must agree within
    2/n absolute for rates over n replicates and 1e-6 relative otherwise.
    Returns (errors, sample rows simulated).
    """
    errors: list[str] = []
    csv_bytes, ndjson_bytes, manifest = load_outputs(stem)
    if manifest.get("preset") != preset or manifest.get("replicates") != replicates:
        errors.append("manifest does not record the preset and replicate count")
    lines = csv_bytes.decode().splitlines()
    if lines[:1] != ["experiment,cell,params,metric,value,se,n"]:
        errors.append("CSV header differs")
    objs = [json.loads(line) for line in ndjson_bytes.decode().splitlines()]
    prov, cells = objs[0], objs[1:]
    if prov.get("type") != "provenance" or prov.get("replicates") != replicates:
        errors.append("NDJSON provenance object missing or wrong")
        return errors, 0
    if len(lines) - 1 != sum(len(c["metrics"]) for c in cells):
        errors.append("CSV rows and NDJSON cells disagree")
    for row in lines[1:]:
        parts = row.split(",")
        if len(parts) != 7:
            errors.append(f"CSV row with {len(parts)} fields")
            break
    for idx, cell in enumerate(cells):
        if cell.get("type") != "cell" or cell.get("index") != idx:
            errors.append(f"cell {idx} malformed")
            continue
        for name, m in cell["metrics"].items():
            value, se = m["value"], m["se"]
            if se is not None and not se >= 0:
                errors.append(f"cell {idx} {name}: negative standard error")
            if name in RATE_METRICS and not 0.0 <= value <= 1.0:
                errors.append(f"cell {idx} {name}: rate {value} outside [0, 1]")
    if reference is None:
        errors.append(f"no reference values for {preset}@{replicates}")
    else:
        ref_cells = reference["cells"]
        if len(ref_cells) != len(cells):
            errors.append("cell count differs from the reference")
        for idx, (cell, ref) in enumerate(zip(cells, ref_cells)):
            if cell["cell"] != ref["cell"] or cell["n"] != ref["n"]:
                errors.append(f"cell {idx}: parameters differ from the reference")
                continue
            for name, ref_value in ref["metrics"].items():
                value = cell["metrics"].get(name, {}).get("value")
                if name in RATE_METRICS:
                    tol = 2.0 / cell["n"]
                else:
                    tol = 1e-6 * max(1.0, abs(ref_value or 0.0))
                if not _close(value, ref_value, tol):
                    errors.append(f"cell {idx} {name}: {value!r} vs reference {ref_value!r}")
    return errors, rows_per_replicate(prov) * replicates


class McWorkload(Workload):
    """One pass = ``ggmwatch experiment`` on each preset, at fixed replicate
    counts and the presets' default master seed (so the seed does not enter)."""

    presets: list[tuple[str, str, int, int]] = []  # (kind, preset, replicates, smoke replicates)

    def prepare(self) -> None:
        with open(HERE / "reference.json") as fh:
            self.references = json.load(fh)
        self.plan = [
            (kind, preset, smoke if self.smoke else reps)
            for kind, preset, reps, smoke in self.presets
        ]
        self.serial_outputs = {}

    def experiment_args(self, kind, preset, reps, jobs, stem) -> list[str]:
        return [
            "experiment", kind, "--preset", preset, "--replicates", str(reps),
            "--jobs", str(jobs), "--out", str(stem),
        ]

    def probe(self) -> float | None:
        """CLI start-up: interpreter, package import and argument parsing."""
        run = self.run_cli("--version")
        version = run.lines[:1] and run.lines[0].startswith(b"ggmwatch")
        ok = self.record(run, [] if version else ["no version line"])
        return run.wall if ok else None

    def check(self, stem: Path, preset: str, reps: int, jobs: int) -> tuple[list[str], int]:
        try:
            reference = self.references.get(f"{preset}@{reps}")
            errors, rows = check_experiment(stem, preset, reps, reference)
            if jobs > 1 and load_outputs(stem)[:2] != self.serial_outputs.get(preset):
                errors.append(f"--jobs {jobs} output is not byte-identical to --jobs 1")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable experiment output: {exc!r}"], 0
        return errors, rows

    def inproc_op(self, wrap: bool) -> list[dict] | None:
        results, ok = [], True
        for kind, preset, reps in self.plan:
            stem = self.fresh_path(preset)
            run, data = self.traced(self.experiment_args(kind, preset, reps, self.jobs, stem), wrap)
            ok &= self.record(run, self.check(stem, preset, reps, self.jobs)[0] if data else [])
            results.append(data)
        return results if ok else None

    def op(self) -> dict | None:
        walls, rss, rows, ok = {}, [], 0, True
        for kind, preset, reps in self.plan:
            stem = self.fresh_path(preset)
            run = self.run_cli(*self.experiment_args(kind, preset, reps, self.jobs, stem))
            errors, n = self.check(stem, preset, reps, self.jobs) if run.rc == 0 else ([], 0)
            errors += [f"unexpected stdout line {line[:60]!r}" for line in run.lines[:1]]
            ok &= self.record(run, errors)
            walls[preset] = run.wall
            rss.append(run.rss_mb)
            rows += n
        if not ok:
            return None
        return {
            "walls": walls,
            "samples_per_s": rows / sum(walls.values()),
            "rss_mb": max(rss),
        }


class McPresets(McWorkload):
    name = "mc_presets"
    presets = [
        ("fa-calibration", "fig1-desk", 2000, 20),
        ("delay", "fig3-desk", 25, 2),
        ("delay-curve", "fig5-desk", 50, 2),
    ]

    def kernel_shapes(self) -> dict[str, float]:
        result = self.fresh_path("shapes").with_suffix(".json")
        run = self.run_script("kernel_shapes.py", "--result", str(result))
        data = json.loads(result.read_text()) if run.rc == 0 else None
        errors = []
        if data is not None and not data["max_rel_err"] <= 1e-9:
            errors.append(f"kernel output off the recompute by {data['max_rel_err']:.3g} relative")
        if not self.record(run, errors):
            return super().kernel_shapes()
        return data["metrics"]


class McParallel(McWorkload):
    name = "mc_parallel"
    jobs = 2
    presets = [
        ("fa-calibration", "fig1-desk", 1000, 300),
        ("delay-curve", "fig5-desk", 500, 260),
    ]

    def prepare(self) -> None:
        """Get the --jobs 1 outputs to compare with: from the cache under
        .perfbench/ when this exact program already made them, else by running."""
        super().prepare()
        digest = hashlib.sha256(f"{sys.version} {np.__version__} {scipy.__version__}".encode())
        for path in sorted((self.root / "src" / "ggmwatch").rglob("*.py")):
            digest.update(path.relative_to(self.root).as_posix().encode() + path.read_bytes())
        for kind, preset, reps in self.plan:
            cache = self.workdir.parent / "cache" / f"{digest.hexdigest()[:20]}-{preset}-{reps}"
            if cache.with_suffix(".ndjson").is_file():
                self.serial_outputs[preset] = load_outputs(cache)[:2]
                continue
            stem = self.fresh_path(f"{preset}-serial")
            run = self.run_cli(*self.experiment_args(kind, preset, reps, 1, stem))
            errors = self.check(stem, preset, reps, 1)[0] if run.rc == 0 else []
            if self.record(run, errors):
                self.serial_outputs[preset] = load_outputs(stem)[:2]
                cache.parent.mkdir(exist_ok=True)
                # .ndjson last: its presence marks a complete entry
                for suffix in (".csv", ".manifest.json", ".ndjson"):
                    os.replace(stem.with_suffix(suffix), cache.with_suffix(suffix))


WORKLOADS = {w.name: w for w in (OracleStream, PluginRefitStream, McPresets, McParallel)}
