"""Command-line interface.

Subcommands: ``gen`` (models, changes, scenarios, streams), ``threshold``
(critical values), ``monitor`` (run the sequential detector over NDJSON or
CSV rows), and ``experiment`` (Monte Carlo presets).

Exit codes: 0 success, 2 configuration/validation error, 3 data error.
Every run emits a manifest: file-writing commands place
``<out>.manifest.json`` next to their output, ``monitor`` emits an in-band
``{"type": "run_manifest", ...}`` object first, and ``threshold`` prints the
manifest as one JSON line on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .clime import ClimeConfig
from .detector import Detector, DetectorConfig
from .errors import GgmWatchError, NonFiniteSample
from .harness import PRESETS, run_experiment
from .iofmt import (
    load_config,
    manifest_dict,
    read_matrix,
    write_manifest,
    write_matrix,
    write_result_csv,
    write_result_ndjson,
)
from .modelgen import (
    ChangeScenario,
    GaussianStream,
    PrecisionMatrix,
    gen_chain_precision,
    gen_hub_precision,
    gen_random_sparse,
    make_antidiag_change,
    make_block_change,
    make_uniform_change,
)
from .threshold import (
    critical_value,
    critical_value_asymptotic,
    critical_value_exact,
    critical_value_union,
)

CONFIG_ERROR = 2
DATA_ERROR = 3


class DataError(Exception):
    """Malformed input data; mapped to exit code 3."""


def _flag(text: str) -> bool:
    return bool(int(text))


# monitor config keys: name -> (parser, default); threshold_method and the
# clime_* keys default to None so that critical_value and ClimeConfig hold
# their defaults
_MONITOR_KEYS: dict[str, tuple] = {
    "p": (int, None),
    "w": (int, None),
    "n_burnin": (int, None),
    "batch": (int, None),
    "pi0": (float, 0.05),
    "threshold_method": (str, None),
    "zeta": (float, None),
    "oracle_matrix": (str, None),
    "clime_lambda_rule": (str, None),
    "clime_lambda_level": (float, None),
    "clime_psd_project": (_flag, None),
    "clime_lp_tolerance": (float, None),
    "clime_center": (_flag, None),
}

_EXPERIMENT_KINDS = {
    "fa-calibration": "fa_calibration",
    "plugin-calibration": "plugin_calibration",
    "power": "power_curve",
    "delay-curve": "delay_curve",
    "delay": "delay_profile",
    "lcpd-block": "lcpd_block",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ggmwatch")
    parser.add_argument("--version", action="version", version=f"ggmwatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate models, changes, scenarios and streams")
    gsub = gen.add_subparsers(dest="gen_kind", required=True)

    g_chain = gsub.add_parser("chain")
    g_chain.add_argument("--p", type=int, required=True)
    g_chain.add_argument("--rho", type=float, required=True)
    g_chain.add_argument("--out", required=True)

    g_sparse = gsub.add_parser("sparse")
    g_sparse.add_argument("--p", type=int, required=True)
    g_sparse.add_argument("--density", type=float, required=True)
    g_sparse.add_argument("--inflation", type=float, default=0.1)
    g_sparse.add_argument("--seed", type=int, default=0)
    g_sparse.add_argument("--out", required=True)

    g_hub = gsub.add_parser("hub")
    g_hub.add_argument("--p", type=int, required=True)
    g_hub.add_argument("--hubs", type=int, required=True)
    g_hub.add_argument("--spokes", type=int, required=True)
    g_hub.add_argument("--inflation", type=float, default=0.1)
    g_hub.add_argument("--seed", type=int, default=0)
    g_hub.add_argument("--out", required=True)

    g_change = gsub.add_parser("change")
    g_change.add_argument("--matrix", required=True)
    g_change.add_argument("--kind", choices=("block", "antidiag", "uniform"), required=True)
    g_change.add_argument("--s", type=int, default=1)
    g_change.add_argument("--beta", type=float, required=True)
    g_change.add_argument("--out", required=True)

    g_scn = gsub.add_parser("scenario")
    g_scn.add_argument("--pre", required=True)
    g_scn.add_argument("--post", required=True)
    g_scn.add_argument("--t0", type=int, required=True)
    g_scn.add_argument("--burnin", type=int, required=True)
    g_scn.add_argument("--horizon", type=int, required=True)
    g_scn.add_argument("--out", required=True)

    g_stream = gsub.add_parser("stream")
    g_stream.add_argument("--scenario", required=True)
    g_stream.add_argument("--seed", type=int, default=0)
    g_stream.add_argument("--count", type=int, required=True)
    g_stream.add_argument("--ndjson", action="store_true")
    g_stream.add_argument("--out", required=True)

    thr = sub.add_parser("threshold", help="print critical values")
    thr.add_argument("--pi0", type=float, required=True)
    thr.add_argument("--p", type=int, required=True)
    thr.add_argument("--w", type=int, required=True)

    mon = sub.add_parser("monitor", help="run the sequential detector on a stream")
    mon.add_argument("--config", default=None, help="flat key=value config file")
    mon.add_argument("--input", default="-", help="NDJSON or CSV rows; '-' for stdin")
    mon.add_argument("--trace", action="store_true", help="emit per-step statistics")
    for key, (typ, _) in _MONITOR_KEYS.items():
        mon.add_argument(f"--{key}", type=typ, default=None)

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment preset")
    exp.add_argument("kind", choices=sorted(_EXPERIMENT_KINDS))
    exp.add_argument("--preset", required=True)
    exp.add_argument("--replicates", type=int, default=None)
    exp.add_argument("--master_seed", type=int, default=None)
    exp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    exp.add_argument("--out", required=True)

    return parser


def _manifest_for(args, argv: list[str], inputs: list[str], master_seed=None, config=None):
    return manifest_dict(
        command=argv,
        config_path=config,
        master_seed=master_seed,
        input_paths=inputs,
        tool_version=__version__,
    )


def cmd_gen(args, argv: list[str]) -> int:
    inputs: list[str] = []
    if args.gen_kind == "chain":
        write_matrix(args.out, gen_chain_precision(args.p, args.rho).entries)
    elif args.gen_kind == "sparse":
        write_matrix(
            args.out, gen_random_sparse(args.p, args.density, args.inflation, args.seed).entries
        )
    elif args.gen_kind == "hub":
        write_matrix(
            args.out,
            gen_hub_precision(args.p, args.hubs, args.spokes, args.inflation, args.seed).entries,
        )
    elif args.gen_kind == "change":
        inputs = [args.matrix]
        pre = PrecisionMatrix.from_entries(read_matrix(args.matrix))
        if args.kind == "block":
            post = make_block_change(pre, args.s, args.beta)
        elif args.kind == "antidiag":
            post = make_antidiag_change(pre, args.s, args.beta)
        else:
            post = make_uniform_change(pre, args.beta)
        write_matrix(args.out, post.entries)
    elif args.gen_kind == "scenario":
        inputs = [args.pre, args.post]
        scenario = _load_scenario_parts(args.pre, args.post, args.t0, args.burnin, args.horizon)
        with open(args.out, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "pre_matrix": args.pre,
                        "post_matrix": args.post,
                        "t0": scenario.t0,
                        "n_burnin": scenario.n_burnin,
                        "horizon": scenario.horizon,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    elif args.gen_kind == "stream":
        inputs = [args.scenario]
        with open(args.scenario) as fh:
            spec = json.load(fh)
        base = os.path.dirname(os.path.abspath(args.scenario))
        scenario = _load_scenario_parts(
            os.path.join(base, spec["pre_matrix"]),
            os.path.join(base, spec["post_matrix"]),
            spec["t0"],
            spec["n_burnin"],
            spec["horizon"],
        )
        inputs += [
            os.path.join(base, spec["pre_matrix"]),
            os.path.join(base, spec["post_matrix"]),
        ]
        rows = GaussianStream(scenario, args.seed).take(args.count)
        with open(args.out, "w") as fh:
            for t, row in enumerate(rows, start=1):
                if args.ndjson:
                    fh.write(
                        json.dumps({"t": t, "x": [float(v) for v in row]}) + "\n"
                    )
                else:
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    write_manifest(f"{args.out}.manifest.json", _manifest_for(args, argv, inputs))
    return 0


def _load_scenario_parts(pre_path, post_path, t0, burnin, horizon) -> ChangeScenario:
    pre = PrecisionMatrix.from_entries(read_matrix(pre_path))
    post = PrecisionMatrix.from_entries(read_matrix(post_path))
    return ChangeScenario(
        omega_pre=pre, omega_post=post, t0=t0, n_burnin=burnin, horizon=horizon
    )


def cmd_threshold(args, argv: list[str]) -> int:
    exact = critical_value_exact(args.pi0, args.p, args.w)
    asym = critical_value_asymptotic(args.pi0, args.p)
    union = critical_value_union(args.pi0, args.p) if args.pi0 < 0.5 else None
    print(f"exact      {exact:.6f}")
    print(f"asymptotic {asym:.6f}")
    if union is None:
        print("union      n/a (pi0 >= 1/2)")
    else:
        print(f"union      {union:.6f}")
    print(json.dumps(_manifest_for(args, argv, []), sort_keys=True), file=sys.stderr)
    return 0


def _monitor_settings(args) -> dict:
    settings = {key: default for key, (_, default) in _MONITOR_KEYS.items()}
    if args.config:
        raw = load_config(args.config)
        for key, value in raw.items():
            if key not in _MONITOR_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _MONITOR_KEYS[key][0](value)
        if settings["oracle_matrix"]:  # relative to the config file, as in `gen stream`
            base = os.path.dirname(os.path.abspath(args.config))
            settings["oracle_matrix"] = os.path.join(base, settings["oracle_matrix"])
    for key in _MONITOR_KEYS:
        override = getattr(args, key)
        if override is not None:
            settings[key] = override
    return settings


def _given(settings: dict, prefix: str) -> dict:
    """The settings named ``prefix<arg>`` that are set, keyed by ``<arg>``."""
    return {
        key[len(prefix):]: value
        for key, value in settings.items()
        if key.startswith(prefix) and value is not None
    }


def _monitor_detector(settings: dict) -> Detector:
    oracle = None
    if settings["oracle_matrix"]:
        oracle = PrecisionMatrix.from_entries(read_matrix(settings["oracle_matrix"]))
        if settings["p"] is None:
            settings["p"] = oracle.p
        elif settings["p"] != oracle.p:
            raise ValueError(
                f"p={settings['p']} does not match oracle matrix dimension {oracle.p}"
            )
    for key in ("p", "w"):
        if settings[key] is None:
            raise ValueError(f"missing required setting {key!r}")
    if settings["n_burnin"] is None:
        settings["n_burnin"] = 0 if oracle is not None else 300
    zeta = settings["zeta"]
    if zeta is None:  # an explicit zeta overrides pi0 and threshold_method
        zeta = critical_value(
            settings["pi0"], settings["p"], settings["w"], **_given(settings, "threshold_")
        )
    config = DetectorConfig(
        p=settings["p"],
        w=settings["w"],
        zeta=zeta,
        n_burnin=settings["n_burnin"],
        batch=settings["batch"],
        clime=ClimeConfig(**_given(settings, "clime_")),
        oracle_omega=oracle,
    )
    return Detector(config)


def _parse_row(line: str, lineno: int, ndjson: bool, p: int) -> tuple[int | None, np.ndarray]:
    try:
        if ndjson:
            obj = json.loads(line)
            x = np.asarray(obj["x"], dtype=np.float64)
            t = obj.get("t")
        else:
            x = np.asarray([float(tok) for tok in line.split(",")], dtype=np.float64)
            t = None
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"line {lineno}: malformed row: {exc}") from None
    if x.shape != (p,):
        raise DataError(f"line {lineno}: expected {p} values, got {x.shape}")
    if not np.isfinite(x).all():
        raise DataError(f"line {lineno}: non-finite value")
    return t, x


def cmd_monitor(args, argv: list[str]) -> int:
    settings = _monitor_settings(args)
    detector = _monitor_detector(settings)
    inputs = [p for p in (args.config, settings["oracle_matrix"]) if p]
    manifest = _manifest_for(args, argv, inputs, config=args.config)
    out = sys.stdout
    out.write(
        json.dumps({"type": "run_manifest", **manifest}, sort_keys=True, allow_nan=False) + "\n"
    )
    out.flush()
    fh = sys.stdin if args.input == "-" else open(args.input)
    try:
        ndjson = None
        lineno = 0
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            if ndjson is None:
                ndjson = line.startswith("{")
            t_in, x = _parse_row(line, lineno, ndjson, settings["p"])
            try:
                event = detector.step(x)
            except NonFiniteSample as exc:  # a plug-in fit whose covariance overflows
                raise DataError(f"line {lineno}: {exc}") from None
            stat = detector.last_statistic
            if stat is not None and not math.isfinite(stat):
                raise DataError(f"line {lineno}: statistic is {stat}; values too large")
            t_out = t_in if t_in is not None else detector.t
            if args.trace and stat is not None:
                obj = {"t": t_out, "stat": stat}
                out.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
                out.flush()
            if event is not None:
                obj = {
                    "type": "change_point",
                    "t": t_out,
                    "stat": event.statistic,
                    "zeta": event.zeta,
                }
                out.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
                out.flush()
    finally:
        if fh is not sys.stdin:
            fh.close()
    return 0


def cmd_experiment(args, argv: list[str]) -> int:
    preset = PRESETS.get(args.preset)
    if preset is None:
        raise ValueError(f"unknown preset {args.preset!r}; choices: {sorted(PRESETS)}")
    expected_kind = _EXPERIMENT_KINDS[args.kind]
    if preset.kind != expected_kind:
        raise ValueError(
            f"preset {args.preset!r} is a {preset.kind} experiment, not {expected_kind}"
        )
    config = preset
    if args.replicates is not None:
        config = dataclasses.replace(config, replicates=args.replicates)
    if args.master_seed is not None:
        config = dataclasses.replace(config, master_seed=args.master_seed)
    result = run_experiment(config, jobs=max(1, args.jobs))
    write_result_csv(result, f"{args.out}.csv")
    write_result_ndjson(result, f"{args.out}.ndjson")
    manifest = _manifest_for(args, argv, [], master_seed=config.master_seed)
    manifest["preset"] = args.preset
    manifest["replicates"] = config.replicates
    write_manifest(f"{args.out}.manifest.json", manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args, argv)
        if args.command == "threshold":
            return cmd_threshold(args, argv)
        if args.command == "monitor":
            return cmd_monitor(args, argv)
        if args.command == "experiment":
            return cmd_experiment(args, argv)
        raise AssertionError("unreachable")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (GgmWatchError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
