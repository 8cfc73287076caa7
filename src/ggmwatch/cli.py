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
import gc
import json
import os
import signal
import sys

import numpy as np

from . import __version__
from .bindings import _one_blas_thread, usable_cores
from .clime import ClimeConfig
from .detector import Detector, DetectorConfig
from .errors import (
    DimensionMismatch,
    GgmWatchError,
    Infeasible,
    NegativeZetaSquared,
    NonFiniteSample,
    NonPositiveDiagonal,
    SolverStall,
)
from .iofmt import (
    format_float,
    json_line,
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
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


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
    "delay-curve": "power_curve",  # fig5-desk: mis-detection versus window length
    "delay": "delay_profile",
    "lcpd-block": "lcpd_block",
}

# `gen change --kind`: the post-change model of a pre-change one, given s and beta
_CHANGES = {
    "block": make_block_change,
    "antidiag": make_antidiag_change,
    "uniform": lambda pre, s, beta: make_uniform_change(pre, beta),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ggmwatch")
    parser.add_argument("--version", action="version", version=f"ggmwatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # every command that writes files
    out.add_argument("--out", required=True)
    seeded = argparse.ArgumentParser(add_help=False)  # the random models
    seeded.add_argument("--inflation", type=float, default=0.1)
    seeded.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen", help="generate models, changes, scenarios and streams")
    gsub = gen.add_subparsers(dest="gen_kind", required=True)

    g_chain = gsub.add_parser("chain", parents=[out])
    g_chain.add_argument("--p", type=int, required=True)
    g_chain.add_argument("--rho", type=float, required=True)

    g_sparse = gsub.add_parser("sparse", parents=[out, seeded])
    g_sparse.add_argument("--p", type=int, required=True)
    g_sparse.add_argument("--density", type=float, required=True)

    g_hub = gsub.add_parser("hub", parents=[out, seeded])
    g_hub.add_argument("--p", type=int, required=True)
    g_hub.add_argument("--hubs", type=int, required=True)
    g_hub.add_argument("--spokes", type=int, required=True)

    g_change = gsub.add_parser("change", parents=[out])
    g_change.add_argument("--matrix", required=True)
    g_change.add_argument("--kind", choices=_CHANGES, required=True)
    g_change.add_argument("--s", type=int, default=1)
    g_change.add_argument("--beta", type=float, required=True)

    g_scn = gsub.add_parser("scenario", parents=[out])
    g_scn.add_argument("--pre", required=True)
    g_scn.add_argument("--post", required=True)
    g_scn.add_argument("--t0", type=int, required=True)
    g_scn.add_argument("--burnin", type=int, required=True)
    g_scn.add_argument("--horizon", type=int, required=True)

    g_stream = gsub.add_parser("stream", parents=[out])
    g_stream.add_argument("--scenario", required=True)
    g_stream.add_argument("--seed", type=int, default=0)
    g_stream.add_argument("--count", type=int, required=True)
    g_stream.add_argument("--ndjson", action="store_true")

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

    exp = sub.add_parser("experiment", parents=[out], help="run a Monte Carlo experiment preset")
    exp.add_argument("kind", choices=sorted(_EXPERIMENT_KINDS))
    exp.add_argument("--preset", required=True)
    exp.add_argument("--replicates", type=int, default=None)
    exp.add_argument("--master_seed", type=int, default=None)
    exp.add_argument("--jobs", type=int, default=usable_cores())

    return parser


def _manifest_for(argv: list[str], inputs: list[str], master_seed=None, config=None):
    return manifest_dict(command=argv, config_path=config, master_seed=master_seed,
                         input_paths=inputs, tool_version=__version__)


def _check_out(out: str) -> None:
    """Refuse, before any work, an ``--out`` that names no file in an existing directory."""
    head, name = os.path.split(out)
    if not name or os.path.isdir(out):
        raise ValueError(f"--out {out!r} names a directory, not a file")
    if not os.path.isdir(head or "."):
        raise ValueError(f"output directory {head or '.'!r} does not exist")


def _beside(anchor: str, path: str) -> str:
    """``path`` taken relative to the directory of the file ``anchor`` (an
    absolute ``path`` stays as it is)."""
    return os.path.join(os.path.dirname(anchor), path)


def _load_scenario(pre_path, post_path, t0, burnin, horizon) -> ChangeScenario:
    pre = PrecisionMatrix.from_entries(read_matrix(pre_path))
    post = PrecisionMatrix.from_entries(read_matrix(post_path))
    return ChangeScenario(omega_pre=pre, omega_post=post, t0=t0, n_burnin=burnin, horizon=horizon)


# the model each `gen` kind other than scenario and stream writes
_MODELS = {
    "chain": lambda a: gen_chain_precision(a.p, a.rho),
    "sparse": lambda a: gen_random_sparse(a.p, a.density, a.inflation, a.seed),
    "hub": lambda a: gen_hub_precision(a.p, a.hubs, a.spokes, a.inflation, a.seed),
    "change": lambda a: _CHANGES[a.kind](
        PrecisionMatrix.from_entries(read_matrix(a.matrix)), a.s, a.beta
    ),
}


def _gen_scenario(args) -> list[str]:
    _load_scenario(args.pre, args.post, args.t0, args.burnin, args.horizon)  # validates
    # `gen stream` reads the matrix paths relative to the scenario file
    base = os.path.dirname(os.path.abspath(args.out))
    pre, post = (path if os.path.isabs(path) else os.path.relpath(path, base)
                 for path in (args.pre, args.post))
    spec = {"pre_matrix": pre, "post_matrix": post, "t0": args.t0, "n_burnin": args.burnin,
            "horizon": args.horizon}
    with open(args.out, "w") as fh:
        fh.write(json_line(spec))
    return [args.pre, args.post]


# the keys of a scenario file, with the type each value must have exactly
_SCENARIO_KEYS = {"pre_matrix": str, "post_matrix": str, "t0": int, "n_burnin": int,
                  "horizon": int}


def _read_scenario(path: str) -> dict:
    """The scenario object in the JSON file ``path``; a ValueError names the
    file and, for a missing or ill-typed value, its key."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if type(spec) is not dict:
        raise ValueError(f"{path}: the scenario is not a JSON object")
    for key, typ in _SCENARIO_KEYS.items():
        if key not in spec:
            raise ValueError(f"{path}: missing key {key!r}")
        if type(spec[key]) is not typ:  # so neither true nor 5.0 is an int
            raise ValueError(f"{path}: {key!r} is {json.dumps(spec[key])}, not "
                             f"{'a string' if typ is str else 'an integer'}")
    return spec


def _gen_stream(args) -> list[str]:
    spec = _read_scenario(args.scenario)
    pre, post = (_beside(args.scenario, spec[key]) for key in ("pre_matrix", "post_matrix"))
    scenario = _load_scenario(pre, post, spec["t0"], spec["n_burnin"], spec["horizon"])
    rows = GaussianStream(scenario, args.seed).take(args.count).tolist()
    with open(args.out, "w") as fh:
        for t, row in enumerate(rows, start=1):
            fh.write(json_line({"t": t, "x": row}) if args.ndjson
                     else ",".join(map(format_float, row)) + "\n")
    return [args.scenario, pre, post]


def cmd_gen(args, argv: list[str]) -> int:
    _check_out(args.out)
    seed = getattr(args, "seed", 0)  # sparse, hub and stream key Philox with it
    if not 0 <= seed < 2**128:
        raise ValueError(f"--seed {seed} is out of range; it must be in [0, 2**128)")
    if args.gen_kind == "scenario":
        inputs = _gen_scenario(args)
    elif args.gen_kind == "stream":
        inputs = _gen_stream(args)
    else:
        write_matrix(args.out, _MODELS[args.gen_kind](args).entries)
        inputs = [args.matrix] if args.gen_kind == "change" else []
    write_manifest(f"{args.out}.manifest.json", _manifest_for(argv, inputs))
    return 0


def _value_or_na(solve, *args) -> str:
    """A closed-form critical value, or ``n/a (<reason>)`` where it is undefined."""
    try:
        return f"{solve(*args):.6f}"
    except NegativeZetaSquared as exc:
        return f"n/a ({exc})"


def cmd_threshold(args, argv: list[str]) -> int:
    exact = critical_value_exact(args.pi0, args.p, args.w)
    asym = _value_or_na(critical_value_asymptotic, args.pi0, args.p)
    union = (_value_or_na(critical_value_union, args.pi0, args.p) if args.pi0 < 0.5
             else "n/a (pi0 >= 1/2)")
    print(f"exact      {exact:.6f}\nasymptotic {asym}\nunion      {union}")
    sys.stderr.write(json_line(_manifest_for(argv, [])))
    return 0


def _monitor_settings(args) -> dict:
    settings = {key: default for key, (_, default) in _MONITOR_KEYS.items()}
    if args.config:
        raw = load_config(args.config)
        for key, value in raw.items():
            if key not in _MONITOR_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                settings[key] = _MONITOR_KEYS[key][0](value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        if settings["oracle_matrix"]:  # relative to the config file, as in `gen stream`
            settings["oracle_matrix"] = _beside(args.config, settings["oracle_matrix"])
    for key in _MONITOR_KEYS:
        override = getattr(args, key)
        if override is not None:
            settings[key] = override
    if settings["oracle_matrix"] == "":  # not plug-in mode: that is the key left out
        raise ValueError("oracle_matrix is empty; name a matrix file, or leave the key out")
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


def _csv_values(line: str, orjson) -> np.ndarray:
    """The comma-separated tokens of ``line``, each parsed as ``float()`` would,
    with the ``orjson`` module that ``cmd_monitor`` imports.

    JSON's number grammar is a subset of ``float()``'s and orjson rounds
    correctly, so a row that orjson reads as floats only gets ``float()``'s
    bits from one call instead of one ``float()`` per token. Any other row
    goes through ``float()`` token by token, which also raises its
    ``ValueError``: orjson reads integer tokens as ints (``-0`` as 0, losing
    the sign) and takes ``true``, ``null``, strings and lists.
    """
    try:
        vals = orjson.loads("[" + line + "]")
    except orjson.JSONDecodeError:
        vals = ()
    if set(map(type, vals)) == {float}:
        return np.array(vals, dtype=np.float64)
    return np.array(line.split(","), dtype=np.float64)


def _parse_row(line: str, lineno: int, ndjson: bool, orjson) -> tuple[int | None, np.ndarray]:
    try:
        if ndjson:  # orjson reads NaN, Infinity and an int past the float range as errors
            obj = orjson.loads(line)
            if type(obj) is not dict or "x" not in obj:
                raise ValueError('not an object with an "x"')
            x, t = obj["x"], obj.get("t")
            if type(x) is not list:
                raise ValueError(f'"x" is {orjson.dumps(x).decode()}, not a list of numbers')
            # an exact type test: true is an int to Python, "1.5" a float to numpy
            if not set(map(type, x)) <= {int, float}:
                bad = next(v for v in x if type(v) not in (int, float))
                raise ValueError(f'"x" holds {orjson.dumps(bad).decode()}, not a number')
            x = np.asarray(x, dtype=np.float64)
        else:
            x, t = _csv_values(line, orjson), None
    except ValueError as exc:  # orjson's JSONDecodeError and float()'s error are ValueErrors
        raise DataError(f"line {lineno}: malformed row: {exc}") from None
    if t is not None and type(t) is not int:  # nor bool, nor an int orjson read as a float
        if type(t) is float:  # orjson reads an int outside [-2**63, 2**64) as a float
            t = json.loads(line)["t"]  # the row's own digits, exactly
        if type(t) is int:
            raise DataError(f'line {lineno}: malformed row: "t" is {t}, '
                            "not in [-2**63, 2**64)")
        raise DataError(f'line {lineno}: malformed row: "t" is {orjson.dumps(t).decode()}, '
                        "not an integer")
    return t, x


# bytes per read of the monitor input
_CHUNK = 1 << 16

# monitor output lines, with json.dumps' bytes: a `t` is passed through
# int.__repr__ and a statistic or zeta through float.__repr__ (numpy 2 prints
# np.float64(...) for a `!r`), and an error is one of three class names
_TRACE = '{"t":%s,"stat":%s}\n'
_CHANGE_POINT = '{"type":"change_point","t":%s,"stat":%s,"zeta":%s}\n'
_FIT_FAILED = '{"type":"fit_failed","t":%s,"error":"%s"}\n'


def _chunks(fh):
    """The lines of the raw binary file ``fh``, one list per read of up to
    ``_CHUNK`` bytes, each line decoded as UTF-8 with ``surrogateescape`` and
    ending in its line break (the input's last line may have none).

    Lines break where text-mode iteration breaks them: at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``. A line that a read leaves open waits
    for the next read; a ``\\r`` that ends a read ends its line at once, and
    a ``\\n`` that starts the next read is dropped as the rest of a
    ``\\r\\n``. Breaks are ASCII bytes, so no character spans two lines.
    """
    tail, after_cr = b"", False
    while data := fh.read(_CHUNK):
        if after_cr and data.startswith(b"\n"):
            data = data[1:]
        after_cr = data.endswith(b"\r")
        lines = (tail + data).splitlines(keepends=True)
        tail = lines.pop() if lines and not lines[-1].endswith((b"\n", b"\r")) else b""
        yield [line.decode("utf-8", "surrogateescape") for line in lines]
    if tail:
        yield [tail.decode("utf-8", "surrogateescape")]


def cmd_monitor(args, argv: list[str]) -> int:
    import orjson  # only monitor rows use it; imported before the first line is written

    settings = _monitor_settings(args)
    detector = _monitor_detector(settings)
    inputs = [p for p in (args.config, settings["oracle_matrix"]) if p]
    out = sys.stdout
    # a byte that is not UTF-8 becomes a lone surrogate, which no number
    # contains, so its row fails to parse and names its line
    stdin = args.input == "-"
    # an input that cannot be opened writes nothing; numpy's overflow warnings are
    # off, since the detector already turns each overflow into NonFiniteSample
    with open(sys.stdin.fileno() if stdin else args.input, "rb", buffering=0,
              closefd=not stdin) as fh, np.errstate(over="ignore", invalid="ignore"):
        out.write(json_line({"type": "run_manifest",
                             **_manifest_for(argv, inputs, config=args.config)}))
        out.flush()
        ndjson = None
        lineno = 0
        for lines in _chunks(fh):
            batch: list[str] = []
            try:
                for line in lines:
                    lineno += 1
                    line = line.strip()
                    if not line:
                        continue
                    if ndjson is None:
                        ndjson = line.startswith("{")
                    t_in, x = _parse_row(line, lineno, ndjson, orjson)
                    failed = None
                    try:
                        event = detector.step(x)
                    # a row of the wrong length or with a non-finite value, or so
                    # large that the window's statistic or a plug-in fit's
                    # covariance overflows
                    except (DimensionMismatch, NonFiniteSample) as exc:
                        raise DataError(f"line {lineno}: {exc}") from None
                    # any other failed fit leaves the detector able to go on:
                    # burn-in starts again, or a batch refit keeps the previous
                    # estimate
                    except (Infeasible, SolverStall, NonPositiveDiagonal) as exc:
                        event, failed = None, type(exc).__name__
                    stat = detector.last_statistic
                    t = int.__repr__(t_in if t_in is not None else detector.t)
                    if args.trace and stat is not None:
                        batch.append(_TRACE % (t, float.__repr__(stat)))
                    if event is not None:
                        batch.append(_CHANGE_POINT % (t, float.__repr__(event.statistic),
                                                      float.__repr__(event.zeta)))
                    if failed is not None:  # a batch refit follows its step's test
                        batch.append(_FIT_FAILED % (t, failed))
            finally:  # before the next read may block, or a malformed row exits 3
                out.write("".join(batch))
                out.flush()
    return 0


def cmd_experiment(args, argv: list[str]) -> int:
    # the harness and its process-pool stack load only for this command
    from .harness import PRESETS, run_experiment

    _check_out(args.out)
    preset = PRESETS.get(args.preset)
    if preset is None:
        raise ValueError(f"unknown preset {args.preset!r}; choices: {sorted(PRESETS)}")
    expected_kind = _EXPERIMENT_KINDS[args.kind]
    if preset.kind != expected_kind:
        raise ValueError(
            f"preset {args.preset!r} is a {preset.kind} experiment, not {expected_kind}"
        )
    given = {"replicates": args.replicates, "master_seed": args.master_seed}
    config = dataclasses.replace(preset, **{k: v for k, v in given.items() if v is not None})
    result = run_experiment(config, jobs=args.jobs)
    write_result_csv(result, f"{args.out}.csv")
    write_result_ndjson(result, f"{args.out}.ndjson")
    manifest = _manifest_for(argv, [], master_seed=config.master_seed)
    manifest.update(preset=args.preset, replicates=config.replicates)
    write_manifest(f"{args.out}.manifest.json", manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # run as the program
        if hasattr(signal, "SIGPIPE"):  # a reader that goes away ends it, as it ends cat
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        try:
            return main(sys.argv[1:])
        finally:
            # the exit then leaves the objects of the numpy/scipy imports unwalked
            gc.freeze()
    argv = list(argv)
    args = _build_parser().parse_args(argv)
    # looked up at call time, so that a wrapped cmd_* is the one that runs
    commands = {"gen": cmd_gen, "threshold": cmd_threshold, "monitor": cmd_monitor,
                "experiment": cmd_experiment}
    try:
        # threaded BLAS products round differently, and a plug-in fit's HiGHS
        # threads would contend with spinning BLAS ones
        with _one_blas_thread():
            return commands[args.command](args, argv)
    except (DataError, GgmWatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR if isinstance(exc, DataError) else CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
