import gc
import io
import json
import os
import select
import signal
import struct
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ggmwatch as gw
import ggmwatch.cli as cli_module
import ggmwatch.detector as detector_module
import ggmwatch.harness as harness_module
from ggmwatch.bindings import _openblas
from ggmwatch.cli import _parse_row, main
from ggmwatch.errors import Infeasible
from ggmwatch.iofmt import read_matrix, sha256_file

from conftest import SRC_ENV, strict_json, strict_ndjson


def run_cli(args):
    return main(list(args))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# CSV tokens: any binary64 bit pattern written by repr, %.17g or %.40e (nan and
# inf included), and integers of any size, -0 among them
_TOKENS = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).flatmap(
        lambda v: st.sampled_from([repr(v), "%.17g" % v, "%.40e" % v])
    ),
    st.integers().map(str),
    st.integers(-(2**1100), 2**1100).map(str),
    st.just("-0"),
)


# NDJSON "x" entries: finite doubles written by repr, %.17g or %.40e, and
# integers, those from 2**53 up to 2**64 and beyond up to the float range among them
_JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), "%.17g" % v, "%.40e" % v])
    ),
    st.integers().map(str),
    st.integers(2**53, 2**64 - 1).map(str),
    st.integers(-(2**1023), 2**1023).map(str),
)

# a valid `gen stream` scenario on m.txt; a value of ... drops its key
_SCENARIO = {"pre_matrix": "m.txt", "post_matrix": "m.txt", "t0": 5, "n_burnin": 0,
             "horizon": 20}


def _scenario_text(**changes) -> str:
    return json.dumps({k: v for k, v in {**_SCENARIO, **changes}.items() if v is not ...})


class TestGen:
    def test_chain_roundtrip(self, tmp_path):
        out = tmp_path / "m.txt"
        assert run_cli(["gen", "chain", "--p", "7", "--rho", "0.5", "--out", str(out)]) == 0
        m = read_matrix(out)
        assert np.array_equal(m, gw.gen_chain_precision(7, 0.5).entries)
        assert (tmp_path / "m.txt.manifest.json").exists()

    def test_matrix_format_exact_roundtrip(self, tmp_path):
        out = tmp_path / "s.txt"
        run_cli(["gen", "sparse", "--p", "12", "--density", "0.2", "--seed", "9", "--out", str(out)])
        m = read_matrix(out)
        assert np.array_equal(m, gw.gen_random_sparse(12, 0.2, 0.1, 9).entries)

    def test_sparse_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run_cli(
                ["gen", "sparse", "--p", "10", "--density", "0.2", "--seed", "4", "--out", str(out)]
            )
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_independent_of_blas_threads_subprocess(self, tmp_path):
        # every command runs on one BLAS thread: on two, the generators'
        # Cholesky and inverse products and the stream's transform rounded
        # differently in thousands of the written values
        outs = []
        for threads in ("1", "2"):
            d = tmp_path / threads
            d.mkdir()
            env = dict(SRC_ENV, OPENBLAS_NUM_THREADS=threads)
            for args in (["sparse", "--p", "300", "--density", "0.05", "--seed", "3",
                          "--out", "s.txt"],
                         ["hub", "--p", "300", "--hubs", "10", "--spokes", "20", "--seed", "3",
                          "--out", "h.txt"],
                         ["scenario", "--pre", "s.txt", "--post", "h.txt", "--t0", "1000",
                          "--burnin", "0", "--horizon", "3000", "--out", "sc.json"],
                         ["stream", "--scenario", "sc.json", "--seed", "1", "--count", "2300",
                          "--out", "r.csv"]):
                subprocess.run([sys.executable, "-m", "ggmwatch.cli", "gen", *args], check=True,
                               capture_output=True, env=env, cwd=d, timeout=120)
            outs.append([(d / name).read_bytes() for name in ("s.txt", "h.txt", "r.csv")])
        assert outs[0] == outs[1]

    def test_invalid_density_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["gen", "sparse", "--p", "8", "--density", "1.5", "--seed", "1",
             "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_full_density_exits_2_naming_density(self, tmp_path, capsys):
        code = run_cli(
            ["gen", "sparse", "--p", "3", "--density", "1.0", "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2
        assert "row_density" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where, message", [
        ("p 2\n1 0\n0 x\n", 3, "could not convert string to float: 'x'"),
        ("p abc\n1 0\n0 1\n", 1, "invalid literal for int()"),
        ("q 2\n1 0\n0 1\n", 1, "expected header 'p <dim>'"),
        ("p 2\n1 0\n\n0 1 2\n", 4, "expected 2 values, got 3"),
        ("p 2\n1 0\n\xff 1\n", 3, "could not convert string to float"),
    ], ids=["token", "dimension", "header", "row_length", "non_utf8"])
    def test_bad_matrix_file_names_its_line(self, tmp_path, capsys, text, where, message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text.encode("latin-1"))
        code = run_cli(["gen", "change", "--matrix", str(bad), "--kind", "uniform",
                        "--beta", "1.0", "--out", str(tmp_path / "post.txt")])
        assert code == 2
        assert f"error: {bad}:{where}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "post.txt").exists()

    def test_hub(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run_cli(
            ["gen", "hub", "--p", "20", "--hubs", "2", "--spokes", "5", "--seed", "3",
             "--out", str(out)]
        ) == 0
        assert read_matrix(out).shape == (20, 20)

    def test_change_and_scenario_and_stream(self, tmp_path):
        pre = tmp_path / "pre.txt"
        post = tmp_path / "post.txt"
        scn = tmp_path / "sc.json"
        stream = tmp_path / "rows.csv"
        run_cli(["gen", "chain", "--p", "6", "--rho", "0.4", "--out", str(pre)])
        assert run_cli(
            ["gen", "change", "--matrix", str(pre), "--kind", "uniform", "--beta", "1.0",
             "--out", str(post)]
        ) == 0
        assert np.allclose(read_matrix(post), read_matrix(pre) / 2.0)
        assert run_cli(
            ["gen", "scenario", "--pre", str(pre), "--post", str(post), "--t0", "10",
             "--burnin", "0", "--horizon", "40", "--out", str(scn)]
        ) == 0
        assert run_cli(
            ["gen", "stream", "--scenario", str(scn), "--seed", "2", "--count", "30",
             "--out", str(stream)]
        ) == 0
        rows = stream.read_text().splitlines()
        assert len(rows) == 30
        assert len(rows[0].split(",")) == 6


    def test_scenario_paths_relative_to_scenario_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "chain", "--p", "4", "--rho", "0.3", "--out", "omega.txt"])
        run_cli(["gen", "chain", "--p", "4", "--rho", "0.1", "--out", "post.txt"])
        (tmp_path / "sub").mkdir()
        scenario = ["gen", "scenario", "--pre", "omega.txt", "--post", "post.txt", "--t0", "5",
                    "--burnin", "0", "--horizon", "20", "--out"]
        assert run_cli([*scenario, "sub/scenario.json"]) == 0
        spec = json.loads((tmp_path / "sub" / "scenario.json").read_text())
        assert (spec["pre_matrix"], spec["post_matrix"]) == ("../omega.txt", "../post.txt")
        assert run_cli(["gen", "stream", "--scenario", "sub/scenario.json", "--count", "10",
                        "--out", "rows.csv"]) == 0
        assert len((tmp_path / "rows.csv").read_text().splitlines()) == 10
        # in the working directory the paths are written as given
        assert run_cli([*scenario, "scenario.json"]) == 0
        spec = json.loads((tmp_path / "scenario.json").read_text())
        assert (spec["pre_matrix"], spec["post_matrix"]) == ("omega.txt", "post.txt")

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "res").mkdir()
        out = str(tmp_path / "res") + os.sep
        assert run_cli(["gen", "chain", "--p", "4", "--rho", "0.3", "--out", out]) == 2
        assert f"error: --out {out!r} names a directory" in capsys.readouterr().err
        assert list((tmp_path / "res").iterdir()) == []

    def test_missing_out_dir_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        matrix, scn = str(tmp_path / "m.txt"), tmp_path / "sc.json"
        run_cli(["gen", "chain", "--p", "4", "--rho", "0.3", "--out", matrix])
        run_cli(["gen", "scenario", "--pre", matrix, "--post", matrix, "--t0", "5",
                 "--burnin", "0", "--horizon", "20", "--out", str(scn)])

        def fail(*args, **kwargs):
            raise AssertionError("rows were drawn")

        monkeypatch.setattr(cli_module.GaussianStream, "take", fail)
        out = tmp_path / "nodir" / "rows.csv"
        code = run_cli(["gen", "stream", "--scenario", str(scn), "--count", "20",
                        "--out", str(out)])
        assert code == 2
        assert f"output directory {str(out.parent)!r} does not exist" in capsys.readouterr().err

    def test_same_named_inputs_each_keep_their_hash(self, tmp_path, monkeypatch):
        # matrices that share a file name are keyed by their paths; a file
        # given twice, or a name no other input has, is keyed by its name
        monkeypatch.chdir(tmp_path)
        for folder, rho in (("a", "0.3"), ("b", "0.4")):
            os.mkdir(folder)
            run_cli(["gen", "chain", "--p", "4", "--rho", rho, "--out", f"{folder}/omega.txt"])
        digest = {path: sha256_file(path) for path in ("a/omega.txt", "b/omega.txt")}

        def inputs(*args):
            *_, out = args
            assert run_cli(list(args)) == 0
            with open(f"{out}.manifest.json") as fh:
                return strict_json(fh.read())["inputs"]

        scenario = ["gen", "scenario", "--t0", "5", "--burnin", "0", "--horizon", "20"]
        assert inputs(*scenario, "--pre", "a/omega.txt", "--post", "b/omega.txt",
                      "--out", "sc.json") == digest
        assert inputs("gen", "stream", "--scenario", "sc.json", "--count", "20",
                      "--out", "rows.csv") == {**digest, "sc.json": sha256_file("sc.json")}
        assert inputs(*scenario, "--pre", "a/omega.txt", "--post", "a/omega.txt",
                      "--out", "same.json") == {"omega.txt": digest["a/omega.txt"]}

    @pytest.mark.parametrize("text, message", [
        (_scenario_text(t0="5"), "'t0' is \"5\", not an integer"),
        (_scenario_text(t0=5.0), "'t0' is 5.0, not an integer"),
        (_scenario_text(n_burnin=True), "'n_burnin' is true, not an integer"),
        (_scenario_text(horizon=None), "'horizon' is null, not an integer"),
        (_scenario_text(pre_matrix=5), "'pre_matrix' is 5, not a string"),
        (_scenario_text(post_matrix=["m.txt"]), "'post_matrix' is [\"m.txt\"], not a string"),
        (_scenario_text(t0=...), "missing key 't0'"),
        ("[1, 2]", "the scenario is not a JSON object"),
        ("{", "Expecting property name enclosed in double quotes"),
    ], ids=["t0_str", "t0_float", "n_burnin_bool", "horizon_null", "pre_int", "post_list",
            "t0_missing", "top_level_list", "not_json"])
    def test_bad_scenario_file_exits_2_naming_key(self, tmp_path, capsys, text, message):
        run_cli(["gen", "chain", "--p", "4", "--rho", "0.3", "--out", str(tmp_path / "m.txt")])
        scn, out = tmp_path / "sc.json", tmp_path / "rows.csv"
        stream = ["gen", "stream", "--scenario", str(scn), "--count", "5", "--out", str(out)]
        scn.write_text(_scenario_text())
        assert run_cli(stream) == 0
        out.unlink()
        scn.write_text(text)
        capsys.readouterr()
        assert run_cli(stream) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scn}: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("args, name", [
        (["chain", "--p", "5", "--rho", "nan"], "rho0"),
        (["sparse", "--p", "10", "--density", "0.2", "--inflation", "nan"], "diag_inflation"),
        (["hub", "--p", "10", "--hubs", "2", "--spokes", "3", "--inflation", "inf"],
         "diag_inflation"),
    ], ids=["chain_rho_nan", "sparse_inflation_nan", "hub_inflation_inf"])
    def test_non_finite_model_input_exits_2(self, tmp_path, capsys, args, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run_cli(["gen", *args, "--out", str(tmp_path / "m.txt")]) == 2
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err and "Warning" not in err


class TestThreshold:
    def test_values_printed(self, capsys):
        assert run_cli(["threshold", "--pi0", "0.05", "--p", "100", "--w", "50"]) == 0
        out = capsys.readouterr().out.splitlines()
        vals = {line.split()[0]: float(line.split()[1]) for line in out}
        assert vals["exact"] == pytest.approx(4.734291, abs=1e-5)
        assert vals["asymptotic"] == pytest.approx(4.4392, abs=1e-3)
        assert vals["union"] == pytest.approx(4.4422, abs=1e-3)

    def test_manifest_on_stderr(self, capsys):
        run_cli(["threshold", "--pi0", "0.05", "--p", "10", "--w", "20"])
        err = capsys.readouterr().err.strip()
        assert strict_json(err)["tool_version"] == gw.__version__

    def test_widened_bracket_writes_only_the_manifest(self):
        # the exact root lies beyond the first bracket [0, 20]; a real process
        # shows any warning that pytest would record instead
        argv = ["threshold", "--pi0", "1e-9", "--p", "100", "--w", "2"]
        proc = subprocess.run([sys.executable, "-m", "ggmwatch.cli", *argv],
                              capture_output=True, text=True, env=SRC_ENV, check=True,
                              timeout=120)
        assert proc.stdout == "exact      20.682754\nasymptotic 7.430534\nunion      7.430534\n"
        err = proc.stderr.splitlines()
        assert len(err) == 1 and strict_json(err[0])["command"] == argv

    def test_invalid_pi0_exits_2(self, capsys):
        assert run_cli(["threshold", "--pi0", "0", "--p", "100", "--w", "50"]) == 2

    def test_undefined_closed_form_prints_na(self, capsys):
        # the exact critical value exists where the asymptotic zeta^2 is negative
        assert run_cli(["threshold", "--pi0", "0.95", "--p", "3", "--w", "50"]) == 0
        exact, asym, union = capsys.readouterr().out.splitlines()
        assert float(exact.split()[1]) == pytest.approx(gw.critical_value_exact(0.95, 3, 50),
                                                         abs=1e-6)
        assert asym == ("asymptotic n/a (closed-form zeta^2 = -0.3388 <= 0; "
                        "p too small for this pi0)")
        assert union == "union      n/a (pi0 >= 1/2)"

    def test_large_w_near_asymptotic(self, capsys):
        # the closed form keeps a fixed o(1) gap of ~0.025 at p=100
        run_cli(["threshold", "--pi0", "0.05", "--p", "100", "--w", "1000000"])
        out = capsys.readouterr().out.splitlines()
        vals = {line.split()[0]: float(line.split()[1]) for line in out}
        assert abs(vals["exact"] - vals["asymptotic"]) < 0.03


@pytest.fixture()
def oracle_setup(tmp_path):
    pre = tmp_path / "pre.txt"
    run_cli(["gen", "chain", "--p", "10", "--rho", "0.5", "--out", str(pre)])
    cfg = tmp_path / "mon.cfg"
    cfg.write_text(
        f"oracle_matrix={pre}\nw=30\npi0=0.0001\nthreshold_method=exact\nn_burnin=0\n"
    )
    return tmp_path, pre, cfg


# runs CLI commands one after another in a fresh interpreter and reports,
# after the import and after each command, which of the lazily imported
# modules are loaded
_IMPORT_PROBE = """
import json, sys
from ggmwatch.cli import main
loaded = lambda: sorted({"scipy.optimize._highspy._core", "scipy.optimize", "scipy.linalg",
                         "scipy.special", "orjson", "ggmwatch.harness",
                         "concurrent.futures.process"} & set(sys.modules))
print("loaded:", json.dumps(loaded()))
for argv in json.loads(sys.argv[1]):
    try:
        main(argv)
    except SystemExit:
        pass
    print("loaded:", json.dumps(loaded()))
"""


def _lazy_imports(commands, cwd) -> list[list[str]]:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, cwd=cwd, env=SRC_ENV, check=True,
                          timeout=120)
    return [json.loads(line.removeprefix("loaded:")) for line in proc.stdout.splitlines()
            if line.startswith("loaded:")]


_SCIPY_PACKAGES = {"scipy.optimize", "scipy.linalg", "scipy.special"}
# the Monte Carlo harness and the process-pool stack it imports
_HARNESS = {"ggmwatch.harness", "concurrent.futures.process"}


def _imports_lp_solver(args, cwd) -> bool:
    """Whether the command loads HiGHS's binding. Neither the import nor the
    command may load the scipy packages that hold the bindings, or the harness."""
    loaded = _lazy_imports([args], cwd)
    assert not any((_SCIPY_PACKAGES | _HARNESS).intersection(now) for now in loaded)
    return "scipy.optimize._highspy._core" in loaded[-1]


# inputs whose line breaks (\n, \r\n, a lone \r), blank lines, multibyte
# characters and bytes that are not UTF-8 the monitor must split and number as
# text-mode iteration does; \x0b, \x0c, \x1c, U+0085 and U+2028 break lines for
# str.splitlines but not there
_LINE_BREAK_INPUTS = [
    b"1,2\n3,4\n",
    b"1,2\r\n3,4\r\n5,6",
    b"1,2\r3,4\r\r\n\r",
    b"\n\n1\r\n\r\n\n2\n",
    "1,\u00e9\r2,\u20ac\n\U0001d11e3\r\n".encode(),
    b"1\xff,2\r\n\xe2\x82\n\xc3\r4\xed\xa0\x80\n",
    "a\x0bb\x0cc\x1cd\u0085e\u2028f\r\ng".encode(),
]
_LINE_BREAK_PIECES = [b"1", b",", b" ", b"\n", b"\r", b"\r\n", "\u00e9".encode(),
                      "\u20ac".encode(), "\U0001d11e".encode(), b"\xff", b"\xe2", b"\x85"]


def _text_mode_lines(data: bytes) -> list[str]:
    """The lines of ``data`` as ``monitor`` read them before it read in
    chunks: text-mode iteration, UTF-8 with surrogateescape, breaks dropped."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape") as fh:
        return [line.rstrip("\n") for line in fh]


class _Reads:
    """A raw file whose reads return ``data`` cut at the offsets ``cuts``."""

    def __init__(self, data: bytes, cuts):
        bounds = [0, *cuts, len(data)]
        self.pieces = [data[a:b] for a, b in zip(bounds, bounds[1:])]

    def read(self, size: int) -> bytes:
        return self.pieces.pop(0) if self.pieces else b""


def _chunk_lines(data: bytes, cuts) -> list[str]:
    return [line.rstrip("\r\n") for lines in cli_module._chunks(_Reads(data, cuts))
            for line in lines]


def _read_line(pipe, timeout: float = 60.0) -> bytes:
    """One line from the unbuffered ``pipe``, read a byte at a time; fails
    if none ends within ``timeout`` seconds."""
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([pipe], [], [], timeout)
        assert ready, f"no line within {timeout} s; got {line!r}"
        byte = pipe.read(1)
        assert byte, f"end of output within a line: {line!r}"
        line += byte
    return line


class TestMonitor:
    def test_lp_solver_imported_only_for_a_fit(self, oracle_setup):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((40, 10)), delimiter=",")
        assert not _imports_lp_solver(["--version"], tmp)
        assert not _imports_lp_solver(["monitor", "--config", str(cfg), "--input", str(rows)], tmp)
        plugin = tmp / "plugin.cfg"
        plugin.write_text("p=10\nw=10\nn_burnin=30\n")
        assert _imports_lp_solver(["monitor", "--config", str(plugin), "--input", str(rows)], tmp)

    def test_orjson_imported_only_by_monitor(self, oracle_setup):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((40, 10)), delimiter=",")
        commands = [["--version"],
                    ["gen", "chain", "--p", "5", "--rho", "0.3", "--out", str(tmp / "c.txt")],
                    ["threshold", "--pi0", "0.05", "--p", "10", "--w", "20"],
                    ["experiment", "fa-calibration", "--preset", "fig1-desk",
                     "--replicates", "2", "--jobs", "1", "--out", str(tmp / "fa")],
                    ["monitor", "--config", str(cfg), "--input", str(rows)]]
        loaded = _lazy_imports(commands, tmp)
        # the import and every command before monitor leave orjson unloaded,
        # and every command before experiment the harness
        assert ["orjson" in now for now in loaded] == [False] * 5 + [True]
        assert [sorted(_HARNESS.intersection(now)) for now in loaded] == (
            [[]] * 4 + [sorted(_HARNESS)] * 2)
        assert not any(_SCIPY_PACKAGES.intersection(now) for now in loaded)

    def test_h0_stream_no_events(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        scn = tmp / "sc.json"
        rows = tmp / "rows.csv"
        run_cli(["gen", "scenario", "--pre", str(pre), "--post", str(pre), "--t0", "50",
                 "--burnin", "0", "--horizon", "200", "--out", str(scn)])
        run_cli(["gen", "stream", "--scenario", str(scn), "--seed", "6", "--count", "200",
                 "--out", str(rows)])
        capsys.readouterr()
        assert run_cli(["monitor", "--config", str(cfg), "--input", str(rows)]) == 0
        objs = strict_ndjson(capsys.readouterr().out)
        assert objs[0]["type"] == "run_manifest"
        assert [o for o in objs if o["type"] == "change_point"] == []

    def test_planted_change_detected_once(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        post = tmp / "post.txt"
        scn = tmp / "sc.json"
        rows = tmp / "rows.csv"
        run_cli(["gen", "change", "--matrix", str(pre), "--kind", "uniform", "--beta", "3",
                 "--out", str(post)])
        run_cli(["gen", "scenario", "--pre", str(pre), "--post", str(post), "--t0", "60",
                 "--burnin", "0", "--horizon", "95", "--out", str(scn)])
        run_cli(["gen", "stream", "--scenario", str(scn), "--seed", "8", "--count", "90",
                 "--out", str(rows)])
        capsys.readouterr()
        assert run_cli(["monitor", "--config", str(cfg), "--input", str(rows)]) == 0
        events = [o for o in strict_ndjson(capsys.readouterr().out) if o["type"] == "change_point"]
        assert len(events) == 1
        assert 61 <= events[0]["t"] <= 90
        assert events[0]["stat"] >= events[0]["zeta"]

    def test_trace_rows(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "small.csv"
        scn = tmp / "sc.json"
        run_cli(["gen", "scenario", "--pre", str(pre), "--post", str(pre), "--t0", "10",
                 "--burnin", "0", "--horizon", "40", "--out", str(scn)])
        run_cli(["gen", "stream", "--scenario", str(scn), "--seed", "3", "--count", "35",
                 "--out", str(rows)])
        capsys.readouterr()
        run_cli(["monitor", "--config", str(cfg), "--input", str(rows), "--trace"])
        objs = strict_ndjson(capsys.readouterr().out)
        traces = [o for o in objs if set(o) == {"t", "stat"}]
        assert len(traces) == 35 - 30 + 1
        assert traces[0]["t"] == 30

    def test_ndjson_input_with_t(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "rows.ndjson"
        rng = np.random.default_rng(5)
        with open(rows, "w") as fh:
            for t in range(1000, 1040):
                fh.write(json.dumps({"t": t, "x": rng.standard_normal(10).tolist()}) + "\n")
        capsys.readouterr()
        run_cli(["monitor", "--config", str(cfg), "--input", str(rows), "--trace"])
        objs = strict_ndjson(capsys.readouterr().out)
        traces = [o for o in objs if set(o) == {"t", "stat"}]
        assert traces[0]["t"] == 1029  # echoes the provided index

    def test_malformed_line_names_lineno(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        bad = tmp / "bad.csv"
        good = ",".join(["0.1"] * 10)
        lines = [good] * 16 + ["not,numbers"] + [good]
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad)])
        assert code == 3
        assert "line 17" in capsys.readouterr().err

    @staticmethod
    def _bad_line_17(tmp, ndjson, row):
        """18 rows of 10 values, CSV or NDJSON, with ``row`` as line 17."""
        rows = [["0.1"] * 10] * 18
        rows[16] = row
        bad = tmp / "bad.txt"
        fmt = (lambda r: '{"x":[%s]}' % ",".join(r)) if ndjson else ",".join
        bad.write_text("".join(fmt(r) + "\n" for r in rows))
        return bad

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("ndjson", [False, True])
    def test_non_finite_row_names_lineno(self, oracle_setup, capsys, token, ndjson):
        tmp, pre, cfg = oracle_setup
        if ndjson:
            token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[token]
        bad = self._bad_line_17(tmp, ndjson, ["0.1"] * 3 + [token] + ["0.1"] * 6)
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        assert code == 3
        assert "line 17" in capsys.readouterr().err

    @pytest.mark.parametrize("ndjson", [False, True])
    def test_short_row_names_lineno(self, oracle_setup, capsys, ndjson):
        tmp, pre, cfg = oracle_setup
        bad = self._bad_line_17(tmp, ndjson, ["0.1"] * 9)
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        assert code == 3
        assert "line 17" in capsys.readouterr().err

    @staticmethod
    def _identity_monitor(tmp, capsys, ts):
        """Monitor NDJSON rows with the given ``"t"`` values under an identity
        oracle at p=3, w=3, zeta=0.5, where every full window fires; returns
        the exit code, the output objects and stderr."""
        pre = tmp / "eye.txt"
        pre.write_text("p 3\n1 0 0\n0 1 0\n0 0 1\n")
        rows = tmp / "rows.ndjson"
        rows.write_text("".join(json.dumps({"t": t, "x": [3.0, -3.0, 3.0]}) + "\n" for t in ts))
        capsys.readouterr()
        code = run_cli(["monitor", "--p", "3", "--w", "3", "--zeta", "0.5", "--oracle_matrix",
                        str(pre), "--input", str(rows)])
        captured = capsys.readouterr()
        return code, strict_ndjson(captured.out), captured.err

    def test_integer_t_is_echoed(self, tmp_path, capsys):
        code, objs, _ = self._identity_monitor(tmp_path, capsys, [10, 11, 12, 13, 14, 15])
        assert code == 0
        assert [o["t"] for o in objs if o.get("type") == "change_point"] == [12, 15]

    def test_64_bit_t_is_echoed(self, tmp_path, capsys):
        code, objs, _ = self._identity_monitor(tmp_path, capsys, [-(2**63), 0, 2**64 - 1])
        assert code == 0
        assert [o["t"] for o in objs if o.get("type") == "change_point"] == [2**64 - 1]

    # orjson reads an integer outside [-2**63, 2**64) as a float
    @pytest.mark.parametrize("bad", ["row-2", 2.5, True, 2**64, -(2**63) - 1], ids=repr)
    def test_non_integer_t_names_lineno(self, tmp_path, capsys, bad):
        code, objs, err = self._identity_monitor(tmp_path, capsys, [10, 11, bad, 13])
        assert code == 3
        assert "line 3" in err and '"t"' in err
        assert [o for o in objs if o.get("type") == "change_point"] == []

    def test_csv_tokens_parse_as_float(self):
        # edge tokens get float()'s bits in a row that only float() reads, alone,
        # and next to a JSON float
        tokens = ["-0.0", "5e-324", "1e308", " 1", "1_000", "0.1", "1e-400",
                  "2.2250738585072014e-308", "-1.7976931348623157e+308",
                  "0.30000000000000004", "+7.", ".5e1 ", "-0", "0", "18446744073709551617",
                  "1e400", "1234567890123456789012345678901234567890e-30",
                  # 1 + 2**-53, halfway between 1 and the next double: rounds to even
                  "1.00000000000000011102230246251565404236316680908203125"]
        for row in [tokens, *([tok] for tok in tokens), *([tok, "0.5"] for tok in tokens)]:
            _, x = _parse_row(",".join(row), 1, False, orjson)
            assert x.tobytes() == np.array([float(tok) for tok in row]).tobytes(), row

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TOKENS, min_size=1, max_size=6))
    def test_csv_row_parses_as_float_property(self, tokens):
        _, x = _parse_row(",".join(tokens), 1, False, orjson)
        assert x.tobytes() == np.array([float(tok) for tok in tokens]).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(2**63), 2**64 - 1), st.lists(_JSON_NUMBERS, min_size=1, max_size=6))
    def test_ndjson_row_parses_as_json_loads_property(self, t, tokens):
        line = '{"t":%d,"x":[%s]}' % (t, ",".join(tokens))
        t_out, x = _parse_row(line, 1, True, orjson)
        want = json.loads(line)  # the standard library's parser, as the reference
        assert t_out == want["t"]
        assert x.tobytes() == np.asarray(want["x"], dtype=np.float64).tobytes()

    # orjson rejects the tokens of a non-finite number, and a float past the range
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_ndjson_non_finite_token_is_malformed(self, oracle_setup, capsys, token):
        tmp, pre, cfg = oracle_setup
        bad = self._bad_line_17(tmp, True, ["0.1"] * 3 + [token] + ["0.1"] * 6)
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        assert code == 3
        assert "line 17: malformed row" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "-3"])
    def test_dimension_below_one_exits_2_before_output(self, tmp_path, capsys, p):
        rows = tmp_path / "rows.csv"
        rows.write_text("0.1\n")
        code = run_cli(["monitor", "--p", p, "--w", "2", "--zeta", "1", "--n_burnin", "2",
                        "--input", str(rows)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: p must be >= 1, got {p}\n"

    @pytest.mark.parametrize("token, ndjson", [
        pytest.param(token, ndjson, id=("ndjson-" if ndjson else "") + token)
        for ndjson in (False, True)
        for token in ["x", "", "1e", "0x10", "1 2", "--1", "true", "null", '"1"', "[1]"]
    ])
    def test_malformed_token_names_lineno(self, oracle_setup, capsys, token, ndjson):
        tmp, pre, cfg = oracle_setup
        bad = self._bad_line_17(tmp, ndjson, ["0.1"] * 4 + [token] + ["0.1"] * 5)
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        assert code == 3
        err = capsys.readouterr().err
        if ndjson:  # an "x" entry that is not a JSON number
            assert "line 17: malformed row" in err
        else:
            with pytest.raises(ValueError) as exc:
                float(token)
            assert "line 17" in err and str(exc.value) in err

    @staticmethod
    def _bad_byte_line_5(ndjson: bool) -> bytes:
        """Eight rows of 10 values, CSV or NDJSON, with the byte 0xff, which
        is not UTF-8, ending a token on line 5."""
        rows = [b",".join([b"0.1"] * 10)] * 8
        rows[4] = b",".join([b"0.1"] * 3 + [b"0.1\xff"] + [b"0.1"] * 6)
        if ndjson:
            rows = [b'{"x":[%s]}' % r for r in rows]
        return b"".join(r + b"\n" for r in rows)

    @pytest.mark.parametrize("ndjson", [False, True])
    def test_non_utf8_byte_names_lineno(self, oracle_setup, capsys, ndjson):
        tmp, pre, cfg = oracle_setup
        bad = tmp / "bad.txt"
        bad.write_bytes(self._bad_byte_line_5(ndjson))
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad)])
        assert code == 3
        assert "line 5" in capsys.readouterr().err

    def test_non_utf8_byte_on_stdin_names_lineno(self, oracle_setup):
        tmp, pre, cfg = oracle_setup
        env = dict(SRC_ENV, PYTHONIOENCODING="utf-8:strict")
        proc = subprocess.run([sys.executable, "-m", "ggmwatch.cli", "monitor", "--config",
                               str(cfg)], input=self._bad_byte_line_5(False),
                              capture_output=True, cwd=tmp, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert b"line 5" in proc.stderr

    @pytest.mark.parametrize("data", _LINE_BREAK_INPUTS, ids=repr)
    def test_lines_break_as_in_text_mode(self, data):
        # every split of the input into one, two or three reads
        cuts = [()] + [(i,) for i in range(1, len(data))]
        cuts += [(i, j) for i in range(1, len(data)) for j in range(i + 1, len(data))]
        want = _text_mode_lines(data)
        for cut in cuts:
            assert _chunk_lines(data, cut) == want, cut

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(_LINE_BREAK_PIECES), max_size=40),
           st.sets(st.integers(1, 200), max_size=8))
    def test_lines_break_as_in_text_mode_property(self, pieces, cuts):
        data = b"".join(pieces)
        assert _chunk_lines(data, sorted(c for c in cuts if c < len(data))) == \
            _text_mode_lines(data)

    def test_malformed_row_mid_chunk_writes_the_rows_before(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        good = ",".join(["0.1"] * 10)
        # line 3 is blank, line 4 ends in \r\n and line 5 in a lone \r
        bad = tmp / "bad.csv"
        bad.write_bytes(f"{good}\n{good}\n\n{good}\r\n{good}\r{good}\nnot,numbers\n{good}\n"
                        .encode())
        code = run_cli(["monitor", "--config", str(cfg), "--w", "2", "--input", str(bad),
                        "--trace"])
        captured = capsys.readouterr()
        assert code == 3
        assert "line 7: malformed row" in captured.err
        assert [o["t"] for o in strict_ndjson(captured.out)[1:]] == [2, 3, 4, 5]

    def test_closed_loop_gets_each_decision_before_the_next_row(self, oracle_setup):
        # each row's trace line comes back before the next row is written;
        # the rows end in \n, \r\n and a lone \r, and the \n of a \r\n can
        # come with the next row, in the next read
        tmp, pre, cfg = oracle_setup
        rows = np.random.default_rng(3).standard_normal((13, 10)).tolist()
        ends = [b"\n", b"\r\n", b"\r"]
        proc = subprocess.Popen([sys.executable, "-m", "ggmwatch.cli", "monitor", "--config",
                                 str(cfg), "--w", "2", "--trace"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, cwd=tmp, env=SRC_ENV, bufsize=0)
        try:
            assert json.loads(_read_line(proc.stdout))["type"] == "run_manifest"
            after = b""
            for t, row in enumerate(rows, start=1):
                end = ends[t % 3]
                proc.stdin.write(after + ",".join(map(repr, row)).encode() + end)
                # the \n after a \r goes with the next row, as if it were the \r\n's
                after = b"\n" if end == b"\r" and t % 2 else b""
                if t >= 2:
                    assert json.loads(_read_line(proc.stdout))["t"] == t
            proc.stdin.close()
            assert proc.wait(timeout=120) == 0
            assert proc.stdout.read() == b""
        finally:
            proc.kill()
            proc.wait()

    def test_reader_that_goes_away_is_no_error(self, oracle_setup):
        # the output outgrows a pipe; the reader takes one line and closes it
        tmp, pre, cfg = oracle_setup
        rows = tmp / "rows.csv"
        x = np.random.default_rng(5).standard_normal((20_000, 10))
        rows.write_text("".join(",".join(f"{v:.3f}" for v in r) + "\n" for r in x))
        proc = subprocess.Popen([sys.executable, "-m", "ggmwatch.cli", "monitor", "--config",
                                 str(cfg), "--w", "2", "--input", str(rows), "--trace"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp,
                                env=SRC_ENV, bufsize=0)
        try:
            assert json.loads(_read_line(proc.stdout))["type"] == "run_manifest"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode != 2
        assert b"error:" not in err
        if hasattr(signal, "SIGPIPE"):
            assert proc.returncode == -signal.SIGPIPE

    def test_huge_finite_row_exits_3_with_strict_json(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        rows = [["0.1"] * 10 for _ in range(35)]
        rows[31][3] = "1e200"  # finite, but its square overflows the window's Gram
        bad = tmp / "big.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: line 32: statistic at sample 32 is inf; "
                                "values too large\n")
        objs = strict_ndjson(captured.out)
        assert objs[0]["type"] == "run_manifest"
        assert [o["t"] for o in objs[1:]] == [30, 31]
        assert all(o.get("type") != "change_point" for o in objs)

    def test_huge_burnin_row_exits_3_with_strict_json(self, tmp_path, capsys):
        rows = np.random.default_rng(4).standard_normal((20, 4)).astype(str)
        rows[4, 2] = "1e200"  # finite, but the burn-in covariance overflows
        bad = tmp_path / "big.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        code = run_cli(["monitor", "--p", "4", "--w", "4", "--n_burnin", "12",
                        "--input", str(bad), "--trace"])
        captured = capsys.readouterr()
        assert code == 3
        # the fit at the end of the burn-in
        assert captured.err == ("error: line 12: sample covariance is not finite; "
                                "values too large\n")
        objs = strict_ndjson(captured.out)
        assert [o["type"] for o in objs] == ["run_manifest"]

    @staticmethod
    def _monitor_failing_fit(tmp_path, monkeypatch, capsys, failing):
        """Plug-in monitor (p=4, w=4, burn-in 12, batch 3) over 40 rows, with
        the fits numbered ``failing`` (from 1) raising Infeasible; returns the
        exit code, the strictly parsed output objects, the rows and
        ``{fit number: (rows fitted, estimate or None)}``."""
        rows = np.random.default_rng(9).standard_normal((40, 4))
        path = tmp_path / "rows.csv"
        path.write_text("".join(",".join(map(str, r.tolist())) + "\n" for r in rows))
        estimate, fits = detector_module.clime_estimate, {}

        def flaky(samples, config):
            n = len(fits) + 1
            fits[n] = (len(samples), None)
            if n in failing:
                raise Infeasible(f"fit {n}")
            result = estimate(samples, config)
            fits[n] = (len(samples), result.omega_hat)
            return result

        monkeypatch.setattr(detector_module, "clime_estimate", flaky)
        capsys.readouterr()
        code = run_cli(["monitor", "--p", "4", "--w", "4", "--n_burnin", "12", "--batch", "3",
                        "--zeta", "1e9", "--input", str(path), "--trace"])
        return code, strict_ndjson(capsys.readouterr().out), rows, fits

    def test_failed_batch_refit_writes_fit_failed(self, tmp_path, monkeypatch, capsys):
        code, objs, rows, fits = self._monitor_failing_fit(tmp_path, monkeypatch, capsys, {2})
        assert code == 0
        assert objs[0]["type"] == "run_manifest"
        # tests from t=16; the refit after the third test (t=18) fails, the
        # next one (t=21) succeeds
        assert [o for o in objs if "type" in o and o["type"] != "run_manifest"] == [
            {"type": "fit_failed", "t": 18, "error": "Infeasible"}
        ]
        stats = {o["t"]: o["stat"] for o in objs if set(o) == {"t", "stat"}}
        assert sorted(stats) == list(range(16, 41))
        assert [o.get("t") for o in objs[1:5]] == [16, 17, 18, 18]  # the refit follows its test
        assert [n for n, _ in fits.values()][:3] == [12, 18, 21]
        for t in range(16, 41):
            # the estimate of the last successful fit before the test: the
            # first one until the third fit
            omega = [om for n, om in fits.values() if n < t and om is not None][-1]
            exact = gw.plugin_statistic(omega, rows[t - 4 : t]).sup_norm
            assert abs(stats[t] - exact) <= 1e-12 * exact

    def test_failed_burnin_fit_writes_fit_failed(self, tmp_path, monkeypatch, capsys):
        code, objs, rows, fits = self._monitor_failing_fit(tmp_path, monkeypatch, capsys, {1})
        assert code == 0
        assert objs[1] == {"type": "fit_failed", "t": 12, "error": "Infeasible"}
        # burn-in starts again at t=13 and fits at t=24; tests from t=28
        stats = {o["t"]: o["stat"] for o in objs if set(o) == {"t", "stat"}}
        assert sorted(stats) == list(range(28, 41))
        assert len(objs) == 2 + len(stats)
        assert fits[2][0] == 12  # the rows since the restart
        exact = gw.plugin_statistic(fits[2][1], rows[24:28]).sup_norm
        assert stats[28] == exact

    @pytest.mark.parametrize("zeta", ["nan", "inf", "0", "-1"])
    def test_invalid_zeta_exits_2(self, oracle_setup, capsys, zeta):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "r.csv"
        rows.write_text("0.1," * 9 + "0.1\n")
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(rows), "--zeta", zeta])
        captured = capsys.readouterr()
        assert code == 2
        assert "zeta" in captured.err and captured.out == ""

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_lambda_level_exits_2(self, tmp_path, capsys, level):
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((20, 4)), delimiter=",")
        code = run_cli(["monitor", "--p", "4", "--w", "4", "--n_burnin", "12",
                        "--clime_lambda_level", level, "--input", str(rows)])
        captured = capsys.readouterr()
        assert code == 2
        assert "lambda_level" in captured.err and captured.out == ""

    def test_unknown_threshold_method_exits_2(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        code = run_cli(["monitor", "--config", str(cfg), "--threshold_method", "magic"])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_oracle_matrix_relative_to_config(self, tmp_path, monkeypatch, capsys):
        conf_dir = tmp_path / "conf"
        conf_dir.mkdir()
        run_cli(["gen", "chain", "--p", "10", "--rho", "0.5", "--out", str(conf_dir / "pre.txt")])
        cfg = conf_dir / "mon.cfg"
        cfg.write_text("oracle_matrix=pre.txt\nw=30\nzeta=1e9\nn_burnin=0\n")
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((31, 10)), delimiter=",")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(rows), "--trace"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        objs = strict_ndjson(captured.out)
        assert list(objs[0]["inputs"]) == ["mon.cfg", "pre.txt"]
        assert [o["t"] for o in objs[1:]] == [30, 31]
        # the flag stays relative to the working directory
        code = run_cli(["monitor", "--config", str(cfg), "--oracle_matrix", "pre.txt",
                        "--input", str(rows)])
        assert code == 2

    @pytest.mark.parametrize("line, message", [
        ("p=abc", "config key 'p': invalid literal for int()"),
        ("clime_center=2", "config key 'clime_center': expected 0 or 1, got '2'"),
        ("pi0=high", "config key 'pi0': could not convert string to float"),
    ])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"w=5\n{line}\n")
        assert run_cli(["monitor", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_empty_oracle_matrix_in_config_exits_2(self, tmp_path, capsys):
        # an empty value is not the key left out, which selects plug-in mode
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((20, 5)), delimiter=",")
        cfg = tmp_path / "mon.cfg"
        cfg.write_text("oracle_matrix=\nw=4\nn_burnin=12\n")
        assert run_cli(["monitor", "--config", str(cfg), "--p", "5", "--input", str(rows)]) == 2
        captured = capsys.readouterr()
        assert "oracle_matrix is empty" in captured.err and captured.out == ""

    def test_empty_oracle_matrix_flag_exits_2(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        code = run_cli(["monitor", "--config", str(cfg), "--oracle_matrix", "",
                        "--input", str(tmp / "none.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: oracle_matrix is empty; name a matrix file, or leave "
                                "the key out\n")

    def test_p_against_oracle_dimension_exits_2(self, tmp_path, capsys):
        run_cli(["gen", "chain", "--p", "10", "--rho", "0.5", "--out", str(tmp_path / "pre.txt")])
        capsys.readouterr()
        code = run_cli(["monitor", "--oracle_matrix", str(tmp_path / "pre.txt"), "--p", "12",
                        "--w", "5", "--input", str(tmp_path / "none.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "oracle matrix dimension 10 != detector p 12" in captured.err

    @pytest.mark.parametrize("name", ["none.csv", "."], ids=["missing", "directory"])
    def test_unopenable_input_exits_2_before_the_manifest(self, oracle_setup, capsys, name):
        # an --input that cannot be opened is a configuration error like any
        # other: exit 2, the path named, and no manifest line on stdout
        tmp, pre, cfg = oracle_setup
        path = os.path.join(tmp, name)
        capsys.readouterr()
        code = run_cli(["monitor", "--config", str(cfg), "--input", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and repr(path) in captured.err

    def test_repeated_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("p=4\n# comment\nw=5\n\nw=7\n")
        assert run_cli(["monitor", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"{cfg}:5: repeated key 'w'" in captured.err and captured.out == ""

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        assert run_cli(["monitor", "--config", str(cfg)]) == 2

    def test_flag_overrides_config(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "r.csv"
        scn = tmp / "s.json"
        run_cli(["gen", "scenario", "--pre", str(pre), "--post", str(pre), "--t0", "10",
                 "--burnin", "0", "--horizon", "40", "--out", str(scn)])
        run_cli(["gen", "stream", "--scenario", str(scn), "--seed", "3", "--count", "25",
                 "--out", str(rows)])
        capsys.readouterr()
        # override w from 30 to 20: traces start at t=20
        run_cli(["monitor", "--config", str(cfg), "--input", str(rows), "--trace", "--w", "20"])
        objs = strict_ndjson(capsys.readouterr().out)
        traces = [o for o in objs if set(o) == {"t", "stat"}]
        assert traces[0]["t"] == 20

    @pytest.mark.parametrize("value", ["7", "2", "-1", "true", ""])
    @pytest.mark.parametrize("key", ["clime_psd_project", "clime_center"])
    def test_flag_key_takes_only_0_or_1(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "mon.cfg"
        cfg.write_text(f"p=4\nw=4\n{key}={value}\n")
        assert run_cli(["monitor", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "0 or 1" in captured.err and captured.out == ""
        with pytest.raises(SystemExit) as exc:
            run_cli(["monitor", "--p", "4", "--w", "4", f"--{key}", value])
        assert exc.value.code == 2
        assert f"--{key}" in capsys.readouterr().err

    def test_flag_keys_take_0_and_1(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((20, 4)), delimiter=",")
        cfg = tmp_path / "mon.cfg"
        cfg.write_text("p=4\nw=4\nn_burnin=12\nclime_center=1\nclime_psd_project=0\n")
        assert run_cli(["monitor", "--config", str(cfg), "--input", str(rows),
                        "--clime_center", "0", "--clime_psd_project", "1"]) == 0


    def test_stdout_independent_of_blas_threads_subprocess(self, tmp_path, capsys):
        # the exact steps' Gram products round differently on two BLAS threads
        # unless the whole run is pinned: 3 of 1087 lines moved before it was
        pre, post, sc = (str(tmp_path / name) for name in ("pre.txt", "post.txt", "sc.json"))
        for args in (["gen", "sparse", "--p", "100", "--density", "0.05", "--seed", "3",
                      "--out", pre],
                     ["gen", "change", "--matrix", pre, "--kind", "block", "--s", "2",
                      "--beta", "3", "--out", post],
                     ["gen", "scenario", "--pre", pre, "--post", post, "--t0", "1000",
                      "--burnin", "0", "--horizon", "2000", "--out", sc],
                     ["gen", "stream", "--scenario", sc, "--seed", "1", "--count", "2000",
                      "--out", str(tmp_path / "rows.csv")]):
            assert run_cli(args) == 0
        outs = []
        for threads in ("1", "2"):
            cmd = [sys.executable, "-m", "ggmwatch.cli", "monitor", "--oracle_matrix", "pre.txt",
                   "--w", "50", "--pi0", "0.05", "--trace", "--input", "rows.csv"]
            env = dict(SRC_ENV, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(cmd, check=True, capture_output=True, env=env, cwd=tmp_path)
            outs.append(proc.stdout.split(b"\n", 1)[1])  # after the manifest
        assert outs[0] == outs[1]
        assert outs[0].count(b"change_point") > 0

    def test_runs_on_one_blas_thread_and_restores_the_count(self, oracle_setup, monkeypatch,
                                                            capsys):
        tmp, pre, cfg = oracle_setup
        rows = tmp / "rows.csv"
        np.savetxt(rows, np.random.default_rng(8).standard_normal((40, 10)), delimiter=",")
        blas = _openblas()
        assert blas  # numpy and scipy each load an OpenBLAS
        before = [get() for get, _ in blas]
        parse, during = cli_module._parse_row, []

        def recorded(*args):
            during.append([get() for get, _ in blas])
            return parse(*args)

        monkeypatch.setattr(cli_module, "_parse_row", recorded)
        for _, set_threads in blas:
            set_threads(2)
        try:
            assert run_cli(["monitor", "--config", str(cfg), "--input", str(rows)]) == 0
            assert [get() for get, _ in blas] == [2] * len(blas)
        finally:
            for (_, set_threads), n in zip(blas, before):
                set_threads(n)
        assert len(during) == 40
        assert all(counts == [1] * len(blas) for counts in during)

    def test_missing_highs_binding_exits_2_subprocess(self, tmp_path):
        rows = tmp_path / "rows.csv"
        np.savetxt(rows, np.random.default_rng(2).standard_normal((20, 4)), delimiter=",")
        code = (
            "import sys, ggmwatch.bindings as b\n"
            "load = b.scipy_extension\n"
            "def without_highs(name):\n"
            "    if name == 'optimize._highspy._core':\n"
            "        raise ImportError('no extension module scipy.' + name)\n"
            "    return load(name)\n"
            "b.scipy_extension = without_highs\n"
            "from ggmwatch.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "monitor", "--p", "4", "--w", "4", "--n_burnin", "12",
             "--input", str(rows), "--trace"],
            capture_output=True, text=True, env=SRC_ENV, timeout=120,
        )
        assert proc.returncode == 2
        import scipy

        assert proc.stderr.splitlines() == [
            f"error: scipy {scipy.__version__} has no usable HiGHS binding: "
            "no extension module scipy.optimize._highspy._core"
        ]
        assert [o["type"] for o in strict_ndjson(proc.stdout)] == ["run_manifest"]


class TestExperiment:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["experiment", "fa-calibration", "--preset", "nope", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_missing_out_dir_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness_module, "run_experiment", fail)
        out = tmp_path / "nodir" / "fa"
        code = run_cli(["experiment", "fa-calibration", "--preset", "fig1-desk", "--jobs", "1",
                        "--out", str(out)])
        assert code == 2
        assert f"output directory {str(out.parent)!r} does not exist" in capsys.readouterr().err
        assert not (tmp_path / "nodir").exists()

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness_module, "run_experiment", fail)
        (tmp_path / "res").mkdir()
        out = str(tmp_path / "res") + os.sep
        code = run_cli(["experiment", "fa-calibration", "--preset", "fig1-desk", "--jobs", "1",
                        "--out", out])
        assert code == 2
        assert f"error: --out {out!r} names a directory" in capsys.readouterr().err
        assert list((tmp_path / "res").iterdir()) == []

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["experiment", "power", "--preset", "fig1-desk", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_fa_run_writes_files(self, tmp_path):
        out = tmp_path / "fa"
        code = run_cli(
            ["experiment", "fa-calibration", "--preset", "fig1-desk", "--replicates", "300",
             "--jobs", "1", "--out", str(out)]
        )
        assert code == 0
        assert (tmp_path / "fa.csv").exists()
        assert (tmp_path / "fa.ndjson").exists()
        manifest = strict_json((tmp_path / "fa.manifest.json").read_text())
        assert manifest["preset"] == "fig1-desk"
        assert manifest["replicates"] == 300

    def test_kind_preset_mapping_consistent(self):
        from ggmwatch.cli import _EXPERIMENT_KINDS
        from ggmwatch.harness import PRESETS

        expected = {
            "fig1-desk": "fa-calibration",
            "fig2-desk": "plugin-calibration",
            "table1-desk": "plugin-calibration",
            "fig3-desk": "delay",
            "fig4-desk": "power",
            "fig5-desk": "delay-curve",
            "fig6-desk": "lcpd-block",
        }
        for preset, cli_kind in expected.items():
            assert _EXPERIMENT_KINDS[cli_kind] == PRESETS[preset].kind

    def test_lcpd_block_run(self, tmp_path):
        out = tmp_path / "lcpd"
        code = run_cli(
            ["experiment", "lcpd-block", "--preset", "fig6-desk", "--replicates", "40",
             "--jobs", "1", "--out", str(out)]
        )
        assert code == 0
        rows = (tmp_path / "lcpd.csv").read_text().splitlines()
        # 3 s-values x 6 beta fractions, one pi1 row each
        assert len(rows) == 1 + 18

    def test_byte_identical_across_blas_threads_subprocess(self, tmp_path):
        # the delay profile's burn-in CLIME fit and its Gram products round
        # differently on two BLAS threads unless the whole run is pinned
        outs = []
        for threads, jobs in (("1", "1"), ("2", "1"), ("2", "2")):
            out = tmp_path / f"blas{threads}_jobs{jobs}"
            cmd = [sys.executable, "-m", "ggmwatch.cli", "experiment", "delay",
                   "--preset", "fig3-desk", "--replicates", "2", "--jobs", jobs,
                   "--out", str(out)]
            env = dict(SRC_ENV, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(cmd, check=True, capture_output=True, env=env)
            outs.append([out.with_suffix(ext).read_bytes() for ext in (".csv", ".ndjson")])
        assert outs[0] == outs[1] == outs[2]

    def test_spawned_workers_run_on_one_blas_thread_subprocess(self, tmp_path):
        # a worker that is not forked (forkserver, the default from Python
        # 3.14) loads OpenBLAS at the environment's thread count, so the pool
        # initializer must pin it for the bytes to equal --jobs 1's
        code = ("import multiprocessing, sys\n"
                "multiprocessing.set_start_method('forkserver')\n"
                "from ggmwatch.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            cmd = [sys.executable, "-c", code, "experiment", "delay", "--preset", "fig3-desk",
                   "--replicates", "260", "--jobs", jobs, "--out", str(out)]
            env = dict(SRC_ENV, OPENBLAS_NUM_THREADS="2")
            subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=300)
            outs.append([out.with_suffix(ext).read_bytes() for ext in (".csv", ".ndjson")])
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_default_jobs_on_one_core_builds_no_pool_subprocess(self, tmp_path):
        # --jobs defaults to the cores the CPU affinity allows, the count a
        # CLIME fit's threads follow; this child may run on one core only
        code = ("import os, sys\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "import ggmwatch.harness as hz\n"
                "from ggmwatch.cli import main\n"
                "pools = []\n"
                "class CountingPool(hz.ProcessPoolExecutor):\n"
                "    def __init__(self, *args, **kwargs):\n"
                "        pools.append(1)\n"
                "        super().__init__(*args, **kwargs)\n"
                "hz.ProcessPoolExecutor = CountingPool\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(len(pools))\n")
        args = ["experiment", "fa-calibration", "--preset", "fig1-desk", "--replicates", "500"]
        proc = subprocess.run([sys.executable, "-c", code, *args, "--out", str(tmp_path / "d")],
                              check=True, capture_output=True, env=SRC_ENV, text=True)
        assert proc.stdout == "0\n"  # two tasks, one worker, so no pool
        assert run_cli([*args, "--jobs", "1", "--out", str(tmp_path / "j1")]) == 0
        for ext in ("csv", "ndjson"):
            assert (tmp_path / f"d.{ext}").read_bytes() == (tmp_path / f"j1.{ext}").read_bytes()

    def test_one_replicate_has_no_mean_se_subprocess(self, tmp_path):
        # the standard error of a single value is undefined: none is given,
        # and numpy prints no warning for a std(ddof=1) of it
        out = tmp_path / "one"
        proc = subprocess.run([sys.executable, "-m", "ggmwatch.cli", "experiment",
                               "fa-calibration", "--preset", "fig1-desk", "--replicates", "1",
                               "--jobs", "1", "--out", str(out)], capture_output=True,
                              env=SRC_ENV)
        assert proc.returncode == 0
        assert proc.stderr == b""
        rows = [row.split(",") for row in out.with_suffix(".csv").read_text().splitlines()]
        (mean_sup,) = [row for row in rows if row[3] == "mean_sup"]
        assert mean_sup[5] == "" and mean_sup[6] == "1"
        cell = strict_ndjson(out.with_suffix(".ndjson").read_text())[1]
        assert cell["metrics"]["mean_sup"]["se"] is None

    def test_byte_identical_across_jobs_subprocess(self, tmp_path):
        outs = []
        for jobs, name in (("1", "j1"), ("2", "j2")):
            out = tmp_path / name
            cmd = [sys.executable, "-m", "ggmwatch.cli", "experiment", "fa-calibration",
                   "--preset", "fig1-desk", "--replicates", "500", "--jobs", jobs,
                   "--out", str(out)]
            subprocess.run(cmd, check=True, capture_output=True, env=SRC_ENV)
            outs.append(out)
        a, b = outs
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j2.csv").read_bytes()
        assert (tmp_path / "j1.ndjson").read_bytes() == (tmp_path / "j2.ndjson").read_bytes()


# out-of-range inputs to each command, with the exit code each must give and,
# for some, the error line; "{tmp}" is a directory holding m.txt (a p=4
# chain), sc.json (a 10-row scenario on it), huge.ndjson (a row with an
# integer too large for a float), x_str.ndjson and x_obj.ndjson (a good row,
# then one whose "x" is a string or an object), <name>.ndjson for each row of
# _BAD_ROWS (a good row, then that row) and the empty directory res
_BAD_ROWS = {  # name: (NDJSON row, its error after "malformed row: ")
    "int": ("5", 'not an object with an "x"'),
    "list": ("[0.1,0.2,0.3,0.4]", 'not an object with an "x"'),
    "string": ('"row"', 'not an object with an "x"'),
    "no_x": ('{"t":1}', 'not an object with an "x"'),
    "t_true": ('{"t":true,"x":[0.1,0.1,0.1,0.1]}', '"t" is true, not an integer'),
    "t_string": ('{"t":"a","x":[0.1,0.1,0.1,0.1]}', '"t" is "a", not an integer'),
    # orjson reads these as floats; the error names the integer the row holds
    "t_2_64": ('{"t":18446744073709551616,"x":[0.1,0.1,0.1,0.1]}',
               '"t" is 18446744073709551616, not in [-2**63, 2**64)'),
    "t_below_-2_63": ('{"t":-9223372036854775809,"x":[0.1,0.1,0.1,0.1]}',
                      '"t" is -9223372036854775809, not in [-2**63, 2**64)'),
}
_BAD_INPUTS = {
    "gen_chain_rho": (2, ["gen", "chain", "--p", "4", "--rho", "0.7", "--out", "{tmp}/x"]),
    "gen_sparse_density": (2, ["gen", "sparse", "--p", "8", "--density", "-0.1",
                               "--out", "{tmp}/x"]),
    "gen_hub_hubs": (2, ["gen", "hub", "--p", "10", "--hubs", "11", "--spokes", "2",
                         "--out", "{tmp}/x"]),
    "gen_change_s": (2, ["gen", "change", "--matrix", "{tmp}/m.txt", "--kind", "block",
                         "--s", "5", "--beta", "1", "--out", "{tmp}/x"]),
    "gen_scenario_t0": (2, ["gen", "scenario", "--pre", "{tmp}/m.txt", "--post", "{tmp}/m.txt",
                            "--t0", "0", "--burnin", "0", "--horizon", "10", "--out", "{tmp}/x"]),
    "gen_stream_count": (2, ["gen", "stream", "--scenario", "{tmp}/sc.json", "--count", "11",
                             "--out", "{tmp}/x"]),
    "gen_sparse_seed": (2, ["gen", "sparse", "--p", "8", "--density", "0.2", "--seed", "-1",
                            "--out", "{tmp}/x"]),
    "gen_hub_seed": (2, ["gen", "hub", "--p", "10", "--hubs", "2", "--spokes", "2",
                         "--seed", str(2**128), "--out", "{tmp}/x"]),
    "gen_stream_seed": (2, ["gen", "stream", "--scenario", "{tmp}/sc.json", "--count", "5",
                            "--seed", "-7", "--out", "{tmp}/x"]),
    "gen_out_dir": (2, ["gen", "chain", "--p", "4", "--rho", "0.3", "--out", "{tmp}/res/"]),
    "gen_out_existing_dir": (2, ["gen", "sparse", "--p", "1500", "--density", "0.01",
                                 "--seed", "1", "--out", "{tmp}/res"],
                             "error: --out '{tmp}/res' names a directory, not a file"),
    "threshold_p": (2, ["threshold", "--pi0", "0.05", "--p", "1", "--w", "50"]),
    "threshold_w": (2, ["threshold", "--pi0", "0.05", "--p", "10", "--w", "1"]),
    "monitor_w": (2, ["monitor", "--oracle_matrix", "{tmp}/m.txt", "--w", "1",
                      "--input", "{tmp}/huge.ndjson"]),
    "monitor_batch": (2, ["monitor", "--p", "4", "--w", "3", "--batch", "0",
                          "--input", "{tmp}/huge.ndjson"]),
    "monitor_n_burnin": (2, ["monitor", "--p", "4", "--w", "3", "--n_burnin", "1",
                             "--input", "{tmp}/huge.ndjson"]),
    "monitor_no_w": (2, ["monitor", "--p", "5", "--input", "{tmp}/huge.ndjson"],
                     "error: missing required setting 'w'"),
    "monitor_config_no_equals": (2, ["monitor", "--config", "{tmp}/bad.cfg",
                                     "--input", "{tmp}/huge.ndjson"],
                                 "error: {tmp}/bad.cfg:1: expected key=value, got 'w 5'"),
    "monitor_matrix_short_body": (2, ["monitor", "--oracle_matrix", "{tmp}/short.txt", "--w", "3",
                                      "--input", "{tmp}/huge.ndjson"],
                                  "error: {tmp}/short.txt: expected 3x3 body, got shape (2, 3)"),
    "monitor_huge_int": (3, ["monitor", "--oracle_matrix", "{tmp}/m.txt", "--w", "3",
                             "--input", "{tmp}/huge.ndjson"]),
    "monitor_x_string": (3, ["monitor", "--oracle_matrix", "{tmp}/m.txt", "--w", "3",
                             "--input", "{tmp}/x_str.ndjson"],
                         'error: line 2: malformed row: "x" is "1.5", not a list of numbers'),
    "monitor_x_object": (3, ["monitor", "--oracle_matrix", "{tmp}/m.txt", "--w", "3",
                             "--input", "{tmp}/x_obj.ndjson"],
                         'error: line 2: malformed row: "x" is {"a":1}, not a list of numbers'),
    **{
        f"monitor_row_{name}": (3, ["monitor", "--oracle_matrix", "{tmp}/m.txt", "--w", "3",
                                    "--input", f"{{tmp}}/{name}.ndjson"],
                                f"error: line 2: malformed row: {message}")
        for name, (_, message) in _BAD_ROWS.items()
    },
    "experiment_replicates": (2, ["experiment", "fa-calibration", "--preset", "fig1-desk",
                                  "--replicates", "0", "--out", "{tmp}/x"]),
    "experiment_out_dir": (2, ["experiment", "fa-calibration", "--preset", "fig1-desk",
                               "--replicates", "2", "--jobs", "1", "--out", "{tmp}/res/"]),
    "experiment_out_existing_dir": (2, ["experiment", "fa-calibration", "--preset", "fig1-desk",
                                        "--replicates", "2", "--jobs", "1",
                                        "--out", "{tmp}/res"],
                                    "error: --out '{tmp}/res' names a directory, not a file"),
    "experiment_jobs_zero": (2, ["experiment", "fa-calibration", "--preset", "fig1-desk",
                                 "--replicates", "2", "--jobs", "0", "--out", "{tmp}/x"],
                             "error: jobs must be >= 1, got 0"),
    "experiment_jobs_negative": (2, ["experiment", "fa-calibration", "--preset", "fig1-desk",
                                     "--replicates", "2", "--jobs", "-3", "--out", "{tmp}/x"],
                                 "error: jobs must be >= 1, got -3"),
}


@pytest.mark.parametrize("name", _BAD_INPUTS)
def test_bad_input_exits_2_or_3_with_one_error_line(tmp_path, capsys, name):
    run_cli(["gen", "chain", "--p", "4", "--rho", "0.3", "--out", str(tmp_path / "m.txt")])
    run_cli(["gen", "scenario", "--pre", str(tmp_path / "m.txt"), "--post",
             str(tmp_path / "m.txt"), "--t0", "5", "--burnin", "0", "--horizon", "10",
             "--out", str(tmp_path / "sc.json")])
    (tmp_path / "huge.ndjson").write_text('{"x":[1%s,0.1,0.1,0.1]}\n' % ("0" * 400))
    good = '{"x":[0.1,0.1,0.1,0.1]}\n'
    (tmp_path / "x_str.ndjson").write_text(good + '{"t":1,"x":"1.5"}\n')
    (tmp_path / "x_obj.ndjson").write_text(good + '{"x":{"a":1}}\n')
    for row_name, (row, _) in _BAD_ROWS.items():
        (tmp_path / f"{row_name}.ndjson").write_text(good + row + "\n")
    (tmp_path / "bad.cfg").write_text("w 5\n")
    (tmp_path / "short.txt").write_text("p 3\n1 0 0\n0 1 0\n")
    (tmp_path / "res").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code, args, *message = _BAD_INPUTS[name]
    assert run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in args]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if message:
        assert err == [line.replace("{tmp}", str(tmp_path)) for line in message]
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize("kind", [
    ["sparse", "--p", "8", "--density", "0.2"],
    ["hub", "--p", "10", "--hubs", "2", "--spokes", "2"],
])
def test_out_of_range_seed_names_the_flag(tmp_path, capsys, kind, seed):
    out = tmp_path / "x.txt"
    assert run_cli(["gen", *kind, "--seed", str(seed), "--out", str(out)]) == 2
    assert f"--seed {seed} is out of range" in capsys.readouterr().err
    assert run_cli(["gen", *kind, "--seed", str(2**128 - 1), "--out", str(out)]) == 0


@pytest.fixture()
def unfreeze():
    handler = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    yield
    gc.unfreeze()
    if handler is not None:
        signal.signal(signal.SIGPIPE, handler)


def test_only_the_program_freezes_its_heap(monkeypatch, capsys, unfreeze):
    # in-process calls leave the collector and SIGPIPE alone; run as the
    # program (argv None), main freezes the heap on every way out, argparse's
    # exit included, and takes SIGPIPE's default action
    frozen = gc.get_freeze_count()
    handler = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    assert run_cli(["threshold", "--pi0", "0.05", "--p", "10", "--w", "20"]) == 0
    assert gc.get_freeze_count() == frozen
    if handler is not None:
        assert signal.getsignal(signal.SIGPIPE) == handler
    monkeypatch.setattr(sys, "argv", ["ggmwatch", "threshold", "--pi0", "0.05", "--p", "10",
                                      "--w", "20"])
    assert main() == 0
    assert gc.get_freeze_count() > frozen
    if handler is not None:
        assert signal.getsignal(signal.SIGPIPE) == signal.SIG_DFL
    gc.unfreeze()
    monkeypatch.setattr(sys, "argv", ["ggmwatch", "--version"])
    with pytest.raises(SystemExit):
        main()
    assert gc.get_freeze_count() > 0
