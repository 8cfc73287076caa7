import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggmwatch as gw
import ggmwatch.detector as detector_module
from ggmwatch.cli import _parse_row, main
from ggmwatch.errors import Infeasible
from ggmwatch.iofmt import read_matrix

from conftest import strict_json, strict_ndjson


# ``python -m ggmwatch.cli`` subprocesses import the package from this checkout
SRC = str(Path(__file__).resolve().parent.parent / "src")
SRC_ENV = dict(os.environ)
SRC_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, SRC_ENV.get("PYTHONPATH")]))


def run_cli(args):
    return main(list(args))


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

    def test_invalid_pi0_exits_2(self, capsys):
        assert run_cli(["threshold", "--pi0", "0", "--p", "100", "--w", "50"]) == 2

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


# runs the CLI in a fresh interpreter and reports whether it imported the LP solver
_IMPORT_PROBE = """
import sys
from ggmwatch.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("scipy.optimize" in sys.modules)
"""


def _imports_lp_solver(args, cwd) -> bool:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *args], capture_output=True,
                          text=True, cwd=cwd, env=SRC_ENV, check=True, timeout=120)
    return proc.stdout.splitlines()[-1] == "True"


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

    @pytest.mark.parametrize("bad", ["row-2", 2.5, True], ids=repr)
    def test_non_integer_t_names_lineno(self, tmp_path, capsys, bad):
        code, objs, err = self._identity_monitor(tmp_path, capsys, [10, 11, bad, 13])
        assert code == 3
        assert "line 3" in err and '"t"' in err
        assert [o for o in objs if o.get("type") == "change_point"] == []

    def test_csv_tokens_parse_as_float(self):
        # one numpy conversion of the split line gives float()'s bits on edge tokens
        tokens = ["-0.0", "5e-324", "1e308", " 1", "1_000", "0.1", "1e-400",
                  "2.2250738585072014e-308", "-1.7976931348623157e+308",
                  "0.30000000000000004", "+7.", ".5e1 "]
        _, x = _parse_row(",".join(tokens), 1, ndjson=False)
        assert x.tobytes() == np.array([float(tok) for tok in tokens]).tobytes()

    @pytest.mark.parametrize("token", ["x", "", "1e", "0x10", "1 2", "--1"])
    def test_malformed_token_names_lineno(self, oracle_setup, capsys, token):
        tmp, pre, cfg = oracle_setup
        bad = self._bad_line_17(tmp, False, ["0.1"] * 4 + [token] + ["0.1"] * 5)
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        assert code == 3
        with pytest.raises(ValueError) as exc:
            float(token)
        err = capsys.readouterr().err
        assert "line 17" in err and str(exc.value) in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_row_exits_3_with_strict_json(self, oracle_setup, capsys):
        tmp, pre, cfg = oracle_setup
        rows = [["0.1"] * 10 for _ in range(35)]
        rows[31][3] = "1e200"  # finite, but its square overflows the window's Gram
        bad = tmp / "big.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        code = run_cli(["monitor", "--config", str(cfg), "--input", str(bad), "--trace"])
        captured = capsys.readouterr()
        assert code == 3
        assert "line 32" in captured.err
        objs = strict_ndjson(captured.out)
        assert objs[0]["type"] == "run_manifest"
        assert [o["t"] for o in objs[1:]] == [30, 31]
        assert all(o.get("type") != "change_point" for o in objs)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_burnin_row_exits_3_with_strict_json(self, tmp_path, capsys):
        rows = np.random.default_rng(4).standard_normal((20, 4)).astype(str)
        rows[4, 2] = "1e200"  # finite, but the burn-in covariance overflows
        bad = tmp_path / "big.csv"
        bad.write_text("".join(",".join(r) + "\n" for r in rows))
        code = run_cli(["monitor", "--p", "4", "--w", "4", "--n_burnin", "12",
                        "--input", str(bad), "--trace"])
        captured = capsys.readouterr()
        assert code == 3
        assert "line 12" in captured.err  # the fit at the end of the burn-in
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


class TestExperiment:
    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["experiment", "fa-calibration", "--preset", "nope", "--out", str(tmp_path / "x")]
        )
        assert code == 2

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
