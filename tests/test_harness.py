import math
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import ggmwatch.harness as hz
from ggmwatch import bindings, kernels
from ggmwatch.iofmt import json_line, write_result_csv, write_result_ndjson
from ggmwatch.modelgen import gen_chain_precision
from ggmwatch.statistic import scale_entries

from conftest import strict_ndjson


def _blas_threads(ctx, start, stop):
    """Chunk worker reporting the thread count of every OpenBLAS in its process."""
    return [get() for get, _ in bindings._openblas()]


def _config(kind, replicates, **params):
    return hz.ExperimentConfig(
        kind=kind, replicates=replicates, master_seed=hz.DEFAULT_MASTER_SEED, params=params
    )


FA_SMALL = _config("fa_calibration", 400, p=30, rho0=0.5, w=20, pi0=0.05)


class TestSeeding:
    def test_derive_key_deterministic(self):
        assert hz.derive_key(1, "a", 2) == hz.derive_key(1, "a", 2)

    def test_derive_key_distinct(self):
        keys = {hz.derive_key(1, "a", r) for r in range(100)}
        keys |= {hz.derive_key(2, "a", r) for r in range(100)}
        assert len(keys) == 200

    def test_key_fits_philox(self):
        assert 0 <= hz.derive_key(123, "x") < 1 << 128


class TestFaCalibration:
    def test_metrics_and_se_formula(self):
        res = hz.run_experiment(FA_SMALL)
        cell = res.cells[0]
        assert cell.n == 400
        for name in ("exceed_exact", "exceed_union", "quantile", "mean_sup"):
            assert name in cell.metrics
        r = cell.metrics["exceed_exact"].value
        assert 0.0 <= r <= 1.0
        assert cell.metrics["exceed_exact"].se == pytest.approx(
            math.sqrt(r * (1 - r) / 400), abs=1e-15
        )

    def test_near_one_pi0_floods(self):
        res = hz.run_experiment(_config("fa_calibration", 300, p=30, rho0=0.5, w=20, pi0=0.999))
        assert res.cells[0].metrics["exceed_exact"].value > 0.9

    def test_undefined_closed_forms_are_none(self):
        # at p=3 the asymptotic zeta^2 at pi0=0.95 is negative, and the union
        # form needs pi0 < 1/2: the run records both as None, as threshold's n/a
        res = hz.run_experiment(_config("fa_calibration", 20, p=3, rho0=0.3, w=10, pi0=0.95))
        assert res.provenance["zeta_asymptotic"] is None
        assert res.provenance["zeta_union"] is None
        assert sorted(res.cells[0].metrics) == ["exceed_exact", "mean_sup", "quantile"]

    def test_jobs_do_not_change_results(self, tmp_path):
        a = hz.run_experiment(FA_SMALL, jobs=1)
        b = hz.run_experiment(FA_SMALL, jobs=2)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_csv(a, pa)
        write_result_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        na, nb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_result_ndjson(a, na)
        write_result_ndjson(b, nb)
        assert na.read_bytes() == nb.read_bytes()


class TestPluginCalibration:
    def test_oracle_cell_matches_size(self):
        cfg = _config(
            "plugin_calibration",
            800,
            p=30,
            density=0.1,
            inflation=0.1,
            w=20,
            pi0=0.05,
            n_grid=[],
            fits=2,
        )
        res = hz.run_experiment(cfg)
        (cell,) = res.cells
        assert cell.cell["oracle"] == 1
        pn = cell.metrics["p_n"]
        assert abs(pn.value - 0.95) <= 4.0 * math.sqrt(0.05 * 0.95 / 800) + 0.02

    def test_grid_cells_and_error(self):
        cfg = _config(
            "plugin_calibration",
            200,
            p=20,
            density=0.15,
            inflation=0.1,
            w=15,
            pi0=0.05,
            n_grid=[100, 400],
            fits=2,
        )
        res = hz.run_experiment(cfg)
        # the grid's cells, then the true model's
        assert [c.cell["n_burnin"] for c in res.cells] == [100, 400, 0]
        e_small, e_large, e_oracle = (c.metrics["e_n"].value for c in res.cells)
        assert e_oracle == 0.0 < e_large < e_small
        for c in res.cells:
            assert 0.0 <= c.metrics["p_n"].value <= 1.0


class TestPowerCurve:
    CFG = dict(
        p=20,
        density=0.15,
        inflation=0.1,
        pi0=0.05,
        n_burnin=400,
        s_grid=[1, 2],
        beta_grid=[0.0, 5.0],
        w_grid=[100],
    )

    def test_pi1_decreases_with_beta(self):
        res = hz.run_experiment(_config("power_curve", 300, **self.CFG))
        by_cell = {(c.cell["s"], c.cell["beta"]): c.metrics["pi1"].value for c in res.cells}
        for s in (1, 2):
            assert by_cell[(s, 5.0)] <= by_cell[(s, 0.0)]

    def test_cell_order_invariance(self):
        base = hz.run_experiment(_config("power_curve", 200, **self.CFG))
        flipped_params = dict(self.CFG, s_grid=[2, 1], beta_grid=[5.0, 0.0])
        flipped = hz.run_experiment(_config("power_curve", 200, **flipped_params))
        a = {(c.cell["s"], c.cell["beta"]): c.metrics["pi1"].value for c in base.cells}
        b = {(c.cell["s"], c.cell["beta"]): c.metrics["pi1"].value for c in flipped.cells}
        assert a == b


class TestLcpdBlock:
    def test_power_rises_with_beta(self):
        cfg = _config(
            "lcpd_block",
            300,
            p=30,
            density=0.1,
            inflation=1.1,
            pi0=0.05,
            s_grid=[1],
            beta_fracs=[0.0, 0.9],
            w_grid=[30],
        )
        res = hz.run_experiment(cfg)
        pi1 = [c.metrics["pi1"].value for c in res.cells]
        assert pi1[1] < pi1[0]
        assert res.cells[1].cell["beta"] == pytest.approx(
            0.9 * res.provenance["lambda_min"]
        )


class TestDelayProfile:
    CFG = dict(
        p=20,
        density=0.15,
        inflation=0.1,
        n_burnin=500,
        t0=30,
        w=20,
        pi0=0.05,
        attenuation=0.8,
    )

    def test_structure(self):
        res = hz.run_experiment(_config("delay_profile", 150, **self.CFG))
        change, control = res.cells
        assert change.cell["scenario"] == "change"
        assert len(change.series["mean"]) == self.CFG["t0"] + 1
        assert change.series["t"][0] == -self.CFG["t0"]
        assert control.cell["scenario"] == "control"
        assert 0.0 <= control.metrics["window_exceed"].value <= 1.0

    def test_trajectory_rises(self):
        res = hz.run_experiment(_config("delay_profile", 150, **self.CFG))
        change = res.cells[0]
        assert change.metrics["traj_end"].value > change.metrics["traj_start"].value

    def test_w_exceeding_t0_rejected(self):
        bad = dict(self.CFG, w=40)
        with pytest.raises(Exception):
            hz.run_experiment(_config("delay_profile", 50, **bad))


class TestRunExperiment:
    def test_dispatch_and_provenance(self):
        res = hz.run_experiment(FA_SMALL)
        assert res.kind == "fa_calibration"
        assert res.provenance["master_seed"] == hz.DEFAULT_MASTER_SEED
        assert "zeta_exact" in res.provenance

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            hz.ExperimentConfig(kind="nope", replicates=10, master_seed=1, params={})

    def test_presets_registered(self):
        expected = {
            "fig1-desk",
            "fig2-desk",
            "table1-desk",
            "fig3-desk",
            "fig4-desk",
            "fig5-desk",
            "fig6-desk",
        }
        assert expected <= set(hz.PRESETS)
        for preset in hz.PRESETS.values():
            assert preset.kind in hz._RUNNERS

    def test_fig2_preset_scaled_down(self):
        import dataclasses

        cfg = dataclasses.replace(hz.PRESETS["fig2-desk"], replicates=300)
        res = hz.run_experiment(cfg)
        by_cell = {c.cell["n_burnin"]: c.metrics["p_n"].value for c in res.cells}
        # plug-in no-rejection rate at N=300 sits below the oracle's
        assert by_cell[300] < by_cell[0]
        assert abs(by_cell[0] - 0.95) < 0.06


class TestWriters:
    def test_ndjson_schema(self, tmp_path):
        res = hz.run_experiment(FA_SMALL)
        path = tmp_path / "out.ndjson"
        write_result_ndjson(res, path)
        head, cell = strict_ndjson(path.read_text())
        assert head["type"] == "provenance"
        assert cell["type"] == "cell"
        assert set(cell["metrics"]) == {"exceed_exact", "exceed_union", "quantile", "mean_sup"}

    def test_non_finite_metrics_are_null(self, tmp_path):
        # pi0=1e-9 and no change: no replicate crosses zeta, so the mean delay,
        # its se and the trajectory's crossing delay are NaN
        cfg = _config("delay_profile", 4, p=10, density=0.2, inflation=0.1, n_burnin=200,
                      t0=30, w=10, pi0=1e-9, attenuation=0.0)
        res = hz.run_experiment(cfg)
        assert math.isnan(res.cells[0].metrics["mean_delay"].value)
        write_result_ndjson(res, tmp_path / "out.ndjson")
        _, change, _ = strict_ndjson((tmp_path / "out.ndjson").read_text())
        assert change["metrics"]["mean_delay"] == {"value": None, "se": None}
        assert change["metrics"]["traj_cross_delay"] == {"value": None, "se": None}
        assert change["metrics"]["miss_rate"] == {"value": 1.0, "se": 0.0}
        write_result_csv(res, tmp_path / "out.csv")
        assert ",mean_delay,nan,nan,4" in (tmp_path / "out.csv").read_text()

    def test_json_line_is_strict_with_sorted_keys(self):
        assert json_line({"b": 1, "a": {"d": 2.5, "c": None}}) == \
            '{"a": {"c": null, "d": 2.5}, "b": 1}\n'
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                json_line({"x": [1.0, bad]})

    def test_csv_schema(self, tmp_path):
        res = hz.run_experiment(FA_SMALL)
        path = tmp_path / "out.csv"
        write_result_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,cell,params,metric,value,se,n"
        assert len(lines) == 1 + len(res.cells[0].metrics)


@contextmanager
def _blas_threads_at(n):
    """Set every OpenBLAS in this process to ``n`` threads for the block."""
    blas = bindings._openblas()
    before = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(n)
    try:
        yield
    finally:
        for (_, set_threads), k in zip(blas, before):
            set_threads(k)


class TestSingleThreadedBlas:
    @staticmethod
    def _record_blas(monkeypatch) -> list:
        """Make every ``_map_cells`` call first record the BLAS thread counts of
        the calling process and of two chunk tasks, then do its real work; two
        tasks, because one runs in this process at any ``jobs``."""
        seen = []
        map_cells = hz._map_cells

        def recording(worker, ctxs, n, jobs):
            chunk, other = (a.tolist() for a in map_cells(_blas_threads, [{}, {}], 1, jobs=jobs))
            assert other == chunk
            seen.append((_blas_threads(None, 0, 1), chunk))
            return map_cells(worker, ctxs, n, jobs)

        monkeypatch.setattr(hz, "_map_cells", recording)
        return seen

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunks_run_single_threaded_blas(self, monkeypatch, jobs):
        """``run_experiment`` pins the runner's own work and every chunk, in
        process or in a pool worker, to one BLAS thread where its caller runs
        two, for every kind, and restores the caller's counts afterwards."""
        seen = self._record_blas(monkeypatch)
        configs = dict(TestJobsByteIdentity.CONFIGS, fa_calibration=FA_SMALL.params)
        for kind in sorted(hz._RUNNERS):
            with _blas_threads_at(2):
                before = _blas_threads(None, 0, 1)
                hz.run_experiment(_config(kind, 20, **configs[kind]), jobs=jobs)
                assert _blas_threads(None, 0, 1) == before
            assert seen, kind
            for parent, chunk in seen:
                assert parent and chunk  # numpy and scipy each load an OpenBLAS
                assert set(parent) == set(chunk) == {1}, kind
            seen.clear()


class TestJobsByteIdentity:
    """``--jobs 2`` writes the same bytes as ``--jobs 1`` for the multi-cell
    kinds (``fa_calibration`` is checked above) through one process pool; 260
    replicates give every cell a full and a partial chunk."""

    SPARSE = dict(p=12, density=0.2, inflation=0.1, pi0=0.05)
    CONFIGS = {
        "plugin_calibration": dict(SPARSE, w=10, n_grid=[60, 120], fits=2),
        "power_curve": dict(
            SPARSE, n_burnin=150, s_grid=[1, 2], beta_grid=[0.0, 4.0], w_grid=[10, 20]
        ),
        "lcpd_block": dict(
            SPARSE, s_grid=[1, 3], beta_fracs=[0.0, 0.5], w_grid=[10, 20]
        ),
        "delay_profile": dict(
            SPARSE, n_burnin=150, t0=20, w=10, attenuation=0.8
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch, kind):
        pools = []

        class CountingPool(hz.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hz, "ProcessPoolExecutor", CountingPool)
        config = _config(kind, 260, **self.CONFIGS[kind])
        outputs = []
        for jobs in (1, 2):
            res = hz.run_experiment(config, jobs=jobs)
            write_result_csv(res, tmp_path / f"{jobs}.csv")
            write_result_ndjson(res, tmp_path / f"{jobs}.ndjson")
            outputs.append(
                [(tmp_path / f"{jobs}.{ext}").read_bytes() for ext in ("csv", "ndjson")]
            )
        assert len(res.cells) >= 2
        assert all(c.n == 260 for c in res.cells)
        assert len(pools) == 1
        assert outputs[0] == outputs[1]


class TestSharedDraws:
    """``_group_chunk`` draws each replicate once for all the cells of its
    stream group, and scores each cell bitwise as if it drew alone."""

    SPARSE = dict(p=12, density=0.2, inflation=0.1, pi0=0.05)
    CONFIGS = {
        "fa_calibration": dict(p=12, rho0=0.5, w=20, pi0=0.05),
        "power_curve": dict(
            SPARSE, n_burnin=150, s_grid=[1, 2], beta_grid=[0.0, 4.0], w_grid=[16, 24, 40]
        ),
        "plugin_calibration": dict(SPARSE, w=20, n_grid=[60, 120], fits=3),
        "lcpd_block": dict(SPARSE, s_grid=[1, 3], beta_fracs=[0.0, 0.5], w_grid=[16, 24, 40]),
    }

    @staticmethod
    def _recompute(group: dict, n: int) -> np.ndarray:
        """Each cell on its own, in factor order: replicate ``r`` draws ``(w, p)``
        rows from ``(*key, r)``, transforms them and scores them with fit
        ``r % len(fits)``."""
        cells = [(chol, w, fits) for chol, fcells in group["factors"] for w, fits in fcells]
        out = np.empty((n, len(cells)))
        for c, (chol, w, fits) in enumerate(cells):
            for r in range(n):
                rng = hz._generator(group["master_seed"], *group["key"], r)
                x = rng.standard_normal((w, chol.shape[0])) @ chol.T
                omega, psi = fits[r % len(fits)]
                out[r, c] = kernels.window_supnorms(x[None], omega, psi)[0]
        return out

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_bitwise_per_cell_recompute(self, monkeypatch, kind):
        # chunks of 40 replicates start off the fit cycle and split into four
        # runs of 10
        monkeypatch.setattr(hz, "_CHUNK", 40)
        calls, spans = [], {}
        map_cells, group_chunk = hz._map_cells, hz._group_chunk

        def recording(worker, ctxs, n, jobs):
            results = map_cells(worker, ctxs, n, jobs)
            calls.append((worker, ctxs, n, results))
            return results

        def chunk_recording(group, start, stop):
            out = group_chunk(group, start, stop)
            spans.setdefault(id(group), []).append(len(out))
            return out

        monkeypatch.setattr(hz, "_map_cells", recording)
        monkeypatch.setattr(hz, "_group_chunk", chunk_recording)
        res = hz.run_experiment(_config(kind, 90, **self.CONFIGS[kind]))
        ((worker, groups, n, results),) = calls
        assert worker is chunk_recording
        n_cells = sum(len(fcells) for g in groups for _, fcells in g["factors"])
        assert n_cells == len(res.cells) >= (1 if kind == "fa_calibration" else 3)
        with bindings._one_blas_thread():
            for group, shared in zip(groups, results):
                assert spans[id(group)] == [40, 40, 10]
                assert shared.tobytes() == self._recompute(group, n).tobytes()

    @pytest.mark.parametrize(
        "kind, empty",
        [pytest.param("power_curve", dict(w_grid=[]), id="power_curve-empty1"),
         pytest.param("power_curve", dict(beta_grid=[]), id="power_curve-empty2")],
    )
    def test_empty_grid_gives_no_cells(self, kind, empty):
        res = hz.run_experiment(_config(kind, 20, **dict(self.CONFIGS[kind], **empty)))
        assert res.cells == []

    def test_task_memory_is_bounded(self):
        """One 250-replicate task at w=300, p=100 holds ``_SUB`` replicates'
        rows at a time, not the whole chunk's (a full-chunk draw peaks at
        about 180 MB)."""
        omega = gen_chain_precision(100, 0.5)
        group = {
            "master_seed": 1,
            "key": ("fa",),
            "factors": [
                (hz._cov_factor(omega), [(300, [(omega.entries, scale_entries(omega.entries))])])
            ],
        }
        tracemalloc.start()
        try:
            with bindings._one_blas_thread():
                out = hz._group_chunk(group, 0, 250)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (250, 1)
        assert peak < 25e6


class TestDrawAhead:
    """``_group_chunk`` draws its next run of replicates on one helper thread
    while it scores the current run: no byte depends on the run size, and
    the helper never outlives the call, whether it returns or raises."""

    @staticmethod
    def _group(kind: str) -> dict:
        """A p=12 stream group with two factors of two cells each, or one
        factor with two cells of two and three fits."""
        pre, post = gen_chain_precision(12, 0.5), gen_chain_precision(12, 0.2)
        fits = [(o.entries, scale_entries(o.entries)) for o in (pre, post, pre)]
        if kind == "factors":
            factors = [(hz._cov_factor(o), [(16, fits[:1]), (24, fits[1:2])]) for o in (pre, post)]
        else:
            factors = [(hz._cov_factor(pre), [(16, fits[:2]), (24, fits)])]
        return {"master_seed": 7, "key": ("draw-ahead",), "factors": factors}

    @staticmethod
    def _chunk(group: dict, start: int = 13, stop: int = 53) -> np.ndarray:
        """One chunk of 40 replicates that starts off the fit cycle, run on one
        BLAS thread with the thread count checked before and after."""
        before = threading.active_count()
        try:
            with bindings._one_blas_thread():
                return hz._group_chunk(group, start, stop)
        finally:
            assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["factors", "fits"])
    def test_bytes_do_not_depend_on_run_size(self, monkeypatch, kind):
        group = self._group(kind)
        outs = []
        for sub in (1, 7, hz._SUB):
            monkeypatch.setattr(hz, "_SUB", sub)
            outs.append(self._chunk(group).tobytes())
        assert outs[0] == outs[1] == outs[2]

    def test_draws_run_on_one_helper_thread(self, monkeypatch):
        threads = set()
        generator = hz._generator

        def recording(*args):
            threads.add(threading.get_ident())
            return generator(*args)

        monkeypatch.setattr(hz, "_generator", recording)
        self._chunk(self._group("fits"))
        assert len(threads) == 1
        assert threading.get_ident() not in threads

    def test_draw_error_escapes_and_joins(self, monkeypatch):
        error = RuntimeError("draw failed")
        generator = hz._generator

        def failing(*args):
            if args[-1] == 13 + hz._SUB + 3:  # a replicate of the second run
                raise error
            return generator(*args)

        monkeypatch.setattr(hz, "_generator", failing)
        with pytest.raises(RuntimeError) as exc:
            self._chunk(self._group("fits"))
        assert exc.value is error

    def test_kernel_error_escapes_and_joins(self, monkeypatch):
        error = RuntimeError("kernel failed")
        calls = []
        window_supnorms = kernels.window_supnorms

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:  # the first run's last cell, with the next run drawing
                raise error
            return window_supnorms(*args)

        monkeypatch.setattr(kernels, "window_supnorms", failing)
        with pytest.raises(RuntimeError) as exc:
            self._chunk(self._group("fits"))
        assert exc.value is error


class TestPoolSize:
    def test_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class RecordingPool(hz.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                # two tasks need no more than two processes, whatever was asked
                super().__init__(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(hz, "ProcessPoolExecutor", RecordingPool)
        assert math.ceil(FA_SMALL.replicates / hz._CHUNK) == 2  # one group, two tasks
        hz.run_experiment(FA_SMALL, jobs=8)
        assert sizes == [2]

    def test_one_task_runs_in_process(self, monkeypatch):
        pools = []

        class CountingPool(hz.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hz, "ProcessPoolExecutor", CountingPool)
        config = _config("fa_calibration", hz._CHUNK, **FA_SMALL.params)  # one group, one task
        assert hz.run_experiment(config, jobs=2) == hz.run_experiment(config, jobs=1)
        assert pools == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        def fail(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(hz, "_map_cells", fail)
        with pytest.raises(hz.InvalidConfig, match=f"jobs must be >= 1, got {jobs}"):
            hz.run_experiment(FA_SMALL, jobs=jobs)
