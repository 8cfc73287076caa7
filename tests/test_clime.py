import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.random import Generator, Philox
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import ggmwatch as gw
import ggmwatch.bindings as bindings
import ggmwatch.clime as clime_module
from ggmwatch.errors import (
    DimensionMismatch,
    GgmWatchError,
    Infeasible,
    NonFiniteSample,
    SolverStall,
)

from conftest import SRC_ENV
from lp_bruteforce import clime_column_bruteforce


class TestSampleCovariance:
    def test_single_sample(self):
        x = np.array([[1.0, 2.0, -1.0]])
        assert_allclose(gw.sample_covariance(x), np.outer(x[0], x[0]))

    def test_repeated_basis_vector(self):
        xs = np.tile(np.array([1.0, 0.0, 0.0]), (7, 1))
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        assert_allclose(gw.sample_covariance(xs), expect)

    def test_monte_carlo_consistency(self, chain5, chain5_cov):
        chol = gw.cholesky_factor(chain5_cov)
        xs = Generator(Philox(key=31)).standard_normal((100_000, 5)) @ chol.T
        assert np.abs(gw.sample_covariance(xs) - chain5_cov).max() < 0.02

    def test_centering_flag(self, rng):
        xs = rng.standard_normal((50, 3)) + 5.0
        uncentered = gw.sample_covariance(xs)
        centered = gw.sample_covariance(xs, center=True)
        assert uncentered[0, 0] > 20.0
        assert centered[0, 0] < 5.0

    def test_psd(self, rng):
        s = gw.sample_covariance(rng.standard_normal((4, 6)))
        assert np.linalg.eigvalsh(s)[0] >= -1e-12

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match=r"nonempty \(N, p\) sample array, got shape \(0, 3\)"):
            gw.sample_covariance(np.empty((0, 3)))


class TestClimeColumn:
    def test_identity_lambda_zero(self):
        beta = gw.clime_column(np.eye(4), 0, 0.0)
        assert_allclose(beta, [1.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_soft_threshold(self):
        beta = gw.clime_column(np.eye(3), 0, 0.3)
        assert_allclose(beta, [0.7, 0.0, 0.0], atol=1e-9)
        obj, oracle = clime_column_bruteforce(np.eye(3), 0, 0.3)
        assert abs(np.abs(beta).sum() - obj) <= 1e-8

    def test_diagonal(self):
        beta = gw.clime_column(np.diag([2.0, 4.0]), 1, 0.0)
        assert_allclose(beta, [0.0, 0.25], atol=1e-9)

    def test_column_index_out_of_range_rejected(self):
        with pytest.raises(IndexError, match="column index 3 out of range for p=3"):
            gw.clime_column(np.eye(3), 3, 0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            gw.clime_column(np.eye(3), 0, -0.1)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_bruteforce(self, p):
        rng = Generator(Philox(key=1000 + p))
        for trial in range(4):
            a = rng.standard_normal((p + 2, p))
            s = a.T @ a / (p + 2)
            for lam in (0.0, 0.05, 0.2):
                beta = gw.clime_column(s, trial % p, lam)
                obj, _ = clime_column_bruteforce(s, trial % p, lam)
                assert abs(np.abs(beta).sum() - obj) <= 1e-8

    def test_feasibility(self, rng):
        a = rng.standard_normal((10, 6))
        s = a.T @ a / 10
        for j in range(6):
            beta = gw.clime_column(s, j, 0.1)
            e = np.zeros(6)
            e[j] = 1.0
            assert np.abs(s @ beta - e).max() <= 0.1 + 1e-6

    def test_l1_monotone_in_lambda(self, rng):
        a = rng.standard_normal((12, 5))
        s = a.T @ a / 12
        norms = [np.abs(gw.clime_column(s, 2, lam)).sum() for lam in (0.0, 0.1, 0.2, 0.4)]
        assert all(x >= y - 1e-9 for x, y in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p", [20, 40])
    @pytest.mark.parametrize("lam", [0.02, 0.1])
    def test_matches_inequality_form(self, p, lam):
        # the textbook split: 2p inequality rows over 2p nonnegative variables
        rng = Generator(Philox(key=2000 + p))
        a = rng.standard_normal((2 * p, p))
        s = a.T @ a / (2 * p)
        e = np.zeros(p)
        for j in (0, p // 2, p - 1):
            e[:] = 0.0
            e[j] = 1.0
            beta = gw.clime_column(s, j, lam)
            ref = linprog(
                np.ones(2 * p), A_ub=np.block([[s, -s], [-s, s]]),
                b_ub=np.concatenate([lam + e, lam - e]), bounds=(0, None), method="highs",
            )
            assert ref.status == 0
            ref_beta = ref.x[:p] - ref.x[p:]
            assert abs(np.abs(beta).sum() - ref.fun) <= 1e-9 * ref.fun
            for b in (beta, ref_beta):
                assert np.abs(s @ b - e).max() <= lam + 1e-9

    @pytest.mark.parametrize("scale", [1.0, 0.9])
    def test_duality_certificate(self, monkeypatch, scale):
        # the certificate reads the row duals of the ranged rows: the solver's
        # own solution passes, and one with its row duals scaled by 0.9 is a
        # stall
        rng = Generator(Philox(key=7))
        a = rng.standard_normal((30, 10))
        s = a.T @ a / 30
        bound_terms = []
        solve = clime_module._ColumnLPs.solve

        def scaled_solve(self, j):
            status, fun, x, row_dual = solve(self, j)
            bound_terms.append(np.abs(row_dual).sum())
            return status, fun, x, scale * row_dual

        monkeypatch.setattr(clime_module._ColumnLPs, "solve", scaled_solve)
        if scale == 1.0:
            gw.clime_column(s, 3, 0.1)
            assert bound_terms[0] > 1.0  # the lambda |y|_1 term carries the dual
        else:
            with pytest.raises(SolverStall):
                gw.clime_column(s, 3, 0.1)

    def test_infeasible_singular(self):
        s = np.zeros((3, 3))
        s[0, 0] = 1.0  # rank one: column 1 cannot be matched at lambda=0
        with pytest.raises(Infeasible):
            gw.clime_column(s, 1, 0.0)


class TestClimeEstimate:
    def test_identity_covariance(self):
        xs = 2.0 * np.eye(4)  # X'X/N = I exactly
        est = gw.clime_estimate(xs, gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.0))
        assert_allclose(est.omega_hat, np.eye(4), atol=1e-8)
        assert est.lambda_used == 0.0

    def test_chain_recovery(self):
        om = gw.gen_chain_precision(10, 0.5)
        chol = gw.cholesky_factor(gw.invert_spd(om.entries))
        xs = Generator(Philox(key=11)).standard_normal((2000, 10)) @ chol.T
        est = gw.clime_estimate(xs, gw.ClimeConfig())
        assert np.abs(est.omega_hat - om.entries).max() < 0.25
        strong = np.abs(om.entries) == 0.5
        assert np.all(np.sign(est.omega_hat[strong]) == np.sign(om.entries[strong]))

    def test_mechanism_one_p80(self):
        # fixed-seed spot check of the N=300 normalized error band
        om = gw.gen_random_sparse(80, 0.06, 0.1, seed=4200)
        chol = gw.cholesky_factor(gw.invert_spd(om.entries))
        xs = Generator(Philox(key=21)).standard_normal((300, 80)) @ chol.T
        est = gw.clime_estimate(xs, gw.ClimeConfig())
        err = gw.normalized_error(est.omega_hat, om)
        assert 0.2 <= err <= 0.45
        assert est.feasibility_gap <= gw.ClimeConfig().lp_tolerance
        assert np.linalg.eigvalsh(est.omega_hat)[0] >= -1e-10

    def test_exactly_symmetric(self, rng):
        xs = rng.standard_normal((60, 8))
        est = gw.clime_estimate(xs, gw.ClimeConfig(psd_project=False))
        assert np.array_equal(est.omega_hat, est.omega_hat.T)

    def test_smaller_magnitude_symmetrization(self, rng):
        xs = rng.standard_normal((40, 6))
        cfg = gw.ClimeConfig(psd_project=False)
        est = gw.clime_estimate(xs, cfg)
        s = gw.sample_covariance(xs)
        lam = cfg.resolve_lambda(6, 40)
        cols = np.column_stack([gw.clime_column(s, j, lam) for j in range(6)])
        for i in range(6):
            for j in range(6):
                a, b = cols[i, j], cols[j, i]
                pick = a if abs(a) <= abs(b) else b
                assert est.omega_hat[i, j] == pytest.approx(pick, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            gw.clime_estimate(np.ones((1, 3)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_covariance_rejected(self):
        xs = np.random.default_rng(3).standard_normal((12, 4))
        xs[4, 1] = 1e200  # finite, but its square is not
        with pytest.raises(NonFiniteSample):
            gw.clime_estimate(xs)


def _equality_oracle(s, j, lam):
    """The column program in equality form, solved cold by ``linprog``."""
    p = s.shape[0]
    e = np.zeros(p)
    e[j] = 1.0
    bounds = [(0.0, None)] * (2 * p) + [(-lam, lam)] * p
    res = linprog(
        np.concatenate((np.ones(2 * p), np.zeros(p))), A_eq=np.hstack((s, -s, -np.eye(p))),
        b_eq=e, bounds=bounds, method="highs",
    )
    assert res.status == 0
    return res.fun


def _record_columns(monkeypatch):
    """Record every (S, j, lambda, beta) that clime_estimate asks for."""
    calls = []
    column = clime_module.clime_column

    def recorded(s_hat, j, lam, lp_tolerance=1e-6):
        beta = column(s_hat, j, lam, lp_tolerance)
        calls.append((s_hat, j, lam, beta))
        return beta

    monkeypatch.setattr(clime_module, "clime_column", recorded)
    return calls


def _track_fit(monkeypatch):
    """Record a weak reference to every HiGHS model built and every thread
    started from now on."""
    models, threads = [], []
    init, start = clime_module._ColumnLPs.__init__, threading.Thread.start

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(weakref.ref(self))

    def tracked_start(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(clime_module._ColumnLPs, "__init__", tracked_init)
    monkeypatch.setattr(threading.Thread, "start", tracked_start)
    return models, threads


def _assert_nothing_outlives(models, threads, before):
    """No worker thread runs and no model is held once a fit has ended."""
    assert threading.enumerate() == before
    assert not any(t.is_alive() for t in threads)
    assert getattr(clime_module._local, "fit", None) is None
    gc.collect()
    assert models and all(ref() is None for ref in models)


_FITS = [(200, 12, 0.05), (40, 20, 0.1), (60, 15, 0.0), (6, 10, 0.5)]  # last: N < p, rank 6


class TestWarmStartedFit:
    """One HiGHS model per thread, through scipy's private binding: a scipy
    upgrade that moves or changes it fails here. Every column starts from a
    cleared solver, so its bits are a function of (S, lambda, j) alone."""

    def test_binding_importable(self):
        from scipy.optimize._highspy._core import _Highs

        assert callable(_Highs)

    @pytest.mark.parametrize("n, p, lam", _FITS)
    def test_matches_equality_oracle(self, monkeypatch, n, p, lam):
        xs = Generator(Philox(key=300 + n + p)).standard_normal((n, p))
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=lam)
        calls = _record_columns(monkeypatch)
        gw.clime_estimate(xs, cfg)
        s = calls[0][0]
        assert sorted(c[1] for c in calls) == list(range(p))  # each column solved once
        if n < p:
            assert np.linalg.matrix_rank(s) == n
        for _, j, _, beta in calls:
            ref = _equality_oracle(s, j, lam)
            assert abs(np.abs(beta).sum() - ref) <= 1e-9 * ref
            e = np.zeros(p)
            e[j] = 1.0
            assert np.abs(s @ beta - e).max() <= lam + cfg.lp_tolerance

    @pytest.mark.parametrize("n, p, lam", _FITS)
    def test_columns_independent_of_order(self, monkeypatch, n, p, lam):
        # a column is a function of (S, lambda, j) alone: the fit's solves,
        # reverse solves on one model and one-shot solves agree bitwise
        xs = Generator(Philox(key=300 + n + p)).standard_normal((n, p))
        calls = _record_columns(monkeypatch)
        gw.clime_estimate(xs, gw.ClimeConfig(lambda_rule="fixed", lambda_level=lam))
        s = calls[0][0]
        fitted = {c[1]: c[3] for c in calls}
        monkeypatch.setattr(clime_module._local, "fit", clime_module._ColumnLPs(s, lam),
                            raising=False)
        reverse = {j: gw.clime_column(s, j, lam) for j in reversed(range(p))}
        monkeypatch.setattr(clime_module._local, "fit", None)
        for j in range(p):
            assert np.array_equal(fitted[j], reverse[j])
            assert np.array_equal(fitted[j], gw.clime_column(s.copy(), j, lam))

    def test_column_after_others_matches_one_shot(self):
        # without a cleared solver, column 24 of this fit took 31 simplex
        # iterations, not 30, after column 5 on the same model, and moved by
        # 4.3e-15; a solve on a model of its own took 30
        p = 50
        xs = Generator(Philox(key=p)).standard_normal((2 * p, p))
        s = gw.sample_covariance(xs)
        lam = gw.ClimeConfig().resolve_lambda(p, 2 * p)
        one_shot = gw.clime_column(s, 24, lam)
        for history in ([5], range(0, 24, 2), range(12, 24)):
            model = clime_module._ColumnLPs(s, lam)
            for j in history:
                model.solve(j)
            assert np.array_equal(model.solve(24)[2], clime_module._ColumnLPs(s, lam).solve(24)[2])
            assert np.array_equal(gw.sample_covariance(xs), s)
        assert np.array_equal(one_shot, gw.clime_column(s.copy(), 24, lam))

    @pytest.mark.parametrize("n, p, lam", _FITS + [(100, 50, 0.05)])
    def test_bits_independent_of_thread_count(self, monkeypatch, n, p, lam):
        xs = Generator(Philox(key=300 + n + p)).standard_normal((n, p))
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=lam)
        fits = []
        for count in (1, 2, 3, p):
            monkeypatch.setattr(clime_module, "_n_threads", lambda p, count=count: count)
            fits.append(gw.clime_estimate(xs, cfg))
        for fit in fits[1:]:
            assert np.array_equal(fit.omega_hat, fits[0].omega_hat)
            assert fit.feasibility_gap == fits[0].feasibility_gap

    def test_concurrent_fits_under_fast_switching(self, monkeypatch):
        # more threads than cores, switching every microsecond, and three fits
        # at once from three caller threads: every column is solved once, on
        # its own fit's models, and every estimate has the one-thread bits
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.1)
        samples = [Generator(Philox(key=500 + k)).standard_normal((60, 24)) for k in range(3)]
        monkeypatch.setattr(clime_module, "_n_threads", lambda p: 1)
        serial = [gw.clime_estimate(xs, cfg).omega_hat for xs in samples]
        monkeypatch.setattr(clime_module, "_n_threads", lambda p: 7)
        calls = _record_columns(monkeypatch)
        results = [None] * 3

        def fit(k):
            results[k] = gw.clime_estimate(samples[k], cfg).omega_hat

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=fit, args=(k,)) for k in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for k in range(3):
            assert np.array_equal(results[k], serial[k])
        columns = {}  # one S per fit
        for s_hat, j, _, _ in calls:
            columns.setdefault(id(s_hat), []).append(j)
        assert len(columns) == 3
        assert all(sorted(js) == list(range(24)) for js in columns.values())

    def test_thread_count_follows_affinity(self):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert clime_module._n_threads(1000) == cores
        assert clime_module._n_threads(1) == 1

    def test_rank_one_infeasible_partway(self, monkeypatch):
        xs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])  # S = diag(1, 0, 0)
        with pytest.raises(Infeasible) as serial:  # what the serial loop raised: column 1's error
            gw.clime_column(np.diag([1.0, 0.0, 0.0]), 1, 0.0)
        assert str(serial.value) == "column 1 infeasible at lambda=0.0"
        for n_threads in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(clime_module, "_n_threads", lambda p: n_threads)
                calls = _record_columns(patch)
                models, threads = _track_fit(patch)
                before = threading.enumerate()
                with pytest.raises(Infeasible) as raised:
                    gw.clime_estimate(xs, gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.0))
            assert type(raised.value) is Infeasible
            assert str(raised.value) == str(serial.value)
            solved = {c[1]: c[3] for c in calls}
            assert set(solved) == {0}  # columns 1 and 2 raised, or 2 was never begun
            assert_allclose(solved[0], [1.0, 0.0, 0.0], atol=1e-9)
            assert len(threads) == n_threads - 1
            del raised
            _assert_nothing_outlives(models, threads, before)

    def test_failure_in_another_threads_share_raises(self, monkeypatch):
        # S = diag(1/3, 1/3, 1/3, 0): only column 3 fails, and with two threads
        # it is the worker's, while this thread solves columns 0 and 2
        xs = np.vstack((np.eye(4)[:3], -np.eye(4)[:3]))
        monkeypatch.setattr(clime_module, "_n_threads", lambda p: 2)
        column, solvers = clime_module.clime_column, {}

        def recorded(s_hat, j, lam, lp_tolerance=1e-6):
            solvers[j] = threading.get_ident()
            return column(s_hat, j, lam, lp_tolerance)

        monkeypatch.setattr(clime_module, "clime_column", recorded)
        with pytest.raises(Infeasible) as raised:
            gw.clime_estimate(xs, gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.0))
        assert type(raised.value) is Infeasible
        assert str(raised.value) == "column 3 infeasible at lambda=0.0"
        assert solvers[0] == solvers[2] == threading.get_ident() != solvers[3] == solvers[1]

    def test_model_scoped_to_one_fit(self, monkeypatch):
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.1, psd_project=False)
        rng = Generator(Philox(key=41))
        monkeypatch.setattr(clime_module, "_n_threads", lambda p: 3)
        models, threads = _track_fit(monkeypatch)
        before = threading.enumerate()
        gw.clime_estimate(rng.standard_normal((50, 8)), cfg)
        assert len(models) == 3 and len(threads) == 2
        _assert_nothing_outlives(models, threads, before)
        # same lambda, another S: every column equals its own one-shot solve
        calls = _record_columns(monkeypatch)
        gw.clime_estimate(rng.standard_normal((50, 8)), cfg)
        _assert_nothing_outlives(models, threads, before)
        for s, j, lam, beta in calls:
            assert np.array_equal(beta, gw.clime_column(s.copy(), j, lam))

    def test_missing_binding_fails_the_fit_in_this_thread(self, monkeypatch):
        load = bindings.scipy_extension

        def without_highs(name):
            if name == "optimize._highspy._core":
                raise ImportError("no extension module scipy.optimize._highspy._core")
            return load(name)

        monkeypatch.setattr(bindings, "scipy_extension", without_highs)
        models, threads = _track_fit(monkeypatch)
        with pytest.raises(GgmWatchError) as raised:
            gw.clime_estimate(np.random.default_rng(5).standard_normal((30, 6)))
        assert type(raised.value) is GgmWatchError
        assert f"scipy {scipy.__version__}" in str(raised.value)
        assert "HiGHS" in str(raised.value)
        assert threads == [] and models == []


_FIRST_FIT = """
import sys, threading
import numpy as np
import ggmwatch.bindings as bindings
import ggmwatch.clime as clime
load, loads = bindings.scipy_extension, []

def recorded(name):
    if "scipy." + name not in sys.modules:
        loads.append((name, threading.current_thread() is threading.main_thread()))
    return load(name)

bindings.scipy_extension = recorded
clime._n_threads = lambda p: 3
clime.clime_estimate(np.random.default_rng(2).standard_normal((40, 9)))
print(loads)
"""


def test_first_fit_loads_the_binding_once_from_the_calling_thread():
    proc = subprocess.run([sys.executable, "-c", _FIRST_FIT], capture_output=True, text=True,
                          env=SRC_ENV, check=True, timeout=120)
    assert proc.stdout.split("\n")[0] == "[('optimize._highspy._core', True)]"


class TestPsdProject:
    def test_clips_negative_eigenvalues(self):
        m = np.diag([2.0, -1.0, 0.5])
        out = gw.psd_project(m)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        assert_allclose(out, np.diag([2.0, 0.0, 0.5]), atol=1e-12)

    def test_idempotent(self, rng):
        a = rng.standard_normal((7, 7))
        m = a + a.T
        once = gw.psd_project(m)
        twice = gw.psd_project(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_psd_input_unchanged(self, chain5):
        assert np.abs(gw.psd_project(chain5.entries) - chain5.entries).max() <= 1e-12


class TestNormalizedError:
    def test_zero(self, chain5):
        assert gw.normalized_error(chain5.entries, chain5) == 0.0

    def test_double(self, chain5):
        assert gw.normalized_error(2.0 * chain5.entries, chain5) == pytest.approx(1.0)

    def test_dimension_mismatch(self, chain5):
        with pytest.raises(DimensionMismatch):
            gw.normalized_error(np.eye(3), chain5)


class TestClimeConfig:
    def test_lambda_rules(self):
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.3)
        assert cfg.resolve_lambda(100, 400) == 0.3
        cfg = gw.ClimeConfig(lambda_rule="scaled", lambda_level=0.5)
        assert cfg.resolve_lambda(100, 400) == pytest.approx(0.5 * np.sqrt(np.log(100) / 400))

    def test_validation(self):
        with pytest.raises(ValueError):
            gw.ClimeConfig(lambda_rule="magic")
        with pytest.raises(ValueError):
            gw.ClimeConfig(lp_tolerance=1.0)

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_lambda_level_finite_and_nonnegative(self, level):
        with pytest.raises(ValueError, match="lambda_level"):
            gw.ClimeConfig(lambda_level=level)


def test_traced_run_does_not_load_the_lp_solver():
    """Installing the benchmark's tracer wraps ``clime.linprog`` without
    importing ``scipy.optimize``: only a CLIME fit loads it."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
        "tracer.install(tracer.Tracer()); import ggmwatch.clime as c; "
        "print(c.linprog is not None, 'scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(root / "perfbench")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", "False"]
