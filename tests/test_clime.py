import numpy as np
import pytest
from numpy.random import Generator, Philox
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import ggmwatch as gw
import ggmwatch.clime as clime_module
from ggmwatch.errors import DimensionMismatch, Infeasible, NonFiniteSample, SolverStall

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
        # the certificate reads the row duals and the reduced costs of r: the
        # solver's own solution passes, and one with its row duals scaled by
        # 0.9 is a stall
        rng = Generator(Philox(key=7))
        a = rng.standard_normal((30, 10))
        s = a.T @ a / 30
        bound_terms = []
        solve = clime_module._ColumnLPs.solve

        def scaled_solve(self, j):
            status, fun, x, row_dual, col_dual = solve(self, j)
            bound_terms.append(np.abs(col_dual[20:30]).sum())  # the columns of r at p=10
            return status, fun, x, scale * row_dual, col_dual

        monkeypatch.setattr(clime_module._ColumnLPs, "solve", scaled_solve)
        if scale == 1.0:
            gw.clime_column(s, 3, 0.1)
            assert bound_terms[0] > 1.0  # the reduced costs of r carry the dual
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


class TestWarmStartedFit:
    """One HiGHS model per fit, through scipy's private binding: a scipy
    upgrade that moves or changes it fails here."""

    def test_binding_importable(self):
        from scipy.optimize._highspy._core import _Highs

        assert callable(_Highs)

    @pytest.mark.parametrize(
        "n, p, lam",
        [(200, 12, 0.05), (40, 20, 0.1), (60, 15, 0.0), (6, 10, 0.5)],  # last: N < p, rank 6
    )
    def test_matches_equality_oracle(self, monkeypatch, n, p, lam):
        xs = Generator(Philox(key=300 + n + p)).standard_normal((n, p))
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=lam)
        calls = _record_columns(monkeypatch)
        gw.clime_estimate(xs, cfg)
        s = calls[0][0]
        assert [c[1] for c in calls] == list(range(p))
        if n < p:
            assert np.linalg.matrix_rank(s) == n
        for _, j, _, beta in calls:
            ref = _equality_oracle(s, j, lam)
            assert abs(np.abs(beta).sum() - ref) <= 1e-9 * ref
            e = np.zeros(p)
            e[j] = 1.0
            assert np.abs(s @ beta - e).max() <= lam + cfg.lp_tolerance

    def test_rank_one_infeasible_partway(self, monkeypatch):
        xs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])  # S = diag(1, 0, 0)
        calls = _record_columns(monkeypatch)
        with pytest.raises(Infeasible):
            gw.clime_estimate(xs, gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.0))
        assert [c[1] for c in calls] == [0]  # column 0 solved, column 1 raised
        assert_allclose(calls[0][3], [1.0, 0.0, 0.0], atol=1e-9)
        assert clime_module._fit is None

    def test_model_scoped_to_one_fit(self, monkeypatch):
        cfg = gw.ClimeConfig(lambda_rule="fixed", lambda_level=0.1, psd_project=False)
        rng = Generator(Philox(key=41))
        gw.clime_estimate(rng.standard_normal((50, 8)), cfg)
        assert clime_module._fit is None
        # same lambda, another S: every column equals its own one-shot solve
        calls = _record_columns(monkeypatch)
        gw.clime_estimate(rng.standard_normal((50, 8)), cfg)
        assert clime_module._fit is None
        for s, j, lam, beta in calls:
            one_shot = gw.clime_column(s.copy(), j, lam)
            assert np.abs(beta - one_shot).max() <= 1e-9


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
