import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from numpy.testing import assert_allclose

import ggmwatch as gw
from ggmwatch.errors import DimensionMismatch, NonPositiveDiagonal

# properties over (p, w, seed): a seeded sparse model and a Gaussian window;
# derandomized, so every run checks the same examples
_property = settings(derandomize=True, max_examples=30, deadline=None)
_P = st.integers(2, 12)
_W = st.integers(1, 40)
_SEED = st.integers(0, 2**32 - 1)


def _model_and_window(p, w, seed):
    omega = gw.gen_random_sparse(p, 0.3, 0.1, seed)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((w, p)) @ gw.cholesky_factor(omega.sigma()).T
    return omega, xs, rng


class TestScaleEntries:
    def test_identity(self):
        psi = gw.scale_entries(np.eye(4))
        expect = np.full((4, 4), 1.0)
        np.fill_diagonal(expect, 1.0 / math.sqrt(2.0))
        assert_allclose(psi, expect)

    def test_two_by_two(self):
        om = gw.PrecisionMatrix.from_entries(np.array([[1.0, 0.5], [0.5, 1.0]]))
        psi = gw.scale_entries(om.entries)
        expect = [[1 / math.sqrt(2), 1 / math.sqrt(1.25)], [1 / math.sqrt(1.25), 1 / math.sqrt(2)]]
        assert_allclose(psi, expect)

    def test_scalar_case(self):
        om = gw.PrecisionMatrix.from_entries(np.array([[4.0]]))
        assert_allclose(gw.scale_entries(om.entries), [[1 / math.sqrt(32.0)]])

    def test_bounds(self, chain5):
        psi = gw.scale_entries(chain5.entries)
        d = chain5.entries.diagonal()
        assert np.all(psi > 0)
        assert np.all(psi <= 1.0 / np.sqrt(np.outer(d, d)) + 1e-15)


class TestOracleStatistic:
    def test_all_zero_window(self):
        om = gw.PrecisionMatrix.from_entries(np.eye(8))
        window = np.zeros((8, 8))
        dev = gw.oracle_statistic(om, window)
        expect = -math.sqrt(8.0) * om.entries * gw.scale_entries(om.entries)
        assert_allclose(dev.entries, expect, rtol=1e-15)
        assert dev.sup_norm == pytest.approx(math.sqrt(8.0 / 2.0), abs=1e-12)

    def test_single_sample_scalar(self):
        om = gw.PrecisionMatrix.from_entries(np.array([[1.0]]))
        window = [[math.sqrt(3.0)]]
        dev = gw.oracle_statistic(om, window)
        assert dev.sup_norm == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_sup_norm_matches_entries(self, chain5, rng):
        window = rng.standard_normal((20, 5))
        dev = gw.oracle_statistic(chain5, window)
        assert dev.sup_norm == np.abs(dev.entries).max()
        assert np.abs(dev.entries - dev.entries.T).max() <= 1e-10

    @_property
    @given(p=_P, w=_W, seed=_SEED)
    def test_permutation_invariance(self, p, w, seed):
        omega, xs, rng = _model_and_window(p, w, seed)
        base = gw.oracle_statistic(omega, xs)
        other = gw.oracle_statistic(omega, xs[rng.permutation(w)])
        assert_allclose(other.entries, base.entries, rtol=1e-12, atol=1e-13)

    @_property
    @given(p=_P, w=_W, seed=_SEED)
    def test_node_relabeling_equivariance(self, p, w, seed):
        omega, xs, rng = _model_and_window(p, w, seed)
        perm = np.eye(p)[rng.permutation(p)]
        om_p = gw.PrecisionMatrix.from_entries(perm @ omega.entries @ perm.T)
        lhs = gw.oracle_statistic(om_p, xs @ perm.T)
        rhs = gw.oracle_statistic(omega, xs)
        assert_allclose(lhs.entries, perm @ rhs.entries @ perm.T, atol=1e-12)

    def test_not_two_dimensional(self, chain5):
        for bad in (np.zeros(5), np.zeros((2, 3, 5))):
            with pytest.raises(DimensionMismatch):
                gw.oracle_statistic(chain5, bad)

    def test_dimension_mismatch(self, chain5):
        with pytest.raises(DimensionMismatch):
            gw.oracle_statistic(chain5, np.zeros((4, 7)))

    def test_h0_zero_mean_monte_carlo(self):
        # p=100 chain, w=50: entry means over 1e4 replicates stay within 0.04
        om = gw.gen_chain_precision(100, 0.5)
        chol = gw.cholesky_factor(gw.invert_spd(om.entries))
        psi = gw.scale_entries(om.entries)
        w, n = 50, 10_000
        gen = Generator(Philox(key=101))
        total = np.zeros((100, 100))
        for _ in range(n // 500):
            z = gen.standard_normal((500, w, 100))
            y = (z @ chol.T) @ om.entries
            s = np.matmul(y.transpose(0, 2, 1), y)
            total += ((s - w * om.entries) / math.sqrt(w) * psi).sum(axis=0)
        assert np.abs(total / n).max() < 0.04

    def test_h1_mean_is_scaled_signal(self):
        # mean of the statistic over H1 windows converges to sqrt(w) * signal
        om = gw.gen_chain_precision(5, 0.5)
        post = gw.make_block_change(om, 2, 1.0)
        sigma_post = gw.invert_spd(post.entries)
        signal = gw.change_signal(om, sigma_post)
        w, n = 10, 100_000
        chol = gw.cholesky_factor(sigma_post)
        gen = Generator(Philox(key=404))
        total = np.zeros((5, 5))
        totalsq = np.zeros((5, 5))
        psi = gw.scale_entries(om.entries)
        for _ in range(n // 2000):
            z = gen.standard_normal((2000, w, 5))
            y = (z @ chol.T) @ om.entries
            s = np.matmul(y.transpose(0, 2, 1), y)
            e = (s - w * om.entries) / math.sqrt(w) * psi
            total += e.sum(axis=0)
            totalsq += (e * e).sum(axis=0)
        mean = total / n
        se = np.sqrt((totalsq / n - mean**2) / n)
        assert np.all(np.abs(mean - math.sqrt(w) * signal.entries) <= 3.0 * se + 1e-9)


class TestPluginStatistic:
    @_property
    @given(p=_P, w=_W, seed=_SEED)
    def test_bitwise_match_with_true_omega(self, p, w, seed):
        omega, xs, _ = _model_and_window(p, w, seed)
        a = gw.oracle_statistic(omega, xs)
        b = gw.plugin_statistic(omega.entries, xs)
        assert np.array_equal(a.entries, b.entries)
        assert a.sup_norm == b.sup_norm

    def test_all_zero_window_closed_form(self):
        om_hat = np.array([[2.0, 0.3], [0.3, 1.0]])
        window = np.zeros((6, 2))
        dev = gw.plugin_statistic(om_hat, window)
        psi = 1.0 / np.sqrt(np.outer(np.diag(om_hat), np.diag(om_hat)) + om_hat**2)
        assert_allclose(dev.entries, -math.sqrt(6.0) * om_hat * psi, rtol=1e-15)

    def test_nonpositive_diagonal(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NonPositiveDiagonal):
            gw.plugin_statistic(bad, np.zeros((4, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gw.plugin_statistic(np.eye(3), np.zeros((4, 2)))


class TestChangeSignal:
    def test_null_is_zero(self, chain5, chain5_cov):
        sig = gw.change_signal(chain5, chain5_cov)
        assert sig.sup_norm <= 1e-10

    def test_uniform_change_sup(self, ):
        om = gw.gen_chain_precision(30, 0.5)
        for beta in (0.4, 1.0, 2.5):
            post = gw.make_uniform_change(om, beta)
            sig = gw.change_signal(om, gw.invert_spd(post.entries))
            assert abs(sig.sup_norm - beta / math.sqrt(2.0)) <= 1e-10

    def test_single_inflated_variance(self):
        om = gw.PrecisionMatrix.from_entries(np.eye(4))
        sigma = np.eye(4)
        sigma[0, 0] = 1.3
        sig = gw.change_signal(om, sigma)
        assert sig.entries[0, 0] == pytest.approx(0.3 / math.sqrt(2.0), abs=1e-12)
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert np.abs(sig.entries[mask]).max() <= 1e-15

    def test_dimension_mismatch(self, chain5):
        with pytest.raises(DimensionMismatch):
            gw.change_signal(chain5, np.eye(4))


class TestDetectabilityMargin:
    def test_zero_signal_is_negative(self, chain5, chain5_cov):
        sig = gw.change_signal(chain5, chain5_cov)
        zeta = gw.critical_value(0.05, 5, 20, method="asymptotic")
        assert gw.detectability_margin(sig, zeta, 5, 20, 2, 0.5, 1.0) < 0

    def test_boundary_zero(self):
        zeta = gw.critical_value(0.05, 100, 50, method="asymptotic")
        sig = gw.ChangeSignal(entries=np.zeros((100, 100)), sup_norm=zeta / math.sqrt(50))
        assert gw.detectability_margin(sig, zeta, 100, 50, 3, 1.0, 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_arithmetic_case(self):
        # independent arithmetic: 2 - sqrt(4.44^2/150) - 1*(25/0.5)*sqrt(log(100)/150)
        sig = gw.ChangeSignal(entries=np.zeros((100, 100)), sup_norm=2.0)
        expect = 2.0 - math.sqrt(4.44**2 / 150.0) - 1.0 * (25.0 / 0.5) * math.sqrt(
            math.log(100.0) / 150.0
        )
        got = gw.detectability_margin(sig, 4.44, 100, 150, 5, 0.5, 1.0)
        assert got == pytest.approx(expect, abs=1e-14)
