import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ggmwatch as gw
from ggmwatch.errors import DimensionMismatch, NotPositiveDefinite


class TestCholesky:
    def test_identity(self):
        assert_allclose(gw.cholesky_factor(np.eye(3)), np.eye(3))

    def test_hand_checkable_2x2(self):
        low = gw.cholesky_factor(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]])

    def test_reconstruction_random_spd(self):
        m = gw.gen_random_sparse(10, 0.3, 0.1, seed=42).entries
        low = gw.cholesky_factor(m)
        assert np.abs(low @ low.T - m).max() < 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            gw.cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gw.cholesky_factor(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestInvertSpd:
    def test_identity(self):
        assert_allclose(gw.invert_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert_allclose(gw.invert_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_chain_residual(self, chain5, chain5_cov):
        assert np.abs(chain5.entries @ chain5_cov - np.eye(5)).max() <= 1e-8

    def test_symmetric_output(self):
        m = gw.gen_random_sparse(20, 0.2, 0.1, seed=3).entries
        inv = gw.invert_spd(m)
        assert np.array_equal(inv, inv.T)

    def test_roundtrip_up_to_p200(self):
        m = gw.gen_random_sparse(200, 0.03, 0.1, seed=11).entries
        assert np.abs(m @ gw.invert_spd(m) - np.eye(200)).max() <= 1e-8

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_matrix_rejected(self, value):
        # numpy factors such a matrix into a non-finite factor without an error
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            gw.invert_spd(np.full((3, 3), value))

    def test_empty_matrix(self):
        inv = gw.invert_spd(np.zeros((0, 0)))
        assert inv.shape == (0, 0) and inv.dtype == np.float64

    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_bits_of_scipy_cho_solve(self, p):
        import scipy.linalg

        m = gw.gen_random_sparse(p, 0.3, 0.1, seed=p).entries
        inv = scipy.linalg.cho_solve((gw.cholesky_factor(m), True), np.eye(p))
        assert np.array_equal(gw.invert_spd(m), 0.5 * (inv + inv.T))


class TestChainPrecision:
    def test_rho_zero_is_identity(self):
        assert_allclose(gw.gen_chain_precision(3, 0.0).entries, np.eye(3))

    def test_rho_half_p3(self):
        expect = [[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]]
        assert_allclose(gw.gen_chain_precision(3, 0.5).entries, expect)

    def test_large_p_stays_pd(self):
        om = gw.gen_chain_precision(100, 0.5)
        vals = np.linalg.eigvalsh(om.entries)
        assert vals[0] > 0

    def test_rho_beyond_half_rejected(self):
        with pytest.raises(ValueError):
            gw.gen_chain_precision(10, 0.6)


class TestRandomSparse:
    def test_pd_and_unit_variance(self):
        om = gw.gen_random_sparse(80, 0.06, 0.1, seed=7)
        sigma = gw.invert_spd(om.entries)
        assert np.abs(sigma.diagonal() - 1.0).max() <= 1e-10
        rep = gw.assess(om)
        assert rep.lambda_min > 0
        assert 0.0 <= rep.r_max_observed < 1.0

    def test_zero_density_is_identity(self):
        assert_allclose(gw.gen_random_sparse(10, 0.0, 0.1, seed=1).entries, np.eye(10))

    def test_support_count_p100(self):
        # upper-triangle nonzeros including the diagonal; target 302 +/- 10%
        for seed in (0, 1, 2):
            om = gw.gen_random_sparse(100, 0.04, 0.1, seed=seed)
            upper = np.triu(om.entries)
            count = int(np.sum(np.abs(upper) > 1e-12))
            assert 272 <= count <= 332

    def test_mean_row_degree(self):
        om = gw.gen_random_sparse(100, 0.04, 0.1, seed=5)
        off = np.abs(om.entries) > 1e-12
        np.fill_diagonal(off, False)
        assert off.sum(axis=1).mean() == pytest.approx(4.0, abs=0.01)

    def test_deterministic(self):
        a = gw.gen_random_sparse(30, 0.1, 0.1, seed=99).entries
        b = gw.gen_random_sparse(30, 0.1, 0.1, seed=99).entries
        assert np.array_equal(a, b)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            gw.gen_random_sparse(10, 1.5, 0.1, seed=0)

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_density_beyond_pairs_names_row_density(self, p):
        # round(1.0 * p) = p neighbours per row asks for more than p(p-1)/2 edges
        with pytest.raises(ValueError, match="row_density"):
            gw.gen_random_sparse(p, 1.0, 0.1, seed=0)
        gw.gen_random_sparse(p, (p - 1) / p, 0.1, seed=0)  # the complete graph is allowed


class TestHubPrecision:
    def test_hub_degrees(self):
        om = gw.gen_hub_precision(80, 4, 20, 0.1, seed=2)
        off = np.abs(om.entries) > 1e-12
        np.fill_diagonal(off, False)
        degrees = off.sum(axis=1)
        assert int(np.sum(degrees >= 20)) >= 4
        assert gw.assess(om).lambda_min > 0

    def test_no_hubs_is_identity(self):
        assert_allclose(gw.gen_hub_precision(10, 0, 0, 0.1, seed=3).entries, np.eye(10))

    def test_too_many_spokes(self):
        with pytest.raises(ValueError):
            gw.gen_hub_precision(5, 2, 5, 0.1, seed=0)

    def test_more_hubs_than_nodes(self):
        with pytest.raises(ValueError, match="n_hubs = 11 exceeds p = 10"):
            gw.gen_hub_precision(10, 11, 2, 0.1, seed=0)
        assert gw.gen_hub_precision(10, 10, 2, 0.1, seed=0).p == 10


class TestBlockChange:
    def test_s1_adds_to_corner(self, chain5):
        post = gw.make_block_change(chain5, 1, 2.0)
        delta = post.entries - chain5.entries
        assert delta[0, 0] == pytest.approx(2.0)
        assert np.abs(delta).sum() == pytest.approx(2.0)

    def test_s2_block_and_frobenius(self, chain5):
        post = gw.make_block_change(chain5, 2, 3.0)
        delta = post.entries - chain5.entries
        assert_allclose(delta[:2, :2], 1.5 * np.ones((2, 2)))
        assert abs(np.linalg.norm(delta) - 3.0) <= 1e-12

    def test_zero_beta_identity(self, chain5):
        post = gw.make_block_change(chain5, 3, 0.0)
        assert np.array_equal(post.entries, chain5.entries)

    @pytest.mark.parametrize("s,beta", [(1, 0.3), (2, 1.7), (4, 2.5), (5, 0.01)])
    def test_frobenius_is_beta(self, chain5, s, beta):
        delta = gw.make_block_change(chain5, s, beta).entries - chain5.entries
        assert abs(np.linalg.norm(delta) - beta) <= 1e-12

    @given(s=st.integers(1, 5), beta=st.floats(1e-6, 4.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_property(self, chain5, s, beta):
        delta = gw.make_block_change(chain5, s, beta).entries - chain5.entries
        assert abs(np.linalg.norm(delta) - beta) <= 1e-12

    def test_pd_loss_raises(self, chain5):
        with pytest.raises(NotPositiveDefinite):
            gw.make_block_change(chain5, 2, -10.0)


class TestAntidiagChange:
    def test_s1_corners(self):
        om = gw.gen_random_sparse(100, 0.04, 1.0, seed=4)
        post = gw.make_antidiag_change(om, 1, 0.5)
        delta = post.entries - om.entries
        assert delta[0, 99] == pytest.approx(0.5)
        assert delta[99, 0] == pytest.approx(0.5)
        assert np.abs(delta).sum() == pytest.approx(1.0)

    def test_s0_unchanged(self, chain5):
        assert gw.make_antidiag_change(chain5, 0, 3.0) is chain5

    def test_support_count(self):
        om = gw.gen_random_sparse(100, 0.04, 1.0, seed=4)
        delta = gw.make_antidiag_change(om, 5, 0.4).entries - om.entries
        assert int(np.sum(np.abs(delta) > 1e-15)) == 10


class TestUniformChange:
    def test_zero_beta(self, chain5):
        assert_allclose(gw.make_uniform_change(chain5, 0.0).entries, chain5.entries)

    def test_identity_halved(self):
        om = gw.PrecisionMatrix.from_entries(np.eye(6))
        assert_allclose(gw.make_uniform_change(om, 1.0).entries, 0.5 * np.eye(6))

    def test_chain_scaled(self, chain5):
        post = gw.make_uniform_change(chain5, 0.2)
        assert_allclose(post.entries, chain5.entries / 1.2)

    @given(beta=st.floats(-0.9, 9.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scaling_property(self, chain5, beta):
        post = gw.make_uniform_change(chain5, beta)
        assert np.array_equal(post.entries, chain5.entries / (1.0 + beta))

    def test_invalid_beta(self, chain5):
        with pytest.raises(ValueError):
            gw.make_uniform_change(chain5, -1.0)


def _identity_scenario(p, t0=50, n_burnin=0, horizon=10**6):
    om = gw.PrecisionMatrix.from_entries(np.eye(p))
    return gw.ChangeScenario(
        omega_pre=om, omega_post=om, t0=t0, n_burnin=n_burnin, horizon=horizon
    )


class TestSampleStream:
    def test_zero_mean(self):
        xs = gw.GaussianStream(_identity_scenario(4), seed=11).take(100_000)
        assert np.abs(xs.mean(axis=0)).max() < 0.02

    def test_variance_p1(self):
        om = gw.PrecisionMatrix.from_entries(np.array([[4.0]]))
        sc = gw.ChangeScenario(
            omega_pre=om, omega_post=om, t0=10, n_burnin=0, horizon=10**6
        )
        xs = gw.GaussianStream(sc, seed=5).take(100_000)
        assert xs.var() == pytest.approx(0.25, abs=0.005)

    def test_bit_identical_repeat(self):
        sc = _identity_scenario(3)
        a = gw.GaussianStream(sc, seed=77).take(500)
        b = gw.GaussianStream(sc, seed=77).take(500)
        assert np.array_equal(a, b)

    def test_chunking_invariance(self):
        sc = _identity_scenario(3)
        stream = gw.GaussianStream(sc, seed=9)
        chunked = np.vstack([stream.take(13), stream.take(7), stream.take(10)])
        assert np.array_equal(chunked, gw.GaussianStream(sc, seed=9).take(30))

    def test_change_point_boundary(self):
        pre = gw.PrecisionMatrix.from_entries(np.array([[1.0]]))
        post = gw.PrecisionMatrix.from_entries(np.array([[100.0]]))
        sc = gw.ChangeScenario(omega_pre=pre, omega_post=post, t0=3, n_burnin=2, horizon=10**6)
        xs = gw.GaussianStream(sc, seed=1).take(100_000)
        # samples 1..5 are unit variance, later ones have variance 0.01
        assert xs[:5].var() > 0.1
        assert xs[5:].var() == pytest.approx(0.01, rel=0.05)

    def test_exhaustion(self):
        sc = _identity_scenario(2, t0=5, horizon=10)
        with pytest.raises(ValueError):
            gw.GaussianStream(sc, seed=0).take(11)


class TestTypes:
    def test_precision_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gw.PrecisionMatrix.from_entries([[1.0, 0.1], [0.2, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_precision_matrix_rejects_non_finite(self, bad):
        # on the diagonal and, symmetrically, off it
        for entries in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValueError, match="must be finite"):
                gw.PrecisionMatrix.from_entries(entries)

    @pytest.mark.parametrize("rho0", [np.nan, np.inf, -np.inf])
    def test_chain_rejects_non_finite_rho0(self, rho0):
        with pytest.raises(ValueError, match="rho0 must be finite"):
            gw.gen_chain_precision(5, rho0)

    @pytest.mark.parametrize("inflation", [np.nan, np.inf, 0.0, -0.1])
    def test_generators_reject_bad_inflation(self, inflation):
        with pytest.raises(ValueError, match="diag_inflation must be finite and positive"):
            gw.gen_random_sparse(10, 0.2, inflation, 0)
        with pytest.raises(ValueError, match="diag_inflation must be finite and positive"):
            gw.gen_hub_precision(10, 2, 3, inflation, 0)

    def test_precision_matrix_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            gw.PrecisionMatrix.from_entries([[1.0, 2.0], [2.0, 1.0]])

    def test_entries_frozen(self, chain5):
        with pytest.raises(ValueError):
            chain5.entries[0, 0] = 2.0

    def test_scenario_dimension_mismatch(self, chain5):
        other = gw.PrecisionMatrix.from_entries(np.eye(3))
        with pytest.raises(DimensionMismatch):
            gw.ChangeScenario(
                omega_pre=chain5, omega_post=other, t0=1, n_burnin=0, horizon=10
            )

    def test_assess_chain(self, chain5):
        rep = gw.assess(chain5)
        assert rep.d_max_observed == 3
        assert rep.r_max_observed == pytest.approx(0.5)
        assert 0 < rep.lambda_min < 1
