import math
import os

import numpy as np
import pytest

import ggmwatch as gw
from ggmwatch.errors import NegativeZetaSquared, TargetOutOfRange
from ggmwatch.threshold import norm_sf

# Frozen Monte Carlo oracle for the w=50 tail: 1e7 draws of |<X,Y>|/sqrt(50)
# with X, Y independent standard normal (Philox key 0x5EED_0001, chunks of
# 250_000). Recomputed live by test_tail_matches_live_oracle when
# GGMWATCH_RUN_SLOW=1.
MC_W50 = {
    1.0: (3.12777500e-01, 1.466e-04),
    2.0: (4.65199000e-02, 6.660e-05),
    3.0: (3.49400000e-03, 1.866e-05),
    4.0: (1.43200000e-04, 3.784e-06),
}


class TestTail:
    def test_total_probability(self):
        assert gw.inner_product_tail(50, 0.0) == 1.0

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="w must be >= 1"):
            gw.InnerProductTail(0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            gw.InnerProductTail(5)(-1.0)

    def test_monotone_nonincreasing(self):
        for w in (2, 10, 50, 500):
            vals = [gw.inner_product_tail(w, t) for t in np.linspace(0, 6, 25)]
            assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_matches_frozen_mc_oracle(self):
        for t, (mc, se) in MC_W50.items():
            assert abs(gw.inner_product_tail(50, t) - mc) <= 3.0 * se

    def test_gaussian_limit_ratio(self):
        ratio = gw.inner_product_tail(10_000, 3.0) / (2.0 * norm_sf(3.0))
        assert 0.98 <= ratio <= 1.05

    def test_heavier_than_gaussian_beyond_two(self):
        # the chi-mixture crosses the Gaussian tail near t ~ 1.7; for t >= 2
        # it is strictly heavier on this grid
        for w in (10, 50, 100, 500):
            for t in (2.0, 3.0, 4.0, 5.0, 6.0):
                assert gw.inner_product_tail(w, t) >= 2.0 * norm_sf(t)

    def test_chernoff_envelope_in_regime(self):
        # the exponential envelope is asymptotic in t^6/w; assert it with
        # C = 3 on the grid points inside that regime (t^6 <= w)
        for w in (10, 50, 100, 500):
            for t in np.linspace(0, 6, 61):
                if t**6 <= w:
                    assert gw.inner_product_tail(w, float(t)) <= 3.0 * math.exp(-t * t / 2.0)

    @pytest.mark.slow
    @pytest.mark.skipif(
        os.environ.get("GGMWATCH_RUN_SLOW") != "1", reason="set GGMWATCH_RUN_SLOW=1"
    )
    def test_tail_matches_live_oracle(self):
        from numpy.random import Generator, Philox

        rng = Generator(Philox(key=0x5EED_0001))
        counts = np.zeros(len(MC_W50), dtype=np.int64)
        ts = np.array(sorted(MC_W50))
        n, done = 10**7, 0
        while done < n:
            m = min(250_000, n - done)
            x = rng.standard_normal((m, 50))
            y = rng.standard_normal((m, 50))
            v = np.abs(np.einsum("ij,ij->i", x, y)) / math.sqrt(50.0)
            for k, t in enumerate(ts):
                counts[k] += int(np.sum(v >= t))
            done += m
        for t, hits in zip(ts, counts):
            p = hits / n
            se = math.sqrt(p * (1 - p) / n)
            assert abs(gw.inner_product_tail(50, float(t)) - p) <= 3.0 * se


class TestExactCriticalValue:
    def test_round_trip(self):
        for w in (50, 200):
            z = gw.critical_value_exact(0.05, 100, w)
            target = -2.0 * math.log1p(-0.05) / (100 * 101)
            assert abs(gw.inner_product_tail(w, z) - target) <= 1e-12 * target

    def test_monotone_in_pi0(self):
        loose = gw.critical_value_exact(0.5, 100, 50)
        strict = gw.critical_value_exact(0.01, 100, 50)
        assert strict > loose

    def test_against_mc_oracle_w50(self):
        # the full-scale pilot (1e7 draws) measured tail(4.734291) = 9.40e-6
        # +/- 0.97e-6 against the target 1.0157e-5 (0.8 sigma)
        z = gw.critical_value_exact(0.05, 100, 50)
        assert z == pytest.approx(4.734291, abs=1e-4)

    def test_decreasing_in_w_toward_gaussian_root(self):
        target = -2.0 * math.log1p(-0.05) / (100 * 101)
        from scipy.optimize import brentq

        gauss_root = brentq(lambda z: 2.0 * norm_sf(z) - target, 1.0, 10.0, xtol=1e-12)
        zs = [gw.critical_value_exact(0.05, 100, w) for w in (50, 1_000, 1_000_000)]
        assert zs[0] > zs[1] > zs[2]
        assert abs(zs[2] - gauss_root) < 1e-3

    def test_limit_gap_to_closed_form(self):
        # the closed form drops an o(1) term worth ~0.025 at p=100, so the
        # w -> inf limit sits within 0.03 of it
        z_inf = gw.critical_value_exact(0.05, 100, 10**6)
        za = gw.critical_value_asymptotic(0.05, 100)
        assert abs(z_inf - za) < 0.03

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            gw.critical_value_exact(0.99, 2, 50)

    @staticmethod
    def _bisect_100(pi0, p, w):
        """The solve's bisection run for all of its 100 steps."""
        target = -2.0 * math.log1p(-pi0) / (p * (p + 1))
        hi = 20.0
        while gw.inner_product_tail(w, hi) > target:
            hi *= 2.0
        lo = 0.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if gw.inner_product_tail(w, mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_stopping_early_keeps_the_bits(self, monkeypatch):
        """The solve stops once the bracket's ends are adjacent doubles, where
        every further step would leave them as they are."""
        grid = [(pi0, p, w) for pi0 in (0.01, 0.05, 0.5) for p in (2, 10, 100)
                for w in (2, 7, 50, 300)]
        calls = []
        tail_call = gw.InnerProductTail.__call__

        def counted(self, t):
            calls.append(t)
            return tail_call(self, t)

        monkeypatch.setattr(gw.InnerProductTail, "__call__", counted)
        for point in grid:
            calls.clear()
            z = gw.critical_value_exact(*point)
            assert len(calls) <= 64, point
            assert z.hex() == self._bisect_100(*point).hex(), point

    # float.hex of the root at these (pi0, p, w); every preset's provenance
    # zeta fields carry these bits, so no refactor of the quadrature may move them
    FROZEN = {
        (0.05, 100, 50): "0x1.2efe9db79f1bep+2",
        (0.05, 100, 150): "0x1.21e0b02daad1ep+2",
        (0.01, 80, 40): "0x1.481b6b44adf7cp+2",
        (0.2, 10, 2): "0x1.f27622a83f5e4p+1",
        (0.05, 100, 300): "0x1.1e445e7ad4bb6p+2",
    }

    @pytest.mark.parametrize("point", FROZEN, ids=str)
    def test_bits_are_frozen(self, point):
        assert gw.critical_value_exact(*point).hex() == self.FROZEN[point]


class TestClosedForms:
    def test_asymptotic_value(self):
        z = gw.critical_value_asymptotic(0.05, 100)
        assert z == pytest.approx(4.4392, abs=1e-3)
        assert z == pytest.approx(4.439222141957687, abs=1e-12)

    def test_asymptotic_monotone_in_p(self):
        assert gw.critical_value_asymptotic(0.05, 200) > gw.critical_value_asymptotic(0.05, 100)

    def test_small_p_boundary(self):
        z = gw.critical_value_asymptotic(0.05, 2)
        assert z > 0
        with pytest.raises(NegativeZetaSquared):
            gw.critical_value_asymptotic(0.9999, 2)

    def test_union_value(self):
        z = gw.critical_value_union(0.05, 100)
        assert z == pytest.approx(4.4422, abs=1e-3)

    def test_union_geq_asymptotic(self):
        assert gw.critical_value_union(0.05, 100) >= gw.critical_value_asymptotic(0.05, 100)

    def test_union_domain_edge(self):
        assert gw.critical_value_union(0.4999, 100) > 0
        with pytest.raises(ValueError):
            gw.critical_value_union(0.6, 100)

    def test_invalid_pi0(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                gw.critical_value_asymptotic(bad, 100)


class TestCriticalValue:
    def test_exact_method(self):
        zeta = gw.critical_value(0.05, 100, 50)
        assert zeta == gw.critical_value_exact(0.05, 100, 50)
        assert gw.critical_value(0.05, 100, 50, method="exact") == zeta

    def test_closed_form_methods(self):
        assert gw.critical_value(0.05, 100, 50, "asymptotic") == gw.critical_value_asymptotic(
            0.05, 100
        )
        assert gw.critical_value(0.05, 100, 50, "union") == gw.critical_value_union(0.05, 100)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="magic"):
            gw.critical_value(0.05, 10, 20, method="magic")
