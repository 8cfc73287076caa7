import numpy as np
import pytest

import ggmwatch as gw
from ggmwatch import kernels


@pytest.fixture(scope="module")
def setup():
    om = gw.gen_chain_precision(20, 0.5)
    chol = gw.cholesky_factor(gw.invert_spd(om.entries))
    psi = gw.scale_entries(om.entries)
    rng = np.random.default_rng(7)
    return om.entries, chol, psi, rng


# T - w + 1 windows: one, w rolls after the first exact window, w + 1 rolls,
# and 3w + 2, on which rows scaled by 1e6 enter and leave the window
@pytest.mark.parametrize(
    "t_len, w, scale",
    [(10, 10, 1.0), (19, 10, 1.0), (20, 10, 1.0), (41, 10, 1.0), (41, 10, 1e6)],
    ids=["10-10", "19-10", "20-10", "41-10", "41-10-rows_1e6"],
)
def test_sliding_matches_full_recompute(setup, t_len, w, scale):
    # the rolling scan agrees with the direct statistic on every window, and
    # both fall on the same side of a critical value
    om, chol, psi, rng = setup
    x = rng.standard_normal((t_len, 20)) @ chol.T
    x[w + 2 : w + 4] *= scale  # two rows, where the path has them
    sup = kernels.sliding_supnorms(x, om, psi, w)
    assert len(sup) == t_len - w + 1
    omat = gw.PrecisionMatrix.from_entries(np.array(om))
    direct = np.array([gw.oracle_statistic(omat, x[k : k + w]).sup_norm for k in range(len(sup))])
    assert np.all(np.abs(sup - direct) <= 1e-12 * direct)
    zeta = gw.critical_value_exact(0.05, 20, w)
    assert np.array_equal(sup >= zeta, direct >= zeta)


def test_steady_rows_roll_past_w(setup, monkeypatch):
    # only the error bound and the mass rule ask for an exact step: on 2w + 1
    # stationary rows the scan evaluates the first window exactly and rolls on
    om, chol, psi, _ = setup
    w = 10
    x = np.random.default_rng(21).standard_normal((2 * w + 1, 20)) @ chol.T
    calls = []
    recompute = kernels.RollingSupnorm.recompute
    monkeypatch.setattr(kernels.RollingSupnorm, "recompute",
                        lambda self, y, first: calls.append(first) or recompute(self, y, first))
    kernels.sliding_supnorms(x, om, psi, w)
    assert calls == [0]


def test_window_matches_plugin_statistic(setup):
    om, chol, psi, rng = setup
    xs = rng.standard_normal((5, 12, 20)) @ chol.T
    sup = kernels.window_supnorms(xs, om, psi)
    for k in range(5):
        direct = gw.plugin_statistic(om, xs[k])
        assert abs(sup[k] - direct.sup_norm) <= 1e-9


def test_deterministic_repeat(setup):
    om, chol, psi, rng = setup
    xs = rng.standard_normal((10, 8, 20)) @ chol.T
    a = kernels.window_supnorms(xs, om, psi)
    b = kernels.window_supnorms(xs, om, psi)
    assert np.array_equal(a, b)


def test_short_path_rejected(setup):
    om, chol, psi, rng = setup
    with pytest.raises(ValueError):
        kernels.sliding_supnorms(np.zeros((4, 20)), om, psi, 10)


@pytest.mark.parametrize("first", [0, 3, 7])
def test_recompute_is_the_statistic(setup, first):
    # recompute returns the statistic of the time-ordered window to the bit,
    # puts its oldest row in slot ``first``, and the next push replaces it
    om, chol, psi, rng = setup
    w = 8
    x = rng.standard_normal((w + 1, 20)) @ chol.T
    scorer = kernels.RollingSupnorm(20, w, np.inf)
    scorer.set_estimate(om, psi)
    sq = np.einsum("ij,ij->i", x, x)
    for j in range(w):
        scorer.push((first + j) % w, None, sq[j])
    y = x[:w] @ om
    assert scorer.recompute(y, first) == gw.plugin_statistic(om, x[:w]).sup_norm
    assert np.array_equal(scorer._ring, np.roll(y, first, axis=0))
    sup = scorer.push(first, x[w] @ om, sq[w])
    exact = gw.plugin_statistic(om, x[1:]).sup_norm
    assert abs(sup - exact) <= 1e-12 * exact


def test_push_refuses_a_nan_in_the_rolling_gram(setup):
    # idamax passes over a nan; by the module docstring a nan entry of the
    # rolling Gram needs the window mass to overflow, which makes the bound
    # infinite, so push returns None
    om, chol, psi, rng = setup
    w = 8
    x = rng.standard_normal((w + 2, 20)) @ chol.T
    y = x @ om
    sq = np.einsum("ij,ij->i", x, x)
    scorer = kernels.RollingSupnorm(20, w, 1e3)
    scorer.set_estimate(om, psi)
    for j in range(w):
        scorer.push(j, None, sq[j])
    scorer.recompute(y[:w], 0)
    assert scorer.push(0, y[w], sq[w]) is not None  # rolling, well inside the bound
    scorer._gram[0, 1] = scorer._gram[1, 0] = np.nan
    assert scorer.push(1, y[w + 1], np.inf) is None  # a row whose squared norm overflows
