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


# T - w + 1 windows: one, exactly w rolls after the first exact window, one
# past them, and 3w + 2, on which rows scaled by 1e6 enter and leave the window
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
