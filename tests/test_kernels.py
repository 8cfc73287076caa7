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


# T - w + 1 windows: one, exactly one chunk, one past a chunk, and several hundred
@pytest.mark.parametrize("t_len, w", [(10, 10), (25, 10), (26, 10), (400, 25)])
def test_sliding_matches_full_recompute(setup, t_len, w):
    # the chunked scan agrees with the direct statistic on every window
    om, chol, psi, rng = setup
    x = rng.standard_normal((t_len, 20)) @ chol.T
    sup = kernels.sliding_supnorms(x, om, psi, w)
    assert len(sup) == t_len - w + 1
    omat = gw.PrecisionMatrix.from_entries(np.array(om))
    for k in range(len(sup)):
        direct = gw.oracle_statistic(omat, x[k : k + w])
        assert abs(sup[k] - direct.sup_norm) <= 1e-9


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
