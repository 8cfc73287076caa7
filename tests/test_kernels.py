import numpy as np
import pytest
from scipy.linalg.blas import dger, dspr

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
                        lambda self, y: calls.append(self._slot) or recompute(self, y))
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


@pytest.mark.parametrize("first", range(8))
def test_recompute_is_the_statistic(setup, first):
    # after ``first`` rows and a window of w more, recompute returns the
    # statistic of the time-ordered window to the bit, puts its oldest row in
    # slot ``first``, and the next push replaces it
    om, chol, psi, rng = setup
    w = 8
    x = rng.standard_normal((w + 1, 20)) @ chol.T
    scorer = kernels.RollingSupnorm(20, w, np.inf)
    scorer.set_estimate(om, psi)
    sq = np.einsum("ij,ij->i", x, x)
    for _ in range(first):
        scorer.push(None, 1e300)  # rows that leave before the recompute: their norms drop out
    for j in range(w):
        scorer.push(None, sq[j])
    y = x[:w] @ om
    assert scorer.recompute(y) == gw.plugin_statistic(om, x[:w]).sup_norm
    assert np.array_equal(scorer._ring, np.roll(y, first, axis=0))
    sup = scorer.push(x[w] @ om, sq[w])
    exact = gw.plugin_statistic(om, x[1:]).sup_norm
    assert abs(sup - exact) <= 1e-12 * exact


def test_push_refuses_a_nan_in_the_rolling_gram(setup):
    # idamax passes over a nan; by the module docstring a nan entry of the
    # rolling centred Gram needs the window mass to overflow, which makes the
    # bound infinite, so push returns None
    om, chol, psi, rng = setup
    w = 8
    x = rng.standard_normal((w + 2, 20)) @ chol.T
    y = x @ om
    sq = np.einsum("ij,ij->i", x, x)
    scorer = kernels.RollingSupnorm(20, w, 1e3)
    scorer.set_estimate(om, psi)
    for j in range(w):
        scorer.push(None, sq[j])
    scorer.recompute(y[:w])
    assert scorer.push(y[w], sq[w]) is not None  # rolling, well inside the bound
    scorer._gram[1] = np.nan  # entry (0, 1) of the packed upper triangle
    assert scorer.push(y[w + 1], np.inf) is None  # a row whose squared norm overflows


class FullGramRoll:
    """Reference for the scorer's arithmetic: the full ``(p, p)`` centred
    Gram ``Y'Y - w * omega``, Fortran-ordered and rolled by BLAS ``dger``,
    scored over the whole deviation."""

    def __init__(self, omega, psi, w):
        self.w_omega, self.scale = w * omega, psi / np.sqrt(w)

    def recompute(self, y, first):
        self.gram = np.asfortranarray(y.T @ y - self.w_omega)
        self.ring = np.roll(y, first, axis=0)
        return self.sup()

    def push(self, slot, y):
        y_out = self.ring[slot]
        dger(1.0, y, y, a=self.gram, overwrite_a=True)
        dger(-1.0, y_out, y_out, a=self.gram, overwrite_a=True)
        y_out[...] = y
        return self.sup()

    def sup(self):
        return np.abs(self.gram * self.scale).max()


@pytest.mark.parametrize("p", [1, 2, 3, 20])
def test_packed_roll_is_the_full_dger_roll(p):
    # the scorer packs in dspr's order, keeps the upper triangle of the full
    # dger roll's centred Gram to the bit, and returns the full deviation's
    # sup-norm to the bit, over rolls that reuse every slot three times; the
    # reference is handed each slot, the scorer keeps its own
    rng = np.random.default_rng(p)
    a = rng.uniform(-0.3, 0.3, (p, p))
    om = a + a.T + 2.0 * p * np.eye(p)
    psi = gw.scale_entries(om)
    w = 5
    x = rng.standard_normal((4 * w, p))
    y, sq = x @ om, np.einsum("ij,ij->i", x, x)
    scorer = kernels.RollingSupnorm(p, w, np.inf)
    scorer.set_estimate(om, psi)
    pack = scorer._pack
    assert np.array_equal(np.outer(y[0], y[0]).take(pack), dspr(p, 1.0, y[0], np.zeros(len(pack))))
    ref = FullGramRoll(om, psi, w)
    rolled = 0
    for k in range(len(x)):
        sup = scorer.push(y[k], sq[k])
        if k < w - 1:
            continue
        if k >= w:
            ref_sup = ref.push(k % w, y[k])
            assert np.array_equal(scorer._gram, ref.gram.take(pack))
            rolled += sup is not None
        if sup is None:
            window = y[k - w + 1 : k + 1]
            sup = scorer.recompute(window)
            ref_sup = ref.recompute(window, (k + 1) % w)
            assert np.array_equal(scorer._gram, ref.gram.take(pack))
        assert sup == ref_sup
    assert rolled > 2 * w


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_positional_dspr_is_the_keyword_call(alpha):
    # push passes dspr's optional arguments (incx, offx, lower, overwrite_ap)
    # by position: the call updates the packed upper triangle in place, with
    # the bits of the call that names them
    rng = np.random.default_rng(11)
    n = 6
    x, ap = rng.standard_normal(n), rng.standard_normal(n * (n + 1) // 2)
    want = dspr(n, alpha, x, ap.copy(), incx=1, offx=0, lower=0, overwrite_ap=True)
    got = ap.copy()
    kernels.dspr(n, alpha, x, got, 1, 0, 0, 1)
    assert np.array_equal(got, want)
    assert not np.array_equal(want, dspr(n, alpha, x, ap.copy(), lower=1))


@pytest.mark.parametrize("which", ["omega", "psi"])
def test_set_estimate_refuses_an_asymmetric_matrix(setup, which):
    # the scorer reads only the upper triangles of omega and psi
    om, _, psi, _ = setup
    args = {"omega": np.array(om), "psi": np.array(psi)}
    args[which][0, 1] = np.nextafter(args[which][0, 1], np.inf)
    scorer = kernels.RollingSupnorm(20, 8, np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        scorer.set_estimate(args["omega"], args["psi"])


@pytest.mark.parametrize("p", [1, 3, 20])
def test_packed_arrays_start_on_a_cache_line(setup, p):
    om, _, psi, _ = setup
    scorer = kernels.RollingSupnorm(p, 8, np.inf)
    for _ in range(2):  # a refit replaces the estimate's arrays
        scorer.set_estimate(om[:p, :p], psi[:p, :p])
        packed = [scorer._gram, scorer._scratch, scorer._w_omega, scorer._scale]
        assert [(a.ctypes.data % 64, a.shape, a.flags.c_contiguous) for a in packed] == [
            (0, (p * (p + 1) // 2,), True)] * 4
        assert np.array_equal(scorer._w_omega, (8 * om[:p, :p]).ravel()[scorer._pack])
