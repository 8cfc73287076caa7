"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria run the desk-scale presets at their default master seed;
every tolerance below is fixed, none are calibrated at run time.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.random import Generator, Philox

import ggmwatch as gw
import ggmwatch.harness as hz
from ggmwatch.threshold import norm_sf

from lp_bruteforce import clime_column_bruteforce
from test_cli import SRC_ENV
from test_threshold import MC_W50

JOBS = 2


@pytest.fixture()
def report(capsys):
    def _emit(num: int, label: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _emit


def _cells(result, **match):
    out = []
    for cell in result.cells:
        if all(cell.cell.get(k) == v for k, v in match.items()):
            out.append(cell)
    return out


@pytest.fixture(scope="module")
def fig1():
    return hz.run_experiment(hz.PRESETS["fig1-desk"], jobs=JOBS)


@pytest.fixture(scope="module")
def table1():
    return hz.run_experiment(hz.PRESETS["table1-desk"], jobs=JOBS)


@pytest.fixture(scope="module")
def fig4():
    return hz.run_experiment(hz.PRESETS["fig4-desk"], jobs=JOBS)


@pytest.fixture(scope="module")
def fig5():
    return hz.run_experiment(hz.PRESETS["fig5-desk"], jobs=JOBS)


@pytest.fixture(scope="module")
def fig6():
    return hz.run_experiment(hz.PRESETS["fig6-desk"], jobs=JOBS)


@pytest.fixture(scope="module")
def fig3():
    return hz.run_experiment(hz.PRESETS["fig3-desk"], jobs=JOBS)


def test_criterion_1_closed_forms(report):
    za = gw.critical_value_asymptotic(0.05, 100)
    zu = gw.critical_value_union(0.05, 100)
    ok = abs(za - 4.4392) <= 1e-3 and abs(zu - 4.4422) <= 1e-3
    report(1, "threshold closed forms", ok, f"asymptotic={za:.6f} union={zu:.6f}")


def test_criterion_2_tail_oracle(report):
    worst = 0.0
    for t, (mc, se) in MC_W50.items():
        worst = max(worst, abs(gw.inner_product_tail(50, t) - mc) / se)
    ratio = gw.inner_product_tail(10_000, 3.0) / (2.0 * norm_sf(3.0))
    ok = worst <= 3.0 and 0.98 <= ratio <= 1.05
    report(2, "inner-product tail matches MC oracle", ok,
            f"worst |quad-mc|/se={worst:.2f}, large-w ratio={ratio:.4f}")


def test_criterion_3_fig1_calibration(fig1, report):
    cell = fig1.cells[0]
    ze = fig1.provenance["zeta_exact"]
    zu = fig1.provenance["zeta_union"]
    rate = cell.metrics["exceed_exact"].value
    band = 4.0 * math.sqrt(0.05 * 0.95 / cell.n)
    quant = cell.metrics["quantile"].value
    ok_rate = abs(rate - 0.05) <= band
    ok_quant = abs(quant - ze) < abs(quant - zu)
    report(3, "chain-model false-alarm calibration", ok_rate and ok_quant,
            f"rate={rate:.4f} (band +-{band:.4f}), quantile={quant:.3f} "
            f"vs exact={ze:.3f}, union={zu:.3f}")


def test_criterion_4_deterministic_statistic(report):
    om = gw.gen_chain_precision(12, 0.5)
    w = 18
    window = np.zeros((w, 12))
    dev = gw.oracle_statistic(om, window)
    expect = -math.sqrt(float(w)) * om.entries * gw.scale_entries(om.entries)
    ok_zero = np.allclose(dev.entries, expect, rtol=1e-14, atol=0.0)
    ok_sup = abs(dev.sup_norm - math.sqrt(w / 2.0)) <= 1e-12
    xs = Generator(Philox(key=42)).standard_normal((w, 12))
    a = gw.oracle_statistic(om, xs)
    b = gw.plugin_statistic(om.entries, xs)
    ok_bits = np.array_equal(a.entries, b.entries) and a.sup_norm == b.sup_norm
    report(4, "deterministic statistic values", ok_zero and ok_sup and ok_bits,
            f"sup={dev.sup_norm:.12f} vs sqrt(w/2)={math.sqrt(w/2):.12f}")


def test_criterion_5_change_identities(report):
    om = gw.gen_chain_precision(40, 0.5)
    ok = True
    for beta in (0.3, 1.0, 2.0):
        post = gw.make_uniform_change(om, beta)
        sig = gw.change_signal(om, gw.invert_spd(post.entries))
        ok &= abs(sig.sup_norm - beta / math.sqrt(2.0)) <= 1e-10
    for s, beta in ((1, 2.0), (3, 1.5), (5, 0.7)):
        delta = gw.make_block_change(om, s, beta).entries - om.entries
        ok &= abs(np.linalg.norm(delta) - beta) <= 1e-12
    report(5, "change-signal identities", bool(ok))


def test_criterion_6_clime_correctness(report):
    rng = Generator(Philox(key=606))
    worst = 0.0
    for p in (2, 3, 4):
        a = rng.standard_normal((p + 3, p))
        s = a.T @ a / (p + 3)
        for j in range(p):
            for lam in (0.0, 0.1):
                beta = gw.clime_column(s, j, lam)
                obj, _ = clime_column_bruteforce(s, j, lam)
                worst = max(worst, abs(np.abs(beta).sum() - obj))
    om = gw.gen_random_sparse(80, 0.06, 0.1, seed=4200)
    chol = gw.cholesky_factor(gw.invert_spd(om.entries))
    xs = Generator(Philox(key=21)).standard_normal((300, 80)) @ chol.T
    est = gw.clime_estimate(xs, gw.ClimeConfig())
    min_eig = float(np.linalg.eigvalsh(est.omega_hat)[0])
    ok = (
        worst <= 1e-8
        and est.feasibility_gap <= gw.ClimeConfig().lp_tolerance
        and min_eig >= -1e-10
    )
    report(6, "CLIME column optimality, feasibility, PSD projection", ok,
            f"lp gap={worst:.2e}, feas={est.feasibility_gap:.2e}, min eig={min_eig:.2e}")


def test_criterion_7_table1_trend(table1, report):
    cells = [c for c in table1.cells if not c.cell.get("oracle")]
    cells.sort(key=lambda c: c.cell["n_burnin"])
    es = [c.metrics["e_n"] for c in cells]
    ok_trend = True
    for prev, cur in zip(es, es[1:]):
        slack = 2.0 * math.sqrt((prev.se or 0.0) ** 2 + (cur.se or 0.0) ** 2)
        ok_trend &= cur.value < prev.value + slack
    # p_N climbs toward 1 - pi0; plateau wiggles of ~1.5 points are allowed,
    # the scale of the published table's own inversions
    ps = [c.metrics["p_n"] for c in cells]
    ok_pn = True
    for prev, cur in zip(ps, ps[1:]):
        slack = max(0.015, 2.0 * math.sqrt(prev.se**2 + cur.se**2))
        ok_pn &= cur.value >= prev.value - slack
    p700 = next(c for c in cells if c.cell["n_burnin"] == 700).metrics["p_n"].value
    ok_band = 0.92 <= p700 <= 0.97
    detail = (
        "e_n=" + "/".join(f"{e.value:.3f}" for e in es)
        + ", p_n=" + "/".join(f"{p.value:.3f}" for p in ps)
        + f", p_700={p700:.4f}"
    )
    report(7, "plug-in calibration trend over N", ok_trend and ok_pn and ok_band, detail)


def _pi1_grid(result, s, axis):
    cells = sorted(_cells(result, s=s), key=lambda c: c.cell[axis])
    xs = [c.cell[axis] for c in cells]
    vals = [c.metrics["pi1"].value for c in cells]
    ses = [c.metrics["pi1"].se for c in cells]
    return xs, vals, ses


def _nonincreasing(vals, ses):
    for k in range(len(vals) - 1):
        slack = 2.0 * math.sqrt(ses[k] ** 2 + ses[k + 1] ** 2)
        if vals[k + 1] > vals[k] + slack:
            return False
    return True


def test_criterion_8_power_monotonicity(fig4, fig5, fig6, report):
    ok = True
    details = []
    for s in (1, 2, 3):
        _, vals, ses = _pi1_grid(fig4, s, "beta")
        ok &= _nonincreasing(vals, ses)
    for s in (1, 2, 3):
        _, vals, ses = _pi1_grid(fig5, s, "w")
        ok &= _nonincreasing(vals, ses)
    for s in (1, 5, 20):
        _, vals, ses = _pi1_grid(fig6, s, "beta")
        ok &= _nonincreasing(vals, ses)
    # s=1 at least as powerful as s=3 for the equal-Frobenius block change
    b1 = dict(zip(*_pi1_grid(fig4, 1, "beta")[:2]))
    b3 = {x: (v, se) for x, v, se in zip(*_pi1_grid(fig4, 3, "beta"))}
    se1 = {x: se for x, _, se in zip(*_pi1_grid(fig4, 1, "beta"))}
    for beta, (v3, se3) in b3.items():
        ok &= b1[beta] <= v3 + 2.0 * math.sqrt(se1[beta] ** 2 + se3**2)
    # size at beta = 0
    band = 4.0 * math.sqrt(0.05 * 0.95 / 1000)
    for result, sg in ((fig4, (1, 2, 3)), (fig6, (1, 5, 20))):
        for s in sg:
            null_cell = min(_cells(result, s=s), key=lambda c: c.cell["beta"])
            v = null_cell.metrics["pi1"].value
            details.append(f"s={s}:pi1(0)={v:.3f}")
            ok &= abs(v - 0.95) <= band
    report(8, "power-curve monotonicity and size", bool(ok), " ".join(details))


def test_criterion_9_detection_delay(fig3, report):
    change = next(c for c in fig3.cells if c.cell["scenario"] == "change")
    w = hz.PRESETS["fig3-desk"].params["w"]
    mean_delay = change.metrics["mean_delay"].value
    traj_cross = change.metrics["traj_cross_delay"].value
    ok = (
        mean_delay < w
        and 15.0 <= mean_delay <= 50.0
        and math.isfinite(traj_cross)
        and traj_cross <= w
    )
    report(9, "detection delay profile", ok,
            f"mean delay={mean_delay:.1f}, mean-trajectory crossing delay={traj_cross:.0f}, w={w}")


def test_criterion_10_determinism(tmp_path, report):
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"det{jobs}"
        cmd = [sys.executable, "-m", "ggmwatch.cli", "experiment", "fa-calibration",
               "--preset", "fig1-desk", "--replicates", "600", "--jobs", jobs,
               "--out", str(out)]
        subprocess.run(cmd, check=True, capture_output=True, env=SRC_ENV)
        outs[jobs] = (
            (tmp_path / f"det{jobs}.csv").read_bytes(),
            (tmp_path / f"det{jobs}.ndjson").read_bytes(),
        )
    ok = outs["1"] == outs["2"]
    report(10, "byte-identical reruns at any --jobs", ok)
