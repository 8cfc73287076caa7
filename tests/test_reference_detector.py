"""Property tests of the detector and the sliding scan against plain references.

``ReferenceDetector`` follows the phase rules of the README, not
``detector.py``: it keeps every row since the last restart and evaluates
``oracle_statistic`` / ``plugin_statistic`` on the time-ordered window at
every test. Hypothesis draws streams that mix N(0, 1) rows with rows scaled
by 10^k, repeated rows and zero rows, and puts zeta on an exact statistic of
the stream in some of them. Fits come from a scripted estimator that returns
seeded, well-conditioned SPD matrices and fails at chosen fits.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

import ggmwatch as gw
import ggmwatch.detector as detector_module
from ggmwatch.errors import GgmWatchError, Infeasible
from ggmwatch.kernels import sliding_supnorms

# a fixed, derandomized budget: about 3 s of tier-1 in all
PROFILE = dict(derandomize=True, deadline=None,
               suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def spd(p: int, key: int) -> np.ndarray:
    """A seeded, diagonally dominant symmetric matrix with a positive diagonal."""
    rng = Generator(Philox(key=key))
    a = rng.uniform(-0.4, 0.4, (p, p)) * (rng.random((p, p)) < 0.5)
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0 + rng.random(p) + np.abs(a).sum(axis=1))
    return a


class ScriptedClime:
    """Stands in for ``clime_estimate``: fit ``k`` (from 0) raises Infeasible
    when ``script[k % len(script)]`` is ``"infeasible"``, returns an estimate
    with a zero diagonal entry when it is ``"nonpositive"``, and otherwise
    returns ``spd(p, key + k)``. Records the samples of every fit."""

    def __init__(self, key: int, script: list[str]):
        self.key, self.script, self.samples = key, script, []

    def __call__(self, samples, config=None):
        k = len(self.samples)
        self.samples.append(np.array(samples))
        outcome = self.script[k % len(self.script)]
        if outcome == "infeasible":
            raise Infeasible(f"scripted failure of fit {k}")
        omega = spd(samples.shape[1], self.key + k)
        if outcome == "nonpositive":
            omega[k % omega.shape[0], k % omega.shape[0]] = 0.0
        return SimpleNamespace(omega_hat=omega)


class ReferenceDetector:
    """The README's phase rules, one step at a time: the first ``n_burnin``
    rows since the last restart are burn-in, a plug-in fit follows the last of
    them, and each later row with at least ``w`` monitored rows is a test of
    the last ``w``. A test that reaches ``zeta`` is a detection and restarts;
    a test whose statistic is not finite restarts and fails with
    NonFiniteSample; a quiet test with ``(m - w + 1) % batch == 0`` refits on
    every row since the restart. A failed burn-in fit restarts; a failed refit
    keeps the estimate. ``step`` returns ``(event, statistic, failure)``."""

    def __init__(self, p, w, zeta, n_burnin, batch, oracle, estimate):
        self.w, self.zeta, self.n_burnin, self.batch = w, zeta, n_burnin, batch
        self.oracle, self.estimate = oracle, estimate
        self.t, self.rows, self.omega = 0, [], None

    def fit(self):
        try:
            omega = self.estimate(np.array(self.rows)).omega_hat
        except GgmWatchError as exc:
            return type(exc).__name__
        if np.any(omega.diagonal() <= 0.0):
            return "NonPositiveDiagonal"
        self.omega = omega
        return None

    def step(self, x):
        self.t += 1
        self.rows.append(x)
        m = len(self.rows) - self.n_burnin
        if m == 0 and self.oracle is None:
            failure = self.fit()
            if failure is not None:
                self.rows = []
            return None, None, failure
        if m < self.w:
            return None, None, None
        window = np.array(self.rows[-self.w:])
        if self.oracle is not None:
            stat = gw.oracle_statistic(self.oracle, window).sup_norm
        else:
            stat = gw.plugin_statistic(self.omega, window).sup_norm
        if not math.isfinite(stat):
            self.rows = []
            return None, None, "NonFiniteSample"
        if stat >= self.zeta:
            self.rows = []
            return (self.t, stat.hex(), self.zeta.hex(), m), stat, None
        if self.oracle is None and self.batch is not None and (m - self.w + 1) % self.batch == 0:
            return None, stat, self.fit()
        return None, stat, None


def run_detector(config, xs):
    """``(event, statistic, failure)`` of each step of a fresh Detector.

    Checks that an exact step that does not fire and does not overflow
    restarts the rolling scorer once, with ``recompute`` returning the step's
    statistic to the bit, and that no other step calls ``recompute``."""
    det = gw.Detector(config)
    scorer, exact, recompute = det._scorer, det._exact, det._scorer.recompute
    exacts, recomputed = [], []
    det._exact = lambda m: exacts.append(det.t) or exact(m)
    scorer.recompute = lambda y, first: recomputed.append(recompute(y, first)) or recomputed[-1]
    out = []
    for x in xs:
        failure = None
        exacts.clear()
        recomputed.clear()
        try:
            event = det.step(x)
        except GgmWatchError as exc:
            event, failure = None, type(exc).__name__
        stat = det.last_statistic
        if exacts and event is None and stat is not None:
            assert [r.hex() for r in recomputed] == [stat.hex()]
        else:
            assert recomputed == []
        if event is not None:
            event = (event.t, event.statistic.hex(), event.zeta.hex(), event.delay_estimate)
        out.append((event, stat, failure))
    return out


def close(got, want) -> bool:
    """Equal, both nan, or within 1e-12 relative."""
    if got is None or want is None:
        return got is want
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= 1e-12 * abs(want)


@st.composite
def streams(draw, p, length):
    """A ``(length, p)`` stream: N(0, 1) rows, some scaled by 10^k with k in
    [-150, 150], some repeating an earlier row, some zero."""
    key = draw(st.integers(0, 2**32 - 1))
    xs = Generator(Philox(key=key)).standard_normal((length, p))
    kinds = draw(st.lists(
        st.tuples(st.sampled_from(["normal"] * 4 + ["scaled", "repeat", "zero"]),
                  st.one_of(st.integers(-150, 150), st.integers(-3, 3))),
        min_size=length, max_size=length,
    ))
    for i, (kind, k) in enumerate(kinds):
        if kind == "scaled":
            xs[i] *= 10.0 ** k
        elif kind == "repeat" and i > 0:
            xs[i] = xs[(i * 7919 + k) % i]
        elif kind == "zero":
            xs[i] = 0.0
    return xs


@st.composite
def detector_cases(draw):
    p = draw(st.integers(2, 12))
    w = draw(st.integers(2, 20))
    oracle = draw(st.booleans())
    n_burnin = draw(st.integers(0 if oracle else 2, 30))
    batch = draw(st.one_of(st.none(), st.integers(1, 7)))
    xs = draw(streams(p, draw(st.integers(n_burnin + w, n_burnin + 5 * w + 20))))
    key = draw(st.integers(0, 2**20))
    script = draw(st.lists(st.sampled_from(["ok", "ok", "ok", "infeasible", "nonpositive"]),
                           min_size=1, max_size=6))
    # zeta: out of reach, a draw, or on the exact statistic of one test of a
    # run with zeta out of reach (one ulp above it in some cases)
    zeta_kind = draw(st.sampled_from(["high", "drawn", "exact", "exact", "above"]))
    pick = draw(st.integers(0, 10**6))
    zeta = 1e300 if zeta_kind == "high" else draw(st.floats(0.5, 20.0))
    return p, w, oracle, n_burnin, batch, xs, key, script, zeta_kind, pick, zeta


def reference_run(p, w, zeta, n_burnin, batch, oracle, key, script, xs):
    fake = ScriptedClime(key, script)
    ref = ReferenceDetector(p, w, zeta, n_burnin, batch, oracle, fake)
    return [ref.step(x) for x in xs], fake


@settings(max_examples=100, **PROFILE)
@given(detector_cases())
def test_detector_matches_reference(case):
    p, w, oracle, n_burnin, batch, xs, key, script, zeta_kind, pick, zeta = case
    oracle = gw.PrecisionMatrix.from_entries(spd(p, key)) if oracle else None
    if zeta_kind in ("exact", "above"):
        quiet, _ = reference_run(p, w, 1e300, n_burnin, batch, oracle, key, script, xs)
        stats = [s for _, s, _ in quiet if s is not None and 0.0 < s < math.inf]
        if stats:
            zeta = stats[pick % len(stats)]
            if zeta_kind == "above":
                zeta = float(np.nextafter(zeta, np.inf))
    want, ref_fits = reference_run(p, w, zeta, n_burnin, batch, oracle, key, script, xs)
    fake = ScriptedClime(key, script)
    config = gw.DetectorConfig(p=p, w=w, zeta=zeta, n_burnin=n_burnin, batch=batch,
                               oracle_omega=oracle)
    real, detector_module.clime_estimate = detector_module.clime_estimate, fake
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            got = run_detector(config, xs)
    finally:
        detector_module.clime_estimate = real
    assert [e for e, _, _ in got] == [e for e, _, _ in want]
    assert [f for _, _, f in got] == [f for _, _, f in want]
    for t, ((_, stat, _), (_, exact, _)) in enumerate(zip(got, want), start=1):
        assert close(stat, exact), (t, stat, exact)
    assert len(fake.samples) == len(ref_fits.samples)
    for a, b in zip(fake.samples, ref_fits.samples):
        assert np.array_equal(a, b)


@st.composite
def sliding_cases(draw):
    p = draw(st.integers(2, 12))
    w = draw(st.integers(2, 20))
    xs = draw(streams(p, draw(st.integers(w, 6 * w + 20))))
    return w, xs, draw(st.integers(0, 2**20))


@settings(max_examples=50, **PROFILE)
@given(sliding_cases())
def test_sliding_scan_matches_reference(case):
    w, xs, key = case
    omega = spd(xs.shape[1], key)
    with np.errstate(over="ignore", invalid="ignore"):
        got = sliding_supnorms(xs, omega, gw.scale_entries(omega), w)
        want = [gw.plugin_statistic(omega, xs[k : k + w]).sup_norm
                for k in range(len(xs) - w + 1)]
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got.tolist(), want)):
        assert close(a, b), (k, a, b)
