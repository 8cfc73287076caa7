import dataclasses
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import ggmwatch as gw
import ggmwatch.detector as detector_module
import ggmwatch.statistic as statistic_module
from ggmwatch.errors import DimensionMismatch, Infeasible, InvalidConfig, NonFiniteSample


def _oracle_config(p=5, w=4, zeta=1e6, n_burnin=0, batch=None):
    omega = gw.PrecisionMatrix.from_entries(np.eye(p))
    return gw.DetectorConfig(
        p=p, w=w, zeta=zeta, n_burnin=n_burnin, batch=batch, oracle_omega=omega
    )


class TestNewDetector:
    def test_oracle_monitoring_after_window(self, rng):
        det = gw.Detector(_oracle_config(w=4))
        for i in range(3):
            assert det.step(rng.standard_normal(5)) is None
            assert det.last_statistic is None
        det.step(rng.standard_normal(5))
        assert det.last_statistic is not None

    def test_burn_in_accumulates_only(self, rng):
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        zeta = gw.critical_value(0.05, 4, 3)
        config = gw.DetectorConfig(p=4, w=3, zeta=zeta, n_burnin=12, batch=None)
        det = gw.Detector(config)
        xs = rng.standard_normal((20, 4)) @ chol.T
        for i, x in enumerate(xs):
            det.step(x)
            if i < 12:
                assert det.phase == "burn_in" or i == 11
                assert det.last_statistic is None
        assert det.phase == "monitoring"

    def test_unresolved_threshold_rejected(self):
        with pytest.raises(InvalidConfig):
            gw.Detector(gw.DetectorConfig(p=5, w=4, zeta=None, n_burnin=10, batch=None))

    @pytest.mark.parametrize("zeta", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_zeta_rejected(self, zeta):
        with pytest.raises(InvalidConfig):
            gw.Detector(_oracle_config(zeta=zeta))

    @pytest.mark.parametrize("p", [0, -3])
    def test_dimension_below_one_rejected(self, p):
        with pytest.raises(InvalidConfig, match=f"p must be >= 1, got {p}"):
            gw.DetectorConfig(p=p, w=2, zeta=1.0, n_burnin=2, batch=None)

    def test_window_below_two_rejected_at_construction(self):
        with pytest.raises(InvalidConfig, match="w must be >= 2, got 1"):
            gw.DetectorConfig(p=5, w=1, zeta=4.0, n_burnin=10, batch=None)

    def test_oracle_negative_burnin_rejected_at_construction(self):
        with pytest.raises(InvalidConfig, match="n_burnin must be nonnegative"):
            _oracle_config(n_burnin=-1)

    def test_plugin_mode_requires_burnin(self):
        with pytest.raises(InvalidConfig):
            gw.Detector(gw.DetectorConfig(p=5, w=4, zeta=4.0, n_burnin=0, batch=None))


class TestStep:
    def test_unreachable_threshold_never_fires(self, rng):
        det = gw.Detector(_oracle_config(zeta=1e6))
        events = [e for x in rng.standard_normal((200, 5)) if (e := det.step(x))]
        assert events == []

    def test_zero_threshold_immediate(self, rng):
        # a zeta just above 0 (0 itself is rejected) fires on the first full window
        det = gw.Detector(_oracle_config(zeta=1e-300, w=4))
        events = [det.step(x) for x in rng.standard_normal((4, 5))]
        assert events[:3] == [None, None, None]
        assert events[3] is not None
        assert events[3].t == 4
        assert events[3].delay_estimate == 4

    def test_detection_spacing_with_burnin(self, rng):
        # a zeta just above 0 forces detection at every full window: spacings N + w
        det = gw.Detector(_oracle_config(zeta=1e-300, w=3, n_burnin=5))
        detections = [e.t for x in rng.standard_normal((40, 5)) if (e := det.step(x))]
        assert detections[0] == 5 + 3
        gaps = np.diff(detections)
        assert np.all(gaps == 5 + 3)

    def test_event_invariant(self, rng):
        det = gw.Detector(_oracle_config(zeta=2.0, w=4))
        for x in rng.standard_normal((300, 5)):
            event = det.step(x)
            if event is not None:
                assert event.statistic >= event.zeta

    @pytest.mark.parametrize(
        "n_burnin, zeta",
        [(0, 1e9), (7, 1e9), (0, 3.0), (5, 3.0)],
        ids=["no_burnin", "burnin", "restarts", "burnin_restarts"],
    )
    def test_oracle_statistic_bitwise(self, rng, n_burnin, zeta):
        # every decision and every event statistic is bitwise that of
        # oracle_statistic on the window; the per-step trace is within 1e-12
        # relative of it (rolling Gram steps between exact ones)
        w = 6
        omega = gw.gen_chain_precision(5, 0.5)
        config = gw.DetectorConfig(
            p=5, w=w, zeta=zeta, n_burnin=n_burnin, batch=None, oracle_omega=omega
        )
        det = gw.Detector(config)
        xs = rng.standard_normal((120, 5))
        seen, events = [], []
        for x in xs:
            event = det.step(x)
            if event is not None:
                events.append(event)
            seen.append(det.last_statistic)
        detections = [event.t for event in events]
        if zeta < 1e9:
            assert len(detections) >= 3
        # the test at step t covers rows t-w+1..t once w rows are monitored
        # after the burn-in that follows the last detection before t
        for t, stat in enumerate(seen, start=1):
            t_last = max([d for d in detections if d < t], default=0)
            if t - t_last - n_burnin < w:
                assert stat is None
            else:
                exact = gw.oracle_statistic(omega, xs[t - w : t]).sup_norm
                assert (exact >= zeta) == (t in detections)
                assert abs(stat - exact) <= 1e-12 * exact
        for event in events:
            assert event.statistic == gw.oracle_statistic(omega, xs[event.t - w : event.t]).sup_norm
            assert event.statistic == seen[event.t - 1]

    def test_firing_exact_step_skips_the_recompute(self, rng):
        # a step that fires restarts at once, so its exact evaluation leaves the
        # scorer's transformed ring and Gram as they were; the first window after
        # the next burn-in is still evaluated exactly
        w, n_burnin, zeta = 6, 5, 3.0
        omega = gw.gen_chain_precision(5, 0.5)
        det = gw.Detector(
            gw.DetectorConfig(p=5, w=w, zeta=zeta, n_burnin=n_burnin, batch=None,
                              oracle_omega=omega)
        )
        recomputes, branches = [], set()
        scorer, exact = det._scorer, det._exact
        recompute = scorer.recompute

        def spy_recompute(y):
            recomputes.append(det.t)
            return recompute(y)

        def spy_exact():
            gram, ring = scorer._gram.copy(), scorer._ring.copy()
            before = len(recomputes)
            sup = exact()
            branches.add(sup >= zeta)
            if sup >= zeta:
                assert len(recomputes) == before
                assert np.array_equal(scorer._gram, gram)
                assert np.array_equal(scorer._ring, ring)
            else:
                assert recomputes[before:] == [det.t]
            return sup

        scorer.recompute, det._exact = spy_recompute, spy_exact
        xs = rng.standard_normal((200, 5))
        detections = 0
        for x in xs:
            detections += det.step(x) is not None
            if det.t - det.t_last - n_burnin == w:  # first test after a start or detection
                window = xs[det.t - w : det.t]
                assert det.last_statistic == gw.oracle_statistic(omega, window).sup_norm
        assert detections >= 3
        assert branches == {True, False}  # firing and quiet exact steps both ran

    @pytest.mark.parametrize(
        "oracle, scale",
        [(True, 1.0), (True, 1e6), (False, 1.0)],
        ids=["oracle", "oracle_rows_1e6", "plugin_batch"],
    )
    def test_decision_at_exact_statistic(self, oracle, scale):
        """With zeta set to the exact statistic at a step t* well into a stream
        the scorer has rolled through, the detector fires at t*; with zeta one
        ulp above, it does not. Each t* is a record: no earlier test reaches its value.
        Rows of size 1e6 put the rolling Gram's rounding error far above any
        fixed tolerance."""
        p, w, n_burnin, batch = 5, 6, 30, 20
        omega = gw.gen_chain_precision(p, 0.5)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        xs = scale * Generator(Philox(key=11)).standard_normal((400, p)) @ chol.T
        config = gw.DetectorConfig(
            p=p, w=w, zeta=1e30, n_burnin=n_burnin, batch=None if oracle else batch,
            oracle_omega=omega if oracle else None,
        )
        # the exact statistic of every test of a run that never fires, with the
        # estimate in force at that test (a batch refit follows its test)
        quiet = gw.Detector(config)
        records, best, refits = [], -np.inf, 0
        for t, x in enumerate(xs, start=1):
            estimate = quiet._omega
            quiet.step(x)
            if quiet.last_statistic is not None:
                window = xs[t - w : t]
                stat = (gw.oracle_statistic(omega, window) if oracle
                        else gw.plugin_statistic(estimate, window)).sup_norm
                refits += quiet._omega is not estimate
                if stat > best:
                    best = stat
                    if t > n_burnin + 3 * w:
                        records.append((t, stat))
        assert refits >= (0 if oracle else 10)
        assert len(records) >= 2
        for t_star, stat in records:
            for zeta, fires in ((stat, True), (np.nextafter(stat, np.inf), False)):
                det = gw.Detector(dataclasses.replace(config, zeta=zeta))
                events = [e for x in xs[:t_star] if (e := det.step(x))]
                if fires:
                    assert [e.t for e in events] == [t_star]
                    assert events[0].statistic == stat
                else:
                    assert events == []
                    assert det.last_statistic < zeta

    def test_huge_rows_keep_the_trace_exact(self, rng):
        # 1e6-valued rows enter and leave the rolling window below a huge zeta;
        # once they have left, the rolling Gram has lost their rounding error's
        # worth of precision, so the following steps are exact
        w = 6
        omega = gw.gen_chain_precision(5, 0.5)
        xs = rng.standard_normal((200, 5))
        xs[60] *= 1e6
        xs[130, 2] = -1e6
        det = gw.Detector(
            gw.DetectorConfig(p=5, w=w, zeta=1e13, n_burnin=0, batch=None, oracle_omega=omega)
        )
        for t, x in enumerate(xs, start=1):
            assert det.step(x) is None
            if t >= w:
                exact = gw.oracle_statistic(omega, xs[t - w : t]).sup_norm
                assert abs(det.last_statistic - exact) <= 1e-12 * exact

    def test_long_stream_drift_and_memory(self):
        """2e5 oracle steps at p=5, w=6: sampled rolling statistics stay within
        1e-12 relative of oracle_statistic on the same window, and the state
        does not grow with the stream (O(w p + p^2)). tracemalloc bounds the
        peak over a 2e4-step stretch against the first 1000 steps; over the
        untraced rest, the count of allocated blocks must not grow, which one
        object kept per step would break."""
        p, w, n, traced = 5, 6, 200_000, 21_000
        omega = gw.gen_chain_precision(p, 0.5)
        xs = list(Generator(Philox(key=4)).standard_normal((n, p)))  # rows made untraced
        det = gw.Detector(
            gw.DetectorConfig(p=p, w=w, zeta=1e9, n_burnin=0, batch=None, oracle_omega=omega)
        )
        worst = 0.0

        def steps(start, stop):
            nonlocal worst
            for t in range(start, stop + 1):
                det.step(xs[t - 1])
                if t % 997 == 0:
                    exact = gw.oracle_statistic(omega, np.array(xs[t - w : t])).sup_norm
                    worst = max(worst, abs(det.last_statistic - exact) / exact)

        tracemalloc.start()
        try:
            steps(1, 1000)
            early_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            steps(1001, traced)
            late_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gc.collect()
        blocks = sys.getallocatedblocks()
        steps(traced + 1, n)
        gc.collect()
        assert worst <= 1e-12
        assert late_peak <= early_peak + 16_384
        # a few blocks of allocator noise; one object kept per step adds 1.79e5
        assert sys.getallocatedblocks() <= blocks + 256

    def test_memory_bounded_across_detections(self):
        """2e4 oracle steps at p=5, w=6 with a zeta just above 0 fire 3333
        times; the detector keeps no record of them, so the traced memory
        after a warm-up does not grow with the number of detections."""
        p, w, n, warm = 5, 6, 20_000, 600
        omega = gw.gen_chain_precision(p, 0.5)
        xs = list(Generator(Philox(key=6)).standard_normal((n, p)))  # rows made untraced
        det = gw.Detector(
            gw.DetectorConfig(p=p, w=w, zeta=1e-300, n_burnin=0, batch=None, oracle_omega=omega)
        )
        fired = 0
        tracemalloc.start()
        try:
            for x in xs[:warm]:
                fired += det.step(x) is not None
            early = tracemalloc.get_traced_memory()[0]
            for x in xs[warm:]:
                fired += det.step(x) is not None
            late = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fired == n // w
        assert late <= early + 16_384

    def test_dimension_mismatch(self):
        det = gw.Detector(_oracle_config(p=5))
        with pytest.raises(DimensionMismatch):
            det.step(np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, rng, bad):
        det = gw.Detector(_oracle_config(p=5, w=4))
        for x in rng.standard_normal((4, 5)):
            det.step(x)
        stat = det.last_statistic
        x = rng.standard_normal(5)
        x[2] = bad
        with pytest.raises(NonFiniteSample):
            det.step(x)
        # the rejected sample leaves the detector as it was
        assert det.t == 4 and det.last_statistic == stat
        det.step(rng.standard_normal(5))
        assert math.isfinite(det.last_statistic)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_window_is_no_detection(self):
        # finite rows whose window statistic overflows: the step restarts as
        # after a detection, but raises instead of reporting an infinite one
        ones, huge = [1.0] * 3, [1e160] * 3
        config = gw.DetectorConfig(p=3, w=2, zeta=5.0, n_burnin=0, batch=None,
                                   oracle_omega=gw.gen_chain_precision(3, 0.5))
        with pytest.raises(NonFiniteSample, match="statistic at sample 3 is inf"):
            gw.run_offline(config, [ones, ones, huge])
        det = gw.Detector(config)
        assert det.step(ones) is None and det.step(ones) is None
        with pytest.raises(NonFiniteSample):
            det.step(huge)
        assert (det.t, det.t_last, det.last_statistic) == (3, 3, None)
        assert det.step(ones) is None and det.last_statistic is None
        assert det.step(ones) is None
        assert det.last_statistic == gw.oracle_statistic(config.oracle_omega,
                                                         np.array([ones, ones])).sup_norm

    @pytest.mark.parametrize("n_burnin", [0, 20])
    def test_oracle_mode_keeps_no_history(self, rng, n_burnin):
        det = gw.Detector(_oracle_config(p=10, w=5, n_burnin=n_burnin, batch=50))
        for i, x in enumerate(rng.standard_normal((2050, 10)), start=1):
            det.step(x)
            assert det.phase == ("burn_in" if i < n_burnin else "monitoring")
            assert len(det._rows) <= 5  # the window, and no history
        assert det.last_statistic is not None

    @pytest.mark.parametrize("oracle", [True, False])
    def test_reused_input_buffer(self, rng, oracle):
        # the detector keeps copies: a caller may refill one array every step
        omega = gw.gen_chain_precision(4, 0.4)
        config = gw.DetectorConfig(
            p=4, w=3, zeta=1e9, n_burnin=10, batch=4, oracle_omega=omega if oracle else None
        )
        xs = rng.standard_normal((30, 4)) @ gw.cholesky_factor(gw.invert_spd(omega.entries)).T
        fresh, reused = gw.Detector(config), gw.Detector(config)
        buf = np.empty(4)
        for x in xs:
            fresh.step(x.copy())
            buf[:] = x
            reused.step(buf)
            assert reused.last_statistic == fresh.last_statistic

    def test_batch_reestimation_schedule(self):
        # the estimate object changes exactly at every batch-th test
        rng = Generator(Philox(key=77))
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        config = gw.DetectorConfig(p=4, w=3, zeta=1e9, n_burnin=10, batch=4)
        det = gw.Detector(config)
        refit_steps = []
        prev = None
        for t, x in enumerate(rng.standard_normal((30, 4)) @ chol.T, start=1):
            det.step(x)
            cur = det._omega
            if prev is not None and cur is not prev and t > 10:
                refit_steps.append(t)
            prev = cur
        # tests begin at t=13 (burn-in 10 + window 3); refits every 4 tests
        assert refit_steps == [16, 20, 24, 28]

    @pytest.mark.parametrize("oracle", [True, False])
    def test_scale_is_computed_once_per_estimate(self, rng, monkeypatch, oracle):
        # exact steps pass the estimate's psi on: scale_entries runs once for
        # the oracle matrix and once per plug-in fit, never per exact step
        omega = gw.gen_chain_precision(4, 0.4)
        calls, fits, exacts = [], [], []
        for module in (detector_module, statistic_module):
            scale = module.scale_entries
            monkeypatch.setattr(module, "scale_entries",
                                lambda om, scale=scale: calls.append(1) or scale(om))
        estimate = detector_module.clime_estimate
        monkeypatch.setattr(detector_module, "clime_estimate",
                            lambda *args: fits.append(1) or estimate(*args))
        config = gw.DetectorConfig(p=4, w=3, zeta=1e9, n_burnin=10, batch=8,
                                   oracle_omega=omega if oracle else None)
        det = gw.Detector(config)
        exact = det._exact
        det._exact = lambda: exacts.append(det.t) or exact()
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        for x in rng.standard_normal((60, 4)) @ chol.T:
            det.step(x)
        assert len(fits) == (0 if oracle else 7)  # at t = 10, then 20, 28, ..., 60
        assert len(exacts) >= 5
        assert len(calls) == (1 if oracle else len(fits))

    def test_batch_none_keeps_estimate(self, rng):
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        config = gw.DetectorConfig(p=4, w=3, zeta=1e9, n_burnin=8, batch=None)
        det = gw.Detector(config)
        seen = set()
        for x in rng.standard_normal((40, 4)) @ chol.T:
            det.step(x)
            if det.phase == "monitoring":
                seen.add(id(det._omega))
        assert len(seen) == 1

    def test_failed_burnin_fit_restarts_burnin(self):
        # a 1e200 row at step 5 overflows the covariance of the fit at step 12
        rng = Generator(Philox(key=5))
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        zeta = gw.critical_value(0.05, 4, 4)
        det = gw.Detector(gw.DetectorConfig(p=4, w=4, zeta=zeta, n_burnin=12, batch=None))
        xs = rng.standard_normal((30, 4)) @ chol.T
        xs[4] = 1e200
        fitted_at = None
        for t, x in enumerate(xs, start=1):
            if t == 12:
                with np.errstate(over="ignore"), pytest.raises(NonFiniteSample):
                    det.step(x)
                continue
            det.step(x)
            if t == 13:
                assert det.phase == "burn_in"
            if fitted_at is None and det._omega is not None:
                fitted_at = t
        assert fitted_at == 24

    def test_failed_batch_refit_keeps_estimate(self, monkeypatch):
        rng = Generator(Philox(key=77))
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        det = gw.Detector(gw.DetectorConfig(p=4, w=3, zeta=1e9, n_burnin=10, batch=4))
        xs = rng.standard_normal((20, 4)) @ chol.T
        for x in xs[:15]:
            det.step(x)
        estimate = det._omega

        def infeasible(*args, **kwargs):
            raise Infeasible("no feasible point")

        monkeypatch.setattr(detector_module, "clime_estimate", infeasible)
        with pytest.raises(Infeasible):
            det.step(xs[15])  # the fourth test: batch refit
        assert det._omega is estimate
        monkeypatch.undo()
        # the next refit is due batch tests after the failed one, at t=20
        for x in xs[16:19]:
            det.step(x)
            assert det.last_statistic is not None
            assert det._omega is estimate
        det.step(xs[19])
        assert det._omega is not estimate

    def test_each_fit_reads_the_rows_since_the_last_restart(self, monkeypatch):
        # a plug-in fit gets every row since the last detection or failed
        # burn-in fit, in order; a failed batch refit keeps them all
        rng = Generator(Philox(key=3))
        omega = gw.gen_chain_precision(4, 0.4)
        chol = gw.cholesky_factor(gw.invert_spd(omega.entries))
        n_burnin, zeta = 10, gw.critical_value(0.05, 4, 3)
        det = gw.Detector(gw.DetectorConfig(p=4, w=3, zeta=zeta, n_burnin=n_burnin, batch=2))
        estimate, kept, fits = detector_module.clime_estimate, [], []

        def spy(samples, config):
            assert np.array_equal(samples, np.array(kept))
            fits.append(len(samples))
            if len(fits) in (1, 6):
                raise Infeasible("no feasible point")
            return estimate(samples, config)

        monkeypatch.setattr(detector_module, "clime_estimate", spy)
        detections = 0
        for x in rng.standard_normal((200, 4)) @ chol.T:
            kept.append(x)
            try:
                event = det.step(x)
            except Infeasible:
                event = None
                if fits[-1] == n_burnin:  # burn-in starts again from the next row
                    kept.clear()
            if event is not None:
                detections += 1
                kept.clear()
        assert detections >= 2
        assert fits[0] == n_burnin  # a failed burn-in fit
        assert n_burnin < fits[5] == fits[6] - 2  # a failed batch refit, then the next
        assert fits.count(n_burnin) >= 3 and len(fits) - fits.count(n_burnin) >= 3


class TestRunOffline:
    def test_empty_stream(self):
        events, trace = gw.run_offline(_oracle_config(), [])
        assert events == [] and trace == []

    def test_deterministic_replay(self, rng):
        xs = rng.standard_normal((120, 5))
        config = _oracle_config(zeta=3.0, w=4)
        a_events, a_trace = gw.run_offline(config, xs)
        b_events, b_trace = gw.run_offline(config, xs)
        assert a_events == b_events
        assert a_trace == b_trace

    def test_trace_alignment(self, rng):
        config = _oracle_config(zeta=1e9, w=4)
        _, trace = gw.run_offline(config, rng.standard_normal((10, 5)))
        assert all(math.isnan(v) for v in trace[:3])
        assert all(not math.isnan(v) for v in trace[3:])

    def test_planted_change_detected(self):
        # strong uniform change: signal sup = beta/sqrt(2), sqrt(w) * signal >> zeta
        pre = gw.gen_chain_precision(10, 0.5)
        post = gw.make_uniform_change(pre, 3.0)
        # stop at 90 samples: a second full window after the first detection
        # would re-trigger (the oracle matrix stays pre-change)
        sc = gw.ChangeScenario(omega_pre=pre, omega_post=post, t0=60, n_burnin=0, horizon=200)
        xs = gw.GaussianStream(sc, seed=8).take(90)
        zeta = gw.critical_value(1e-4, 10, 30)
        config = gw.DetectorConfig(
            p=10, w=30, zeta=zeta, n_burnin=0, batch=None, oracle_omega=pre
        )
        events, _ = gw.run_offline(config, xs)
        assert len(events) == 1
        assert 61 <= events[0].t <= 90
