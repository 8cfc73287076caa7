"""Sequential change detector: burn-in estimation, per-step sup-norm test,
batch re-estimation, and post-detection re-initialization.

A :class:`DetectorConfig` stores each input once (``p``, ``w``, the critical
value ``zeta``, burn-in, batch, CLIME tuning, oracle matrix); a test fires
when the sup-norm of the window's deviation reaches ``zeta``.

All phase state follows from the step count ``t`` and the last detection
``t_last``: with ``m = t - t_last - n_burnin``, steps with ``m < 0`` are
burn-in, step ``m == 0`` fits the estimate, and every step with ``m >= 1`` is
monitored. Monitored row ``m`` goes to slot ``(m - 1) % w`` of one ``(w, p)``
ring, and from ``m >= w`` on each step tests the last ``w`` rows.

A test costs O(p^2): a :class:`ggmwatch.kernels.RollingSupnorm` rolls the
window's Gram matrix (see :mod:`ggmwatch.kernels` for its error bound).
Where it gives no value, the step is *exact*: it passes the last ``w`` rows,
in time order, to :func:`ggmwatch.statistic.oracle_statistic` /
``plugin_statistic``. Decisions and detection statistics are bit-for-bit
those of an exact evaluation at every step.

Plug-in fits (at ``m == 0`` and every ``batch`` tests) use every sample
observed since the last detection (an expanding window, burn-in samples
included); only plug-in mode keeps that history. A failed fit (including an
estimate with a nonpositive diagonal) raises its error after leaving a
consistent state: a failed burn-in fit starts burn-in again from the next
row, and a failed batch refit keeps the previous estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import ddot

from .clime import ClimeConfig, clime_estimate
from .errors import (
    DimensionMismatch,
    GgmWatchError,
    InvalidConfig,
    NonFiniteSample,
    NonPositiveDiagonal,
)
from .kernels import RollingSupnorm
from .modelgen import PrecisionMatrix
from .statistic import oracle_statistic, plugin_statistic, scale_entries

__all__ = ["DetectorConfig", "DetectionEvent", "Detector", "run_offline"]


@dataclass(frozen=True)
class DetectorConfig:
    """Dimension, window, critical value, burn-in length and batch size of one
    detector.

    ``zeta`` is the critical value itself, e.g. from
    :func:`ggmwatch.threshold.critical_value` at this ``p`` and ``w``.
    ``batch=None`` disables re-estimation. ``oracle_omega`` bypasses CLIME;
    in oracle mode ``n_burnin`` may be 0, in which case monitoring starts
    immediately.
    """

    p: int
    w: int
    zeta: float
    n_burnin: int
    batch: int | None
    clime: ClimeConfig = field(default_factory=ClimeConfig)
    oracle_omega: PrecisionMatrix | None = None


@dataclass(frozen=True)
class DetectionEvent:
    """One rejection: sample index, statistic value, threshold used, and the
    number of monitored samples since the current monitoring phase began."""

    t: int
    statistic: float
    zeta: float
    delay_estimate: int


def _validate(config: DetectorConfig) -> None:
    if config.w < 2:
        raise InvalidConfig(f"w must be >= 2, got {config.w}")
    if config.zeta is None or not 0.0 < config.zeta < math.inf:
        raise InvalidConfig(f"zeta must be finite and positive, got {config.zeta}")
    if config.batch is not None and config.batch < 1:
        raise InvalidConfig(f"batch must be >= 1 or None, got {config.batch}")
    if config.oracle_omega is None:
        if config.n_burnin < 2:
            raise InvalidConfig(f"n_burnin must be >= 2, got {config.n_burnin}")
    else:
        if config.n_burnin < 0:
            raise InvalidConfig("n_burnin must be nonnegative")
        if config.oracle_omega.p != config.p:
            raise InvalidConfig(
                f"oracle matrix dimension {config.oracle_omega.p} != detector p {config.p}"
            )


class Detector:
    """Mutable state machine; strictly single-owner.

    ``phase`` is ``"burn_in"`` while collecting estimation samples and
    ``"monitoring"`` from the fit step on. ``last_statistic`` holds the
    sup-norm of the most recent evaluated test (None when no test ran this
    step). ``b`` counts tests since the last fit or detection.
    """

    def __init__(self, config: DetectorConfig):
        _validate(config)
        self.config = config
        self.t = 0
        self.t_last = 0
        self.detections: list[int] = []
        self.events: list[DetectionEvent] = []
        self.b = 0
        self.last_statistic: float | None = None
        p, w = config.p, config.w
        self._ring = np.empty((w, p))
        self._scorer = RollingSupnorm(p, w, config.zeta)
        self._history: list[np.ndarray] = []
        self._omega_hat: np.ndarray | None = None
        if config.oracle_omega is not None:
            self._set_estimate(config.oracle_omega.entries)

    @property
    def phase(self) -> str:
        return "burn_in" if self.t - self.t_last < self.config.n_burnin else "monitoring"

    def _set_estimate(self, omega: np.ndarray) -> None:
        """Cache what a test needs of the estimate ``omega``; the next test is exact."""
        if np.any(omega.diagonal() <= 0.0):
            raise NonPositiveDiagonal("plug-in estimate has a nonpositive diagonal entry")
        self._omega = omega
        self._scorer.set_estimate(omega, scale_entries(omega))

    def _refit(self) -> None:
        if self.config.oracle_omega is None:  # only plug-in fits read the history
            omega_hat = clime_estimate(np.array(self._history), self.config.clime).omega_hat
            self._set_estimate(omega_hat)
            self._omega_hat = omega_hat

    def _restart(self) -> None:
        """Begin a new burn-in with the next row."""
        self.t_last = self.t
        self._history = []
        self.b = 0
        self._scorer.reset()

    def _exact(self, m: int) -> float:
        """Sup-norm of the window ending at monitored row ``m``, evaluated
        from the window; unless it reaches ``zeta`` (the step then restarts),
        the Gram matrix is recomputed with it."""
        i = m % self.config.w
        window = np.concatenate((self._ring[i:], self._ring[:i]))
        if self.config.oracle_omega is not None:
            stat = oracle_statistic(self.config.oracle_omega, window)
        else:
            stat = plugin_statistic(self._omega_hat, window)
        if not stat.sup_norm >= self.config.zeta:  # nan included: the step does not fire
            self._scorer.rebuild(self._ring @ self._omega)
        return stat.sup_norm

    def step(self, x) -> DetectionEvent | None:
        """Consume one sample; returns a DetectionEvent when the test fires."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.config.p,):
            raise DimensionMismatch(f"sample shape {x.shape} != ({self.config.p},)")
        sq = ddot(x, x)  # not finite when x holds a nan or an inf, or overflows
        if not math.isfinite(sq) and not np.isfinite(x).all():
            raise NonFiniteSample(f"sample {self.t + 1} has a non-finite entry")
        self.t += 1
        self.last_statistic = None
        cfg = self.config
        if cfg.oracle_omega is None:
            self._history.append(x.copy())  # the caller may reuse its buffer
        m = self.t - self.t_last - cfg.n_burnin
        if m == 0:
            try:
                self._refit()
            except GgmWatchError:  # Infeasible, SolverStall, NonFiniteSample, NonPositiveDiagonal
                self._restart()
                raise
        if m <= 0:
            return None
        w = cfg.w
        slot = (m - 1) % w
        sup = self._scorer.push(slot, None if self._scorer.stale else x @ self._omega, sq)
        self._ring[slot] = x
        if m < w:
            return None
        if sup is None:
            sup = self._exact(m)
        self.last_statistic = sup
        zeta = cfg.zeta
        if sup >= zeta:
            event = DetectionEvent(t=self.t, statistic=sup, zeta=zeta, delay_estimate=m)
            self.detections.append(self.t)
            self.events.append(event)
            self._restart()
            return event
        self.b += 1
        if cfg.batch is not None and self.b >= cfg.batch:
            self.b = 0  # reset even when the refit below raises
            self._refit()
        return None


def run_offline(config: DetectorConfig, stream) -> tuple[list[DetectionEvent], list[float]]:
    """Feed a finite stream through a fresh detector.

    Returns the detection events and a per-step trace of the evaluated
    statistic (NaN on steps where no test ran).
    """
    det = Detector(config)
    trace: list[float] = []
    for x in stream:
        det.step(x)
        trace.append(math.nan if det.last_statistic is None else det.last_statistic)
    return det.events, trace
