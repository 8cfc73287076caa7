"""Sequential change detector: burn-in estimation, per-step sup-norm test,
batch re-estimation, and post-detection re-initialization.

A :class:`DetectorConfig` stores each input once (``p``, ``w``, the critical
value ``zeta``, burn-in, batch, CLIME tuning, oracle matrix); a test fires
when the sup-norm of the window's deviation reaches ``zeta``.

All phase state follows from the step count ``t`` and the last detection
``t_last``: with ``m = t - t_last - n_burnin``, steps with ``m < 0`` are
burn-in, step ``m == 0`` fits the estimate, and every step with ``m >= 1`` is
monitored; from ``m >= w`` on each step tests the last ``w`` rows. The
detector keeps one copy of each row it needs in one list.

A test costs O(p^2): a :class:`ggmwatch.kernels.RollingSupnorm` rolls the
window's centred Gram matrix (see :mod:`ggmwatch.kernels` for its error
bound). Where it gives no value, the step is *exact*: it passes the last
``w`` rows, in time order, to :func:`ggmwatch.statistic.oracle_statistic` /
``plugin_statistic``, with the scale ``psi`` computed once per estimate.
Decisions and detection statistics are bit-for-bit those of an exact
evaluation at every step.

Plug-in fits (at ``m == 0``, and after a test that does not fire whenever its
number ``m - w + 1`` is a multiple of ``batch``) use every sample
observed since the last detection (an expanding window, burn-in samples
included); oracle mode keeps only the last ``w``. A failed fit (including an
estimate with a nonpositive diagonal) raises its error after leaving a
consistent state: a failed burn-in fit starts burn-in again from the next
row, and a failed batch refit keeps the previous estimate. A window whose
rows are so large that its statistic overflows is no detection: the step
restarts as after one and raises NonFiniteSample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bindings import fblas
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

ddot = fblas.ddot

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
    if config.p < 1:
        raise InvalidConfig(f"p must be >= 1, got {config.p}")
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
    step). The detector keeps no record of its detections: callers keep the
    events that :meth:`step` returns.
    """

    def __init__(self, config: DetectorConfig):
        _validate(config)
        self.config = config
        self.t = 0
        self.t_last = 0
        self.last_statistic: float | None = None
        self._scorer = RollingSupnorm(config.p, config.w, config.zeta)
        # since the last restart: every row in plug-in mode, the last w in oracle mode
        self._rows: list[np.ndarray] = []
        self._omega: np.ndarray | None = None
        self._psi: np.ndarray | None = None  # scale_entries(self._omega)
        if config.oracle_omega is not None:
            self._set_estimate(config.oracle_omega.entries)

    @property
    def phase(self) -> str:
        return "burn_in" if self.t - self.t_last < self.config.n_burnin else "monitoring"

    def _set_estimate(self, omega: np.ndarray) -> None:
        """Cache what a test needs of the estimate ``omega``; the next test is exact."""
        if np.any(omega.diagonal() <= 0.0):
            raise NonPositiveDiagonal("plug-in estimate has a nonpositive diagonal entry")
        self._omega, self._psi = omega, scale_entries(omega)
        self._scorer.set_estimate(omega, self._psi)

    def _refit(self) -> None:
        if self.config.oracle_omega is None:  # a plug-in fit reads every row kept
            fit = clime_estimate(np.array(self._rows), self.config.clime)
            self._set_estimate(fit.omega_hat)

    def _restart(self) -> None:
        """Begin a new burn-in with the next row."""
        self.t_last = self.t
        self._rows = []
        self._scorer.reset()

    def _exact(self) -> float:
        """Sup-norm of the window of the last ``w`` rows, evaluated from the
        window in time order; unless it reaches ``zeta`` (the step then
        restarts), the scorer restarts from the same window's Gram. A value
        that is not finite restarts the detector and raises NonFiniteSample."""
        window = np.array(self._rows[-self.config.w :])
        if self.config.oracle_omega is not None:
            sup = oracle_statistic(self.config.oracle_omega, window, psi=self._psi).sup_norm
        else:
            sup = plugin_statistic(self._omega, window, psi=self._psi).sup_norm
        if not math.isfinite(sup):
            self._restart()
            raise NonFiniteSample(f"statistic at sample {self.t} is {sup}; values too large")
        if sup < self.config.zeta:
            self._scorer.recompute(window @ self._omega)
        return sup

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
        cfg, w = self.config, self.config.w
        self._rows.append(x.copy())  # the caller may reuse its buffer
        if cfg.oracle_omega is not None and len(self._rows) > w:
            del self._rows[0]
        m = self.t - self.t_last - cfg.n_burnin
        if m == 0:
            try:
                self._refit()
            except GgmWatchError:  # Infeasible, SolverStall, NonFiniteSample, NonPositiveDiagonal
                self._restart()
                raise
        if m <= 0:
            return None
        sup = self._scorer.push(None if self._scorer.stale else x @ self._omega, sq)
        if m < w:
            return None
        if sup is None:
            sup = self._exact()
        self.last_statistic = sup
        zeta = cfg.zeta
        if sup >= zeta:
            self._restart()
            return DetectionEvent(t=self.t, statistic=sup, zeta=zeta, delay_estimate=m)
        if cfg.batch is not None and (m - w + 1) % cfg.batch == 0:
            self._refit()
        return None


def run_offline(config: DetectorConfig, stream) -> tuple[list[DetectionEvent], list[float]]:
    """Feed a finite stream through a fresh detector.

    Returns the detection events and a per-step trace of the evaluated
    statistic (NaN on steps where no test ran).
    """
    det = Detector(config)
    events: list[DetectionEvent] = []
    trace: list[float] = []
    for x in stream:
        event = det.step(x)
        if event is not None:
            events.append(event)
        trace.append(math.nan if det.last_statistic is None else det.last_statistic)
    return events, trace
