"""Sequential change detector: burn-in estimation, per-step sup-norm test,
batch re-estimation, and post-detection re-initialization.

A :class:`DetectorConfig` stores each input once (``p``, ``w``, the critical
value ``zeta``, burn-in, batch, CLIME tuning, oracle matrix); a test fires
when the sup-norm of the window's deviation reaches ``zeta``.

All phase state follows from the step count ``t`` and the last detection
``t_last``: with ``m = t - t_last - n_burnin``, steps with ``m < 0`` are
burn-in, step ``m == 0`` fits the estimate, and every step with ``m >= 1`` is
monitored. Monitored row ``m`` goes to slot ``(m - 1) % w`` of one ``(w, p)``
ring, and from ``m >= w`` on each step passes the last ``w`` rows, in time
order, as one ``(w, p)`` array to :func:`ggmwatch.statistic.oracle_statistic`
/ ``plugin_statistic``, so an oracle-mode detector reproduces those values
bit-for-bit. Plug-in fits (at ``m == 0`` and every ``batch`` tests) use every
sample observed since the last detection (an expanding window, burn-in
samples included); only plug-in mode keeps that history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clime import ClimeConfig, clime_estimate
from .errors import DimensionMismatch, InvalidConfig, NonFiniteSample
from .modelgen import PrecisionMatrix
from .statistic import oracle_statistic, plugin_statistic

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
        self._ring = np.empty((config.w, config.p))
        self._history: list[np.ndarray] = []
        self._omega_hat: np.ndarray | None = None

    @property
    def phase(self) -> str:
        return "burn_in" if self.t - self.t_last < self.config.n_burnin else "monitoring"

    def _refit(self) -> None:
        if self.config.oracle_omega is None:  # only plug-in fits read the history
            self._omega_hat = clime_estimate(np.array(self._history), self.config.clime).omega_hat

    def step(self, x) -> DetectionEvent | None:
        """Consume one sample; returns a DetectionEvent when the test fires."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.config.p,):
            raise DimensionMismatch(f"sample shape {x.shape} != ({self.config.p},)")
        if not np.isfinite(x).all():
            raise NonFiniteSample(f"sample {self.t + 1} has a non-finite entry")
        self.t += 1
        self.last_statistic = None
        cfg = self.config
        if cfg.oracle_omega is None:
            self._history.append(x.copy())  # the caller may reuse its buffer
        m = self.t - self.t_last - cfg.n_burnin
        if m == 0:
            self._refit()
        if m <= 0:
            return None
        w = cfg.w
        self._ring[(m - 1) % w] = x
        if m < w:
            return None
        i = m % w
        window = np.concatenate((self._ring[i:], self._ring[:i]))
        if cfg.oracle_omega is not None:
            stat = oracle_statistic(cfg.oracle_omega, window)
        else:
            stat = plugin_statistic(self._omega_hat, window)
        self.last_statistic = stat.sup_norm
        zeta = cfg.zeta
        if stat.sup_norm >= zeta:
            event = DetectionEvent(t=self.t, statistic=stat.sup_norm, zeta=zeta, delay_estimate=m)
            self.t_last = self.t
            self.detections.append(self.t)
            self.events.append(event)
            self._history = []
            self.b = 0
            return event
        self.b += 1
        if cfg.batch is not None and self.b >= cfg.batch:
            self._refit()
            self.b = 0
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
