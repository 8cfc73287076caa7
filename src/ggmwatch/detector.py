"""Sequential change detector: burn-in estimation, per-step sup-norm test,
batch re-estimation, and post-detection re-initialization.

The per-step statistic is computed by the same code path as
:func:`ggmwatch.statistic.oracle_statistic` / ``plugin_statistic`` on the
current window, so an oracle-mode detector reproduces those values
bit-for-bit. Batch re-estimates use every sample observed since the last
detection (an expanding window, burn-in samples included); only plug-in mode
keeps that history.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .clime import ClimeConfig, clime_estimate
from .errors import DimensionMismatch, InvalidConfig, NonFiniteSample
from .modelgen import PrecisionMatrix
from .statistic import SampleWindow, oracle_statistic, plugin_statistic
from .threshold import ThresholdSpec

__all__ = ["DetectorConfig", "DetectionEvent", "Detector", "run_offline"]


@dataclass(frozen=True)
class DetectorConfig:
    """Burn-in length, window, batch size and threshold for one detector.

    ``batch=None`` disables re-estimation. ``oracle_omega`` bypasses CLIME;
    in oracle mode ``n_burnin`` may be 0, in which case monitoring starts
    immediately.
    """

    n_burnin: int
    w: int
    batch: int | None
    threshold: ThresholdSpec
    clime: ClimeConfig = field(default_factory=ClimeConfig)
    oracle_omega: PrecisionMatrix | None = None

    @property
    def p(self) -> int:
        return self.threshold.p


@dataclass(frozen=True)
class DetectionEvent:
    """One rejection: sample index, statistic value, threshold used, and the
    number of monitored samples since the current monitoring phase began."""

    t: int
    statistic: float
    zeta: float
    delay_estimate: int


def _validate(config: DetectorConfig) -> None:
    if not config.threshold.resolved:
        raise InvalidConfig("threshold must be resolved (zeta is unset)")
    if config.w < 2:
        raise InvalidConfig(f"w must be >= 2, got {config.w}")
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
                f"oracle matrix dimension {config.oracle_omega.p} != threshold p {config.p}"
            )


class Detector:
    """Mutable state machine; strictly single-owner.

    ``phase`` is ``"burn_in"`` while collecting estimation samples and
    ``"monitoring"`` afterwards. ``last_statistic`` holds the sup-norm of the
    most recent evaluated test (None when no test ran this step).
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
        self._window: deque[np.ndarray] = deque(maxlen=config.w)
        self._history: list[np.ndarray] = []
        self._omega_hat: np.ndarray | None = None
        self._monitor_start = 0
        if config.oracle_omega is not None and config.n_burnin == 0:
            self._enter_monitoring()
        else:
            self.phase = "burn_in"

    def _enter_monitoring(self) -> None:
        if self.config.oracle_omega is not None:
            self._omega_hat = self.config.oracle_omega.entries
        else:
            est = clime_estimate(np.array(self._history), self.config.clime)
            self._omega_hat = est.omega_hat
        self.phase = "monitoring"
        self._window.clear()
        self._monitor_start = self.t + 1
        self.b = 0

    def _evaluate(self):
        window = SampleWindow.from_samples(np.array(self._window))
        if self.config.oracle_omega is not None:
            return oracle_statistic(self.config.oracle_omega, window)
        return plugin_statistic(self._omega_hat, window)

    def step(self, x) -> DetectionEvent | None:
        """Consume one sample; returns a DetectionEvent when the test fires."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.config.p,):
            raise DimensionMismatch(f"sample shape {x.shape} != ({self.config.p},)")
        if not np.isfinite(x).all():
            raise NonFiniteSample(f"sample {self.t + 1} has a non-finite entry")
        self.t += 1
        self.last_statistic = None
        if self.config.oracle_omega is None:
            self._history.append(x)  # only plug-in fits read the history
        if self.phase == "burn_in":
            if self.t - self.t_last >= self.config.n_burnin:
                self._enter_monitoring()
            return None
        self._window.append(x)
        if len(self._window) < self.config.w:
            return None
        stat = self._evaluate()
        self.last_statistic = stat.sup_norm
        zeta = self.config.threshold.zeta
        if stat.sup_norm >= zeta:
            event = DetectionEvent(
                t=self.t,
                statistic=stat.sup_norm,
                zeta=zeta,
                delay_estimate=self.t - self._monitor_start + 1,
            )
            self.t_last = self.t
            self.detections.append(self.t)
            self.events.append(event)
            self._window.clear()
            self._history = []
            self.b = 0
            if self.config.oracle_omega is not None and self.config.n_burnin == 0:
                self._enter_monitoring()
            else:
                self.phase = "burn_in"
            return event
        self.b += 1
        if self.config.batch is not None and self.b >= self.config.batch:
            if self.config.oracle_omega is None:
                est = clime_estimate(np.array(self._history), self.config.clime)
                self._omega_hat = est.omega_hat
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
