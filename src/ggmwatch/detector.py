"""Sequential change detector: burn-in estimation, per-step sup-norm test,
batch re-estimation, and post-detection re-initialization.

A :class:`DetectorConfig` stores each input once (``p``, ``w``, the critical
value ``zeta``, burn-in, batch, CLIME tuning, oracle matrix); a test fires
when the sup-norm of the window's deviation reaches ``zeta``.

All phase state follows from the step count ``t`` and the last detection
``t_last``: with ``m = t - t_last - n_burnin``, steps with ``m < 0`` are
burn-in, step ``m == 0`` fits the estimate, and every step with ``m >= 1`` is
monitored. Monitored row ``m`` goes to slot ``(m - 1) % w`` of one ``(w, p)``
ring, its transform ``x @ omega`` to the same slot of a second ring, and from
``m >= w`` on each step tests the last ``w`` rows.

A test costs O(p^2): :func:`ggmwatch.kernels.roll_supnorm` slides the
window's Gram matrix by the new row and the dropped one. Rolling sums gather
rounding error, so a step is *exact* instead, and passes the last ``w`` rows,
in time order, as one ``(w, p)`` array to
:func:`ggmwatch.statistic.oracle_statistic` / ``plugin_statistic``, on the
first full window after a start, fit or detection, after ``w`` rolling steps,
and whenever the rolling sup-norm is not finite or comes within an error
bound of ``zeta``. The bound grows with the magnitude of every row the
rolling Gram has seen since its last exact recompute, so a rolling step
provably falls short of ``zeta`` and every decision, and every detection
event's statistic, is bit-for-bit that of an exact evaluation at every step.
``last_statistic`` is exact on exact steps and within about 1e-12 relative
in between; to keep it so, a step is also exact once the rows that have left
the window since the last exact Gram outweigh (in squared magnitude) three
times those in it, as after a huge outlier leaves.

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
from .kernels import roll_supnorm
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
        self._yring = np.empty((w, p))  # the ring's rows times the estimate
        self._sq = [0.0] * w  # squared 2-norm of each ring row
        # Y'Y of the yring rows; like every (p, p) array a test reads, it is
        # Fortran-ordered, the layout in which BLAS updates it in place
        self._gram = np.empty((p, p), order="F")
        self._scratch = np.empty((p, p), order="F")
        self._rolled = w  # rolling steps since the last exact Gram; w forces an exact step
        self._mass = 0.0  # sum of |x|_2^2 over the rows the Gram has seen since then
        self._window = 0.0  # and over the rows in the window
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
        p, w = self.config.p, self.config.w
        self._omega = omega
        self._w_omega = np.asfortranarray(w * omega)
        self._sqrt_w = np.sqrt(w)
        self._psi = np.asfortranarray(scale_entries(omega))
        # Error bound of a rolling sup-norm. For y = x @ omega, |y|_inf and the
        # entries of |x| @ |omega| are at most |x|_2 * c, with c the largest
        # column 2-norm of omega. Counting the rounding of the transforms, the
        # Gram sums, the 2 * rolled rank-one updates and the deviation,
        # |rolling - exact| <= 4 u (p + w + rolled + 2) (c^2 mass + w max|omega|)
        # * max(psi) / sqrt(w) to first order in u = eps / 2, where mass sums
        # |x|_2^2 over the window of the last exact Gram and every row added
        # since; _roll takes four times that.
        self._col2 = float((omega * omega).sum(axis=0).max())
        self._w_omega_max = float(np.abs(self._w_omega).max())
        self._tol = 8.0 * np.finfo(np.float64).eps * float(self._psi.max()) / float(self._sqrt_w)
        self._terms = p + w + 2
        self._rolled = w

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
        self._rolled = self.config.w

    def _roll(self, slot: int, x: np.ndarray, sq: float) -> float | None:
        """Rolling sup-norm of the window with ``x`` in ``slot``, or None where
        it may not stand in for the exact one: when it is not finite, when its
        error bound reaches ``zeta``, or when rows that have left the window
        were so large that the rolling Gram kept little precision."""
        y = x @ self._omega
        sup = roll_supnorm(
            self._gram, y, self._yring[slot], self._w_omega, self._sqrt_w, self._psi,
            self._scratch,
        )
        self._yring[slot] = y
        self._rolled += 1
        self._mass += sq
        self._window += sq - self._sq[slot]
        if self._mass > 4.0 * self._window:
            return None
        bound = (self._tol * (self._terms + self._rolled)
                 * (self._col2 * self._mass + self._w_omega_max))
        return sup if sup + bound < self.config.zeta else None  # False for nan

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
            self._rebuild()
        return stat.sup_norm

    def _rebuild(self) -> None:
        """Recompute the transformed ring and the Gram from the raw ring."""
        np.matmul(self._ring, self._omega, out=self._yring)
        self._gram[...] = self._yring.T @ self._yring
        self._rolled = 0
        self._mass = self._window = sum(self._sq)

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
        sup = self._roll(slot, x, sq) if self._rolled < w else None
        self._ring[slot] = x
        self._sq[slot] = sq
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
