"""Standardized deviation statistics for windows of transformed samples.

The deviation of a window ``X_1..X_w`` from a precision matrix ``omega`` is

    E = sum_r (Y_r Y_r' - omega) / sqrt(w) * psi,    Y_r = omega X_r,

with the entry-wise scale ``psi[u, v] = (omega[u,u] omega[v,v] + omega[u,v]^2)^(-1/2)``
(the inverse standard deviation of each entry of the window's second moment,
by Isserlis' theorem). The oracle, plug-in and rolling statistics all evaluate
it with :func:`ggmwatch.kernels.deviation`, and the oracle and plug-in share
one code path, so feeding the true precision matrix to the plug-in gives
bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveDiagonal
from .kernels import deviation
from .modelgen import PrecisionMatrix
from .threshold import ThresholdSpec

__all__ = [
    "SampleWindow",
    "ScaleMatrix",
    "DeviationMatrix",
    "ChangeSignal",
    "RollingWindow",
    "scale_matrix",
    "scale_entries",
    "oracle_statistic",
    "plugin_statistic",
    "change_signal",
    "detectability_margin",
]


@dataclass(frozen=True)
class SampleWindow:
    """The ``w`` most recent p-dimensional observations, oldest first."""

    data: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "SampleWindow":
        d = np.array(samples, dtype=np.float64)
        if d.ndim != 2:
            raise DimensionMismatch(f"expected a (w, p) array, got shape {d.shape}")
        d.flags.writeable = False
        return cls(data=d)

    @property
    def w(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ScaleMatrix:
    """Entry-wise standardization factors of the window second moment."""

    entries: np.ndarray


@dataclass(frozen=True)
class DeviationMatrix:
    """Standardized deviation matrix with its sup-norm and window length."""

    entries: np.ndarray
    sup_norm: float
    w: int


@dataclass(frozen=True)
class ChangeSignal:
    """Expected per-sample deviation under a covariance shift."""

    entries: np.ndarray
    sup_norm: float


def _entries_of(m) -> np.ndarray:
    return m.entries if isinstance(m, PrecisionMatrix) else np.asarray(m, dtype=np.float64)


def scale_entries(omega: np.ndarray) -> np.ndarray:
    """Array form of :func:`scale_matrix` (used by hot paths)."""
    d = omega.diagonal()
    return 1.0 / np.sqrt(np.outer(d, d) + omega * omega)


def scale_matrix(omega) -> ScaleMatrix:
    return ScaleMatrix(entries=scale_entries(_entries_of(omega)))


def _deviation(gram: np.ndarray, w: int, omega: np.ndarray, psi: np.ndarray) -> DeviationMatrix:
    e = deviation(gram, w, omega, psi)
    return DeviationMatrix(entries=e, sup_norm=float(np.abs(e).max()), w=w)


def _window_deviation(xs: np.ndarray, omega: np.ndarray) -> DeviationMatrix:
    y = xs @ omega
    return _deviation(y.T @ y, xs.shape[0], omega, scale_entries(omega))


def oracle_statistic(omega: PrecisionMatrix, window: SampleWindow) -> DeviationMatrix:
    """Standardized deviation of a window under a known precision matrix.

    Invariant under permutations of the window's samples; equivariant under
    simultaneous node relabeling of ``omega`` and the samples.
    """
    om = _entries_of(omega)
    if window.p != om.shape[0]:
        raise DimensionMismatch(
            f"window dimension {window.p} != matrix dimension {om.shape[0]}"
        )
    return _window_deviation(window.data, om)


def plugin_statistic(omega_hat, window: SampleWindow) -> DeviationMatrix:
    """Same formula with an estimated precision matrix substituted.

    ``omega_hat`` must be symmetric with strictly positive diagonal; positive
    definiteness is not required.
    """
    om = _entries_of(omega_hat)
    if window.p != om.shape[0]:
        raise DimensionMismatch(
            f"window dimension {window.p} != matrix dimension {om.shape[0]}"
        )
    if np.any(om.diagonal() <= 0.0):
        raise NonPositiveDiagonal("plug-in estimate has a nonpositive diagonal entry")
    return _window_deviation(window.data, om)


def change_signal(omega_pre: PrecisionMatrix, sigma_post: np.ndarray) -> ChangeSignal:
    """Per-sample mean shift of the statistic when the covariance becomes
    ``sigma_post``: ``(omega sigma_post omega - omega) * psi``."""
    om = _entries_of(omega_pre)
    sig = np.asarray(sigma_post, dtype=np.float64)
    if sig.shape != om.shape:
        raise DimensionMismatch(
            f"covariance shape {sig.shape} != precision shape {om.shape}"
        )
    e = (om @ sig @ om - om) * scale_entries(om)
    return ChangeSignal(entries=e, sup_norm=float(np.abs(e).max()))


def detectability_margin(
    signal: ChangeSignal,
    threshold: ThresholdSpec,
    w: int,
    d_max: int,
    alpha_min: float,
    slack_coeff: float,
) -> float:
    """Signed slack of the sufficient detection condition.

    ``margin = |signal| - sqrt(zeta^2 / w) - slack_coeff * (d_max^2 / alpha_min) * sqrt(log p / w)``.
    A positive margin is a diagnostic that the change is comfortably
    detectable for the supplied constant, not a guarantee.
    """
    if not threshold.resolved:
        raise ValueError("threshold must be resolved before computing a margin")
    if w < 1:
        raise ValueError("w must be >= 1")
    zeta = threshold.zeta
    penalty = slack_coeff * (d_max**2 / alpha_min) * math.sqrt(math.log(threshold.p) / w)
    return signal.sup_norm - math.sqrt(zeta * zeta / w) - penalty


class RollingWindow:
    """Single-owner ring buffer with an O(p^2)-per-sample running statistic.

    ``statistic()`` standardizes the running sum maintained by rank-1
    add/subtract updates; ``statistic_full()`` recomputes from the buffered
    samples (the drift guard: both must agree to ~1e-9).
    """

    def __init__(self, omega_hat, w: int):
        om = _entries_of(omega_hat)
        if np.any(om.diagonal() <= 0.0):
            raise NonPositiveDiagonal("estimate has a nonpositive diagonal entry")
        if w < 1:
            raise ValueError("w must be >= 1")
        self.w = int(w)
        self._omega = om
        self._psi = scale_entries(om)
        p = om.shape[0]
        self._ring = np.zeros((w, p))
        self._sum = np.zeros((p, p))
        self._pos = 0
        self._count = 0

    @property
    def is_full(self) -> bool:
        return self._count >= self.w

    def push(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._omega.shape[0],):
            raise DimensionMismatch(
                f"sample shape {x.shape} != ({self._omega.shape[0]},)"
            )
        y = self._omega @ x
        if self._count >= self.w:
            old = self._ring[self._pos]
            self._sum -= np.outer(old, old)
        self._ring[self._pos] = y
        self._sum += np.outer(y, y)
        self._pos = (self._pos + 1) % self.w
        self._count += 1

    def clear(self) -> None:
        self._ring[:] = 0.0
        self._sum[:] = 0.0
        self._pos = 0
        self._count = 0

    def statistic(self) -> DeviationMatrix:
        if not self.is_full:
            raise ValueError("window not yet full")
        return _deviation(self._sum, self.w, self._omega, self._psi)

    def statistic_full(self) -> DeviationMatrix:
        if not self.is_full:
            raise ValueError("window not yet full")
        return _deviation(self._ring.T @ self._ring, self.w, self._omega, self._psi)
