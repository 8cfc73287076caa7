"""Standardized deviation statistics for windows of transformed samples.

The deviation of a window ``X_1..X_w`` from a precision matrix ``omega`` is

    E = sum_r (Y_r Y_r' - omega) / sqrt(w) * psi,    Y_r = omega X_r,

with the entry-wise scale ``psi[u, v] = (omega[u,u] omega[v,v] + omega[u,v]^2)^(-1/2)``
(the inverse standard deviation of each entry of the window's second moment,
by Isserlis' theorem). The oracle and plug-in statistics evaluate it with
:func:`ggmwatch.kernels.deviation` through one code path, so feeding the true
precision matrix to the plug-in gives bit-identical output. Both take an
optional ``psi``: a caller that tests many windows against one estimate, as
the detector does, computes ``scale_entries`` once and passes it on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveDiagonal
from .kernels import deviation
from .modelgen import PrecisionMatrix, _as_array

__all__ = [
    "DeviationMatrix",
    "scale_entries",
    "oracle_statistic",
    "plugin_statistic",
    "change_signal",
]


@dataclass(frozen=True)
class DeviationMatrix:
    """Standardized deviation matrix with its sup-norm: of a window, or the
    expected per-sample deviation under a change (:func:`change_signal`)."""

    entries: np.ndarray
    sup_norm: float


def scale_entries(omega: np.ndarray) -> np.ndarray:
    """Entry-wise standardization factors ``psi`` of the window second moment."""
    d = omega.diagonal()
    return 1.0 / np.sqrt(np.outer(d, d) + omega * omega)


def _window_deviation(xs, omega: np.ndarray, psi: np.ndarray | None) -> DeviationMatrix:
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a (w, p) array, got shape {x.shape}")
    if x.shape[1] != omega.shape[0]:
        raise DimensionMismatch(
            f"window dimension {x.shape[1]} != matrix dimension {omega.shape[0]}"
        )
    w = x.shape[0]
    y = x @ omega
    if psi is None:
        psi = scale_entries(omega)
    e = deviation(y.T @ y, w * omega, psi / np.sqrt(w))
    return DeviationMatrix(entries=e, sup_norm=float(np.abs(e).max()))


def oracle_statistic(omega: PrecisionMatrix, xs, psi: np.ndarray | None = None) -> DeviationMatrix:
    """Standardized deviation of a ``(w, p)`` window (oldest row first) under a
    known precision matrix. ``psi``, when given, must be
    ``scale_entries(omega)``; it is computed when not.

    Invariant under permutations of the window's samples; equivariant under
    simultaneous node relabeling of ``omega`` and the samples.
    """
    return _window_deviation(xs, _as_array(omega), psi)


def plugin_statistic(omega_hat, xs, psi: np.ndarray | None = None) -> DeviationMatrix:
    """Same formula with an estimated precision matrix substituted, and
    ``psi`` as for :func:`oracle_statistic`.

    ``omega_hat`` must be symmetric with strictly positive diagonal; positive
    definiteness is not required.
    """
    om = _as_array(omega_hat)
    if np.any(om.diagonal() <= 0.0):
        raise NonPositiveDiagonal("plug-in estimate has a nonpositive diagonal entry")
    return _window_deviation(xs, om, psi)


def change_signal(omega_pre: PrecisionMatrix, sigma_post: np.ndarray) -> DeviationMatrix:
    """Per-sample mean shift of the statistic when the covariance becomes
    ``sigma_post``: ``(omega sigma_post omega - omega) * psi``."""
    om = _as_array(omega_pre)
    sig = np.asarray(sigma_post, dtype=np.float64)
    if sig.shape != om.shape:
        raise DimensionMismatch(
            f"covariance shape {sig.shape} != precision shape {om.shape}"
        )
    e = (om @ sig @ om - om) * scale_entries(om)
    return DeviationMatrix(entries=e, sup_norm=float(np.abs(e).max()))
