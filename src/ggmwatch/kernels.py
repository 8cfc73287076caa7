"""The standardized deviation and its batched sup-norm kernels.

The standardized deviation of a window ``X`` of ``w`` samples (rows) with
respect to a precision matrix ``omega`` and its entry-wise scale ``psi`` is

    E = (Y'Y - w * omega) / sqrt(w) * psi,    Y = X @ omega.

:func:`deviation` is the single source of this formula: the statistic
module's oracle and plug-in statistics and the two batched kernels here all
call it on a Gram matrix ``Y'Y``. The kernels return ``max |E|`` per
window and operate on plain float64 arrays.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["BACKEND", "deviation", "window_supnorms", "sliding_supnorms"]

BACKEND = "numpy"

# Windows per batched Gram in the sliding scan. This bounds the scan's working
# memory at a few (chunk, p, p) arrays, independent of the path length.
_CHUNK = 16


def deviation(gram: np.ndarray, w: int, omega: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Standardized deviation of the Gram matrix ``gram = Y'Y`` of ``w``
    transformed samples, broadcast over the leading axes of ``gram``."""
    return (gram - w * omega) / np.sqrt(w) * psi


def window_supnorms(samples: np.ndarray, omega: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Sup-norm of the standardized deviation for a batch of windows.

    Parameters
    ----------
    samples : ndarray, shape (m, w, p)
        ``m`` independent windows of ``w`` samples each.
    omega, psi : ndarray, shape (p, p)
        Precision matrix and entry-wise scale used for standardization.

    Returns
    -------
    ndarray, shape (m,)
    """
    y = samples @ omega
    gram = np.matmul(y.transpose(0, 2, 1), y)
    return np.abs(deviation(gram, samples.shape[1], omega, psi)).max(axis=(1, 2))


def sliding_supnorms(x: np.ndarray, omega: np.ndarray, psi: np.ndarray, w: int) -> np.ndarray:
    """Sup-norm trajectory over all length-``w`` windows of a sample path.

    Each window's Gram matrix is computed directly, a fixed chunk of windows
    per batched product over a strided view of the transformed path.

    Parameters
    ----------
    x : ndarray, shape (T, p)
    omega, psi : ndarray, shape (p, p)
    w : int
        Window length; requires ``T >= w``.

    Returns
    -------
    ndarray, shape (T - w + 1,)
    """
    t_len = x.shape[0]
    if t_len < w:
        raise ValueError(f"path of length {t_len} shorter than window {w}")
    views = sliding_window_view(x @ omega, w, axis=0)  # views[k] = Y[k:k+w].T
    out = np.empty(t_len - w + 1)
    for k in range(0, len(out), _CHUNK):
        v = views[k : k + _CHUNK]
        gram = np.matmul(v, v.transpose(0, 2, 1))
        out[k : k + _CHUNK] = np.abs(deviation(gram, w, omega, psi)).max(axis=(1, 2))
    return out
