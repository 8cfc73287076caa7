"""The standardized deviation, its batched sup-norm and the sliding-window scorer.

The standardized deviation of a window ``X`` of ``w`` samples (rows) with
respect to a precision matrix ``omega`` and its entry-wise scale ``psi`` is

    E = (Y'Y - w * omega) / sqrt(w) * psi,    Y = X @ omega.

:func:`deviation` is the single source of this formula: the statistic
module's oracle and plug-in statistics, :func:`window_supnorms` and
:class:`RollingSupnorm` all call it on a Gram matrix ``Y'Y``.

:class:`RollingSupnorm` serves the detector's monitoring step and
:func:`sliding_supnorms`, the delay profile's scan. It slides the window's
Gram matrix by a rank-one update and a downdate, O(p^2) per row, and bounds
the rounding error: with ``c`` the largest column 2-norm of ``omega``, the
entries of ``x @ omega`` and of ``|x| @ |omega|`` are at most ``|x|_2 c``, so
counting the transforms, the Gram sums, the ``2 rolled`` rank-one updates and
the deviation, ``|rolling - exact| <= 4 u (p + w + rolled + 2) (c^2 mass +
w max|omega|) max(psi) / sqrt(w)`` to first order in ``u = eps / 2``, where
``mass`` sums ``|x|_2^2`` over the window of the last exact Gram and every
row added since. The scorer takes four times that. It asks for an exact
evaluation when the rolling value is not finite or comes within the bound of
``zeta``, after ``w`` rolls, and once the rows that have left the window
since the last exact Gram outweigh three times those in it (as after a huge
outlier leaves): a rolling value it returns is on the exact one's side of
``zeta``, and within about 1e-12 relative of it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dger

__all__ = ["BACKEND", "deviation", "window_supnorms", "sliding_supnorms", "RollingSupnorm"]

BACKEND = "numpy"


def deviation(
    gram: np.ndarray, w_omega: np.ndarray, sqrt_w: float, psi: np.ndarray, out=None
) -> np.ndarray:
    """Standardized deviation of the Gram matrix ``gram = Y'Y`` of ``w``
    transformed samples, given ``w_omega = w * omega`` and ``sqrt_w =
    np.sqrt(w)``, broadcast over the leading axes of ``gram``. Written into
    ``out`` when given."""
    e = np.subtract(gram, w_omega, out=out)
    e /= sqrt_w
    e *= psi
    return e


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
    w = samples.shape[1]
    y = samples @ omega
    gram = np.matmul(y.transpose(0, 2, 1), y)
    return np.abs(deviation(gram, w * omega, np.sqrt(w), psi)).max(axis=(1, 2))


class RollingSupnorm:
    """Rolling sup-norm of a window of ``w`` rows, tested against ``zeta``.

    The caller keeps the window in a ring of ``w`` slots and passes each new
    row, times the estimate, to :meth:`push` with the slot it overwrites.
    Where ``push`` returns None the caller evaluates the window exactly and
    calls :meth:`rebuild`."""

    def __init__(self, p: int, w: int, zeta: float):
        self.w, self.zeta = w, zeta
        self._ring = np.empty((w, p))  # the window's rows times the estimate, by slot
        self._sq = [0.0] * w  # squared 2-norm of each raw ring row
        # Y'Y of the ring; like every (p, p) array a push reads, it is
        # Fortran-ordered, the layout in which BLAS updates it in place
        self._gram = np.empty((p, p), order="F")
        self._scratch = np.empty((p, p), order="F")
        self._rolled = w  # rolls since the last exact Gram; w makes the scorer stale
        # sums of |x|_2^2 over the rows the Gram has seen since then, and over the window
        self._mass = self._window = 0.0

    def set_estimate(self, omega: np.ndarray, psi: np.ndarray) -> None:
        """Standardize with ``omega`` and its scale ``psi`` from now on."""
        self._w_omega = np.asfortranarray(self.w * omega)
        self._sqrt_w = np.sqrt(self.w)
        self._psi = np.asfortranarray(psi)
        # constants of the error bound in the module docstring
        self._col2 = float((omega * omega).sum(axis=0).max())
        self._w_omega_max = float(np.abs(self._w_omega).max())
        self._tol = 8.0 * np.finfo(np.float64).eps * float(self._psi.max()) / float(self._sqrt_w)
        self._terms = omega.shape[0] + self.w + 2
        self.reset()

    def reset(self) -> None:
        """Drop the Gram: the next window is evaluated exactly."""
        self._rolled = self.w

    @property
    def stale(self) -> bool:
        """Whether the next push returns None whatever the row."""
        return self._rolled >= self.w

    def push(self, slot: int, y: np.ndarray, sq: float) -> float | None:
        """Put the transformed row ``y`` of a raw row with squared 2-norm
        ``sq`` in ``slot``, and return the new window's rolling sup-norm, or
        None where it may not stand in for the exact one. While the scorer is
        :attr:`stale` it only records ``sq``, and ``y`` may be None."""
        if self.stale:
            self._sq[slot] = sq
            return None
        y_out = self._ring[slot]
        dger(1.0, y, y, a=self._gram, overwrite_a=True)
        dger(-1.0, y_out, y_out, a=self._gram, overwrite_a=True)
        y_out[...] = y
        sup = self.supnorm()
        self._rolled += 1
        self._mass += sq
        self._window += sq - self._sq[slot]
        self._sq[slot] = sq
        if self._mass > 4.0 * self._window:
            return None
        bound = (self._tol * (self._terms + self._rolled)
                 * (self._col2 * self._mass + self._w_omega_max))
        return sup if sup + bound < self.zeta else None  # False for nan

    def rebuild(self, y: np.ndarray) -> None:
        """Recompute the Gram exactly from the window's transformed rows ``y``, by slot."""
        self._ring[...] = y
        self._gram[...] = self._ring.T @ self._ring
        self._rolled = 0
        self._mass = self._window = sum(self._sq)

    def supnorm(self) -> float:
        """Sup-norm of the deviation of the current Gram matrix."""
        e = deviation(self._gram, self._w_omega, self._sqrt_w, self._psi, self._scratch)
        return float(np.abs(e, out=e).max())


def sliding_supnorms(x: np.ndarray, omega: np.ndarray, psi: np.ndarray, w: int) -> np.ndarray:
    """Sup-norms of the ``T - w + 1`` length-``w`` windows of a ``(T, p)``
    path, ``T >= w``, in order: the path is transformed in one product and
    scored by a :class:`RollingSupnorm` with no critical value."""
    t_len, p = x.shape
    if t_len < w:
        raise ValueError(f"path of length {t_len} shorter than window {w}")
    y = x @ omega
    sq = np.einsum("ij,ij->i", x, x).tolist()
    scorer = RollingSupnorm(p, w, np.inf)
    scorer.set_estimate(omega, psi)
    out = np.empty(t_len - w + 1)
    for k in range(t_len):
        sup = scorer.push(k % w, y[k], sq[k])  # row k lives in slot k % w
        if k >= w - 1:
            if sup is None:
                scorer.rebuild(np.roll(y[k - w + 1 : k + 1], k + 1, axis=0))
                sup = scorer.supnorm()
            out[k - w + 1] = sup
    return out
