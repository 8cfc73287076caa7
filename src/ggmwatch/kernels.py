"""The standardized deviation, its batched sup-norm and the sliding-window scorer.

The standardized deviation of a window ``X`` of ``w`` samples (rows) with
respect to a precision matrix ``omega`` and its entry-wise scale ``psi`` is

    E = (Y'Y - w * omega) * scale,    Y = X @ omega,    scale = psi / sqrt(w).

:func:`deviation` is the single written source of this formula: the statistic
module's oracle and plug-in statistics and :func:`window_supnorms` call it on
a Gram matrix ``Y'Y``, each with a ``scale`` it computes once per estimate.
:class:`RollingSupnorm` keeps the centred Gram ``Y'Y - w * omega`` between
rows, so it takes the formula's two steps apart: it subtracts ``w * omega``
once per exact Gram and multiplies by ``scale`` once per row, each as
:func:`deviation` does, which gives an exact evaluation the statistic's bits.

:class:`RollingSupnorm` serves the detector's monitoring step and
:func:`sliding_supnorms`, the delay profile's scan; both only push rows, as
the scorer keeps the window's ring and its slots. It slides the window's
centred Gram by a rank-one update and a downdate, O(p^2) per row, and bounds
the rounding error: with ``c`` the largest column 2-norm of ``omega``, the
entries of ``x @ omega`` and of ``|x| @ |omega|`` are at most ``|x|_2 c``.
Let ``mass`` sum ``|x|_2^2`` over the window of the last exact Gram and every
row added since. Then each product ``y_u y_v`` of transformed entries is at
most ``|x|_2^2 c^2``, the exact and the rolled Gram's entries, and every
partial sum of them, are at most ``c^2 mass``, and every entry the centred
roll holds or rounds to is at most ``c^2 mass + w max|omega|``. Counting the
transforms (``p`` roundings an entry, for the exact window and for each
rolled row), the Gram sums (``w``), the one subtraction of ``w * omega``,
the ``2 rolled`` rank-one updates (one product and one sum each) and the
multiplication by ``scale``, on both the rolling and the exact side,
``|rolling - exact| <= 4 u (p + w + rolled + 2) (c^2 mass + w max|omega|)
max(scale)`` to first order in ``u = eps / 2``. The scorer takes four times
that. It asks for an exact evaluation when the rolling value is not finite
or comes within the bound of ``zeta``, and once the rows that have left the
window since the last exact Gram outweigh three times those in it, as after
a huge outlier leaves or, with rows of steady size, after about ``3 w``
rolls. The bound holds for any
``rolled``, so a rolling value the scorer returns is on the exact one's side
of ``zeta``; with ``mass`` at most four times the window's own sum, the
bound it takes is at most ``16 u (p + w + rolled + 2) (4 c^2 window + w
max|omega|) max(scale)``, and only rows that keep growing keep ``rolled``
past about ``3 w``. An exact evaluation, :meth:`RollingSupnorm.recompute`,
restarts the roll from the Gram of the window's transformed rows in time
order, the statistic's own Gram, less ``w * omega``.

:class:`RollingSupnorm` keeps the centred Gram, ``w * omega`` and ``scale``
as their upper triangles packed by column, the layout BLAS ``dspr`` updates
in place. Every matrix it sees is exactly symmetric
(:meth:`RollingSupnorm.set_estimate` refuses an ``omega`` or ``psi`` that is
not, numpy forms ``y.T @ y`` as one triangle and mirrors it, and a rank-one
update adds the same product to ``(u, v)`` and ``(v, u)``), so the
triangle's sup is the matrix's. :meth:`RollingSupnorm.push` finds it with one
BLAS ``idamax`` pass over the packed deviation, which gives ``max|e|`` to the
bit but would pass over a nan. None can hide there: the centred Gram's
entries start finite and change only by sums with products of transformed
entries, so the first non-finite one (the only way to a nan deviation) needs
a transformed entry, a product or a sum to overflow. Each of these is at
most ``c^2 mass + w max|omega|`` by the above, or has a square that is, so
``c^2 mass + w max|omega|`` overflows too, which makes the bound ``inf`` and
``push`` return None. :meth:`RollingSupnorm.recompute` keeps
``np.abs(e).max()``, which propagates nan.
"""

from __future__ import annotations

import numpy as np

from .bindings import fblas

dspr, idamax = fblas.dspr, fblas.idamax

__all__ = ["BACKEND", "deviation", "window_supnorms", "sliding_supnorms", "RollingSupnorm"]

BACKEND = "numpy"


def deviation(gram: np.ndarray, w_omega: np.ndarray, scale: np.ndarray, out=None) -> np.ndarray:
    """Standardized deviation of the Gram matrix ``gram = Y'Y`` of ``w``
    transformed samples, given ``w_omega = w * omega`` and ``scale = psi /
    np.sqrt(w)``, broadcast over the leading axes of ``gram``. Written into
    ``out`` when given."""
    e = np.subtract(gram, w_omega, out=out)
    e *= scale
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
    e = deviation(gram, w * omega, psi / np.sqrt(w), out=gram)
    return np.abs(e, out=e).max(axis=(1, 2))


def _line_aligned(n: int) -> np.ndarray:
    """An uninitialised float64 vector of length ``n`` that starts on a
    64-byte cache line. ``push`` streams over the packed arrays; where they
    happened to start, which moves with whatever the heap held before,
    changed its speed by several per cent between otherwise equal runs."""
    buf = np.empty(n + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + n]


class RollingSupnorm:
    """Rolling sup-norm of a window of ``w`` rows, tested against ``zeta``.

    The scorer keeps the window's rows, times the estimate, in a ring of
    ``w`` slots; each row given to :meth:`push` replaces the oldest, and
    where ``push`` returns None the caller evaluates the window exactly with
    :meth:`recompute`. :meth:`reset` begins a new window at the first slot."""

    def __init__(self, p: int, w: int, zeta: float):
        self.w, self.zeta = w, zeta
        self._ring = np.empty((w, p))  # the window's rows times the estimate, by slot
        self._sq = [0.0] * w  # squared 2-norm of each raw ring row
        self._slot = 0  # the slot of the window's oldest row
        # flat indices u p + v of the upper triangle, u <= v, in packed order:
        # entry (u, v) of a packed array sits at u + v (v + 1) / 2
        self._pack = np.ravel_multi_index(np.tril_indices(p)[::-1], (p, p))
        # the ring's centred Gram Y'Y - w omega, packed
        self._gram = _line_aligned(len(self._pack))
        self._scratch = _line_aligned(len(self._pack))
        self.stale = True  # whether the next push returns None whatever the row
        self._rolled = 0  # rolls since the last exact Gram
        # sums of |x|_2^2 over the rows the Gram has seen since then, and over the window
        self._mass = self._window = 0.0

    def set_estimate(self, omega: np.ndarray, psi: np.ndarray) -> None:
        """Standardize with ``omega`` and its scale ``psi`` from now on. Both
        must be exactly symmetric: the scorer reads their upper triangles."""
        if not (np.array_equal(omega, omega.T) and np.array_equal(psi, psi.T)):
            raise ValueError("omega and psi must be exactly symmetric")
        self._w_omega = (self.w * omega).take(self._pack, out=_line_aligned(len(self._pack)))
        self._scale = (psi / np.sqrt(self.w)).take(self._pack, out=_line_aligned(len(self._pack)))
        # constants of the error bound in the module docstring
        self._col2 = float((omega * omega).sum(axis=0).max())
        self._w_omega_max = float(np.abs(self._w_omega).max())
        self._tol = 8.0 * np.finfo(np.float64).eps * float(self._scale.max())
        self._terms = omega.shape[0] + self.w + 2
        self.stale = True  # a new estimate keeps the window and its slots

    def reset(self) -> None:
        """Drop the Gram and begin a new window at the first slot."""
        self.stale, self._slot = True, 0

    def push(self, y: np.ndarray, sq: float) -> float | None:
        """Put the transformed row ``y`` of a raw row with squared 2-norm
        ``sq`` in place of the oldest, and return the new window's rolling
        sup-norm, or None where it may not stand in for the exact one. While
        the scorer is :attr:`stale` it only records ``sq``; ``y`` may be None."""
        slot, self._slot = self._slot, (self._slot + 1) % self.w
        if self.stale:
            self._sq[slot] = sq
            return None
        y_out, centred = self._ring[slot], self._gram
        # positional (n, alpha, x, ap, incx, offx, lower, overwrite_ap): the
        # upper triangle, updated in place
        dspr(len(y), 1.0, y, centred, 1, 0, 0, 1)
        dspr(len(y), -1.0, y_out, centred, 1, 0, 0, 1)
        y_out[...] = y
        # a nan here would come with an infinite bound
        e = np.multiply(centred, self._scale, out=self._scratch)
        sup = abs(e.item(idamax(e)))
        self._rolled += 1
        self._mass += sq
        self._window += sq - self._sq[slot]
        self._sq[slot] = sq
        if self._mass > 4.0 * self._window:
            return None
        bound = (self._tol * (self._terms + self._rolled)
                 * (self._col2 * self._mass + self._w_omega_max))
        return sup if sup + bound < self.zeta else None  # False for nan

    def recompute(self, y: np.ndarray) -> float:
        """Recompute the centred Gram as ``y.T @ y - w * omega`` from the
        window's transformed rows ``y``, oldest first and put in the ring
        from the oldest row's slot on, and return the window's sup-norm."""
        centred = np.take(y.T @ y, self._pack, out=self._gram)
        centred -= self._w_omega  # deviation's two steps, apart
        k = self.w - self._slot  # the rows from the oldest one's slot to the end
        self._ring[self._slot :], self._ring[: self._slot] = y[:k], y[k:]
        self.stale, self._rolled = False, 0
        self._mass = self._window = sum(self._sq)
        e = np.multiply(centred, self._scale, out=self._scratch)
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
        sup = scorer.push(y[k], sq[k])
        if k >= w - 1:
            if sup is None:
                sup = scorer.recompute(y[k - w + 1 : k + 1])
            out[k - w + 1] = sup
    return out
