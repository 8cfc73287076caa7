"""Critical values zeta(pi0, p, w) for the sup-norm test.

:func:`critical_value` returns a plain float by one of three methods, each
also available as its own function:

``exact``
    Root-solve the tail of the standardized inner product of two independent
    standard Gaussian w-vectors. The tail is an expectation over the chi
    distribution with ``w`` degrees of freedom,

        P(|V| >= t) = E[ 2 * Phi_bar( t * sqrt(w) / R ) ],   R^2 ~ chi2(w),

    evaluated by Gauss-Legendre quadrature between the 1e-12 and 1 - 1e-12
    chi quantiles, with the node count doubled until two successive
    refinements agree to 1e-12 relative. Each ``(w, n)`` table of nodes and
    weights is computed once per process and cached.

``asymptotic``
    Closed form ``z^2 = 2 log C - log log C - 2 log(sqrt(pi) * log(1/(1-pi0)))``
    with ``C = p(p+1)/2``.

``union``
    Closed form ``z^2 = 2 log C - log log C - 2 log(2 sqrt(pi) * log(1/(1-pi0/2)))``,
    valid for ``pi0 < 1/2``; a conservative large-w bound.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

# erfc, gammaincinv, gammainccinv and gammaln: scipy.special's own ufunc objects
from .bindings import special_ufuncs as special
from .errors import NegativeZetaSquared, TargetOutOfRange

__all__ = [
    "InnerProductTail",
    "inner_product_tail",
    "critical_value",
    "critical_value_exact",
    "critical_value_asymptotic",
    "critical_value_union",
    "norm_sf",
]


def norm_sf(x):
    """Standard normal survival function via erfc (accurate deep in the tail)."""
    return 0.5 * special.erfc(np.asarray(x) / math.sqrt(2.0))


@functools.cache
def _quadrature(w: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and chi(w)-density weights of the n-point Gauss-Legendre rule
    between the 1e-12 and 1 - 1e-12 chi(w) quantiles."""
    half = 0.5 * w
    # chi quantiles: sqrt of the chi-square ones
    lo = math.sqrt(2.0 * special.gammaincinv(half, 1e-12))
    hi = math.sqrt(2.0 * special.gammainccinv(half, 1e-12))
    x, wt = np.polynomial.legendre.leggauss(n)
    v = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    # the two node-dependent terms nearly cancel for large w; extended
    # precision keeps the node-to-node noise below the refinement tol
    vl = v.astype(np.longdouble)
    log_pdf = (w - 1) * np.log(vl) - 0.5 * vl * vl
    log_pdf += np.longdouble((1.0 - half) * math.log(2.0)) - np.longdouble(special.gammaln(half))
    weights = 0.5 * (hi - lo) * wt * np.exp(log_pdf).astype(np.float64)
    return v, weights


class InnerProductTail:
    """Tail of |<X, Y>| / sqrt(w) for independent standard Gaussian w-vectors."""

    _N0 = 64
    _N_MAX = 8192
    _RTOL = 1e-12

    def __init__(self, w: int):
        if w < 1:
            raise ValueError("w must be >= 1")
        self.w = int(w)

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0.0:
            return 1.0
        sqw = math.sqrt(self.w)
        prev = None
        n = self._N0
        while n <= self._N_MAX:
            v, weights = _quadrature(self.w, n)
            cur = float(np.sum(weights * 2.0 * norm_sf(t * sqw / v)))
            if prev is not None and abs(cur - prev) <= max(self._RTOL * abs(cur), 1e-14):
                return cur
            prev, n = cur, 2 * n
        warnings.warn(
            f"tail quadrature did not reach {self._RTOL} agreement at n={self._N_MAX}",
            RuntimeWarning,
        )
        return prev


def inner_product_tail(w: int, t: float) -> float:
    """P(|<X, Y>| / sqrt(w) >= t) for independent standard Gaussian w-vectors."""
    return InnerProductTail(w)(t)


def _validate_pi0(pi0: float) -> None:
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"pi0 must lie in (0, 1), got {pi0}")


def critical_value_exact(pi0: float, p: int, w: int) -> float:
    """Solve P(|V_w| >= zeta) = 2 log(1/(1-pi0)) / (p(p+1)) by bisection."""
    _validate_pi0(pi0)
    if p < 2:
        raise ValueError("p must be >= 2")
    if w < 2:
        raise ValueError("w must be >= 2")
    target = -2.0 * math.log1p(-pi0) / (p * (p + 1))
    if target >= 1.0:
        raise TargetOutOfRange(
            f"tail target {target:.3g} >= 1; no positive critical value exists"
        )
    tail = InnerProductTail(w)
    hi = 20.0
    while tail(hi) > target:
        hi *= 2.0
        if hi > 1e4:
            raise TargetOutOfRange("failed to bracket the critical value")
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles: no step moves them
            break
        if tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _closed_form(p: int, log_inner: float) -> float:
    if p < 2:
        raise ValueError("p must be >= 2")
    log_c = math.log(p) + math.log(p + 1) - math.log(2.0)
    z2 = 2.0 * log_c - math.log(log_c) - 2.0 * log_inner
    if z2 <= 0.0:
        raise NegativeZetaSquared(
            f"closed-form zeta^2 = {z2:.4g} <= 0; p too small for this pi0"
        )
    return math.sqrt(z2)


def critical_value_asymptotic(pi0: float, p: int) -> float:
    """Large-(p, w) closed form of the exact critical value."""
    _validate_pi0(pi0)
    return _closed_form(p, math.log(math.sqrt(math.pi) * (-math.log1p(-pi0))))


def critical_value_union(pi0: float, p: int) -> float:
    """Union-bound closed form; requires pi0 < 1/2."""
    if not 0.0 < pi0 < 0.5:
        raise ValueError(f"union method requires pi0 in (0, 1/2), got {pi0}")
    return _closed_form(p, math.log(2.0 * math.sqrt(math.pi) * (-math.log1p(-0.5 * pi0))))


def critical_value(pi0: float, p: int, w: int, method: str = "exact") -> float:
    """Critical value zeta(pi0, p, w) by ``method``: ``"exact"``, ``"asymptotic"``
    or ``"union"`` (the closed forms do not depend on ``w``)."""
    if method == "exact":
        return critical_value_exact(pi0, p, w)
    if method == "asymptotic":
        return critical_value_asymptotic(pi0, p)
    if method == "union":
        return critical_value_union(pi0, p)
    raise ValueError(f"unknown method {method!r}; expected 'exact', 'asymptotic' or 'union'")
