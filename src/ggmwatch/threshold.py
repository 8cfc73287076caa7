"""Critical values for the sup-norm test.

Three methods are provided:

``exact``
    Root-solve the tail of the standardized inner product of two independent
    standard Gaussian w-vectors. The tail is an expectation over the chi
    distribution with ``w`` degrees of freedom,

        P(|V| >= t) = E[ 2 * Phi_bar( t * sqrt(w) / R ) ],   R^2 ~ chi2(w),

    evaluated by Gauss-Legendre quadrature between the 1e-12 and 1 - 1e-12
    chi quantiles, with the node count doubled until two successive
    refinements agree to 1e-12 relative.

``asymptotic``
    Closed form ``z^2 = 2 log C - log log C - 2 log(sqrt(pi) * log(1/(1-pi0)))``
    with ``C = p(p+1)/2``.

``union``
    Closed form ``z^2 = 2 log C - log log C - 2 log(2 sqrt(pi) * log(1/(1-pi0/2)))``,
    valid for ``pi0 < 1/2``; a conservative large-w bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import NegativeZetaSquared, TargetOutOfRange

__all__ = [
    "ThresholdSpec",
    "InnerProductTail",
    "inner_product_tail",
    "critical_value_exact",
    "critical_value_asymptotic",
    "critical_value_union",
    "norm_sf",
]

_METHODS = ("exact", "asymptotic", "union")


def norm_sf(x):
    """Standard normal survival function via erfc (accurate deep in the tail)."""
    return 0.5 * special.erfc(np.asarray(x) / math.sqrt(2.0))


class InnerProductTail:
    """Tail of |<X, Y>| / sqrt(w) for independent standard Gaussian w-vectors.

    Holds per-refinement quadrature tables over the chi(w) density; instances
    are immutable after the first evaluation apart from table caching and are
    safe to share across threads for reads.
    """

    _N0 = 64
    _N_MAX = 8192
    _RTOL = 1e-12

    def __init__(self, w: int):
        if w < 1:
            raise ValueError("w must be >= 1")
        self.w = int(w)
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        half = 0.5 * self.w
        # chi quantiles: sqrt of the chi-square ones
        self._lo = math.sqrt(2.0 * special.gammaincinv(half, 1e-12))
        self._hi = math.sqrt(2.0 * special.gammainccinv(half, 1e-12))

    def _table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._tables.get(n)
        if cached is not None:
            return cached
        x, wt = np.polynomial.legendre.leggauss(n)
        v = 0.5 * (self._hi - self._lo) * x + 0.5 * (self._hi + self._lo)
        half = 0.5 * self.w
        # the two node-dependent terms nearly cancel for large w; extended
        # precision keeps the node-to-node noise below the refinement tol
        vl = v.astype(np.longdouble)
        log_pdf = (self.w - 1) * np.log(vl) - 0.5 * vl * vl
        log_pdf += np.longdouble((1.0 - half) * math.log(2.0)) - np.longdouble(
            special.gammaln(half)
        )
        weights = 0.5 * (self._hi - self._lo) * wt * np.exp(log_pdf).astype(np.float64)
        self._tables[n] = (v, weights)
        return v, weights

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0.0:
            return 1.0
        sqw = math.sqrt(self.w)
        prev = None
        n = self._N0
        while n <= self._N_MAX:
            v, weights = self._table(n)
            cur = float(np.sum(weights * 2.0 * norm_sf(t * sqw / v)))
            if prev is not None and abs(cur - prev) <= max(self._RTOL * abs(cur), 1e-14):
                return cur
            prev, n = cur, 2 * n
        warnings.warn(
            f"tail quadrature did not reach {self._RTOL} agreement at n={self._N_MAX}",
            RuntimeWarning,
        )
        return prev


_TAILS: dict[int, InnerProductTail] = {}


def _tail(w: int) -> InnerProductTail:
    tail = _TAILS.get(w)
    if tail is None:
        tail = _TAILS[w] = InnerProductTail(w)
    return tail


def inner_product_tail(w: int, t: float) -> float:
    """P(|<X, Y>| / sqrt(w) >= t) for independent standard Gaussian w-vectors."""
    return _tail(w)(t)


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
    tail = _tail(w)
    hi = 20.0
    while tail(hi) > target:
        hi *= 2.0
        warnings.warn(f"critical-value bracket widened to [0, {hi}]", RuntimeWarning)
        if hi > 1e4:
            raise TargetOutOfRange("failed to bracket the critical value")
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
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
            f"closed-form zeta^2 = {z2:.4g} <= 0 (p too small for this pi0)"
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


@dataclass(frozen=True)
class ThresholdSpec:
    """Target false-alarm rate, problem size and the resolved critical value."""

    pi0: float
    p: int
    w: int
    method: str = "exact"
    zeta: float | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")

    @property
    def resolved(self) -> bool:
        return self.zeta is not None

    def resolve(self) -> "ThresholdSpec":
        """Return a copy with ``zeta`` computed by the configured method."""
        if self.zeta is not None:
            return self
        if self.method == "exact":
            z = critical_value_exact(self.pi0, self.p, self.w)
        elif self.method == "asymptotic":
            z = critical_value_asymptotic(self.pi0, self.p)
        else:
            z = critical_value_union(self.pi0, self.p)
        return replace(self, zeta=z)
