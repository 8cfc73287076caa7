"""Sparse precision estimation via column-wise l1-constrained linear programs.

Each column solves  min |b|_1  s.t.  |S b - e_j|_inf <= lambda  in equality
form: with b = u - v,  S u - S v - r = e_j,  u, v >= 0,  r in [-lambda,
lambda].  That is p ranged rows over 3p bounded variables, delegated to
scipy's HiGHS solver (presolve off) with a duality-gap certificate. Columns
are symmetrized by the smaller-magnitude rule and optionally projected onto
the PSD cone by dropping negative eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatch, Infeasible, NonFiniteSample, SolverStall
from .modelgen import _as_array

__all__ = [
    "ClimeConfig",
    "PrecisionEstimate",
    "sample_covariance",
    "clime_column",
    "clime_estimate",
    "normalized_error",
    "psd_project",
]


@dataclass(frozen=True)
class ClimeConfig:
    """Tuning of the column LPs.

    ``lambda_rule`` is either ``"fixed"`` (use ``lambda_level`` as the
    constraint level) or ``"scaled"`` (level ``lambda_level * sqrt(log p / N)``).
    ``center`` subtracts the sample mean from the covariance; the default
    keeps the zero-mean second moment.
    """

    lambda_rule: str = "scaled"
    lambda_level: float = 0.5
    psd_project: bool = True
    lp_tolerance: float = 1e-6
    center: bool = False

    def __post_init__(self) -> None:
        if self.lambda_rule not in ("fixed", "scaled"):
            raise ValueError(f"unknown lambda_rule {self.lambda_rule!r}")
        if self.lambda_level < 0:
            raise ValueError("lambda_level must be nonnegative")
        if not 0.0 < self.lp_tolerance <= 1e-4:
            raise ValueError("lp_tolerance must lie in (0, 1e-4]")

    def resolve_lambda(self, p: int, n: int) -> float:
        if self.lambda_rule == "fixed":
            return self.lambda_level
        return self.lambda_level * math.sqrt(math.log(p) / n)


@dataclass(frozen=True)
class PrecisionEstimate:
    """Symmetrized (and optionally PSD-projected) estimate with diagnostics."""

    omega_hat: np.ndarray
    lambda_used: float
    feasibility_gap: float


def sample_covariance(samples, center: bool = False) -> np.ndarray:
    """Second-moment matrix ``X'X / N`` (mean-centered only on request)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty (N, p) sample array, got shape {x.shape}")
    if center:
        x = x - x.mean(axis=0)
    s = x.T @ x / x.shape[0]
    return 0.5 * (s + s.T)


def clime_column(
    s_hat: np.ndarray, j: int, lam: float, lp_tolerance: float = 1e-6
) -> np.ndarray:
    """Solve one column program; returns the minimizing coefficient vector.

    Raises
    ------
    Infeasible
        No point satisfies the constraint within ``lp_tolerance`` (possible
        for singular ``s_hat`` with small ``lam``).
    SolverStall
        The LP solver hit its iteration cap or returned without a duality
        certificate.
    """
    s = np.asarray(s_hat, dtype=np.float64)
    p = s.shape[0]
    if not 0 <= j < p:
        raise IndexError(f"column index {j} out of range for p={p}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    e = np.zeros(p)
    e[j] = 1.0
    a_eq = np.hstack((s, -s, -np.eye(p)))
    bounds = np.empty((3 * p, 2))
    bounds[:2 * p] = (0.0, np.inf)
    bounds[2 * p:] = (-lam, lam)
    cost = np.concatenate((np.ones(2 * p), np.zeros(p)))
    # presolve reduces nothing on a dense S, and costs a quarter of the solve
    res = linprog(
        cost, A_eq=a_eq, b_eq=e, bounds=bounds, method="highs", options={"presolve": False}
    )
    if res.status == 2:
        raise Infeasible(f"column {j} infeasible at lambda={lam}")
    if res.status != 0:
        raise SolverStall(f"column {j}: solver status {res.status}: {res.message}")
    # dual objective: e_j . y plus lambda times the net marginal of the r bounds
    dual = e @ res.eqlin.marginals + lam * (
        res.upper.marginals[2 * p:].sum() - res.lower.marginals[2 * p:].sum()
    )
    gap = abs(res.fun - dual)
    if gap > 1e-8 * max(1.0, abs(res.fun)):
        raise SolverStall(f"column {j}: duality gap {gap:.3g} exceeds certificate tolerance")
    beta = res.x[:p] - res.x[p:2 * p]
    violation = np.abs(s @ beta - e).max() - lam
    if violation > lp_tolerance:
        raise Infeasible(
            f"column {j}: constraint violated by {violation:.3g} (> {lp_tolerance})"
        )
    return beta


def psd_project(m: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone: rebuild from nonnegative eigenpairs."""
    a = np.asarray(m, dtype=np.float64)
    vals, vecs = np.linalg.eigh(a)
    out = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (out + out.T)


def clime_estimate(samples, config: ClimeConfig = ClimeConfig()) -> PrecisionEstimate:
    """Fit all columns, symmetrize by smaller magnitude, optionally project.

    The symmetrization keeps, for each (i, j), whichever of the two column
    solutions has the smaller magnitude at that entry. Raises
    :class:`~ggmwatch.errors.NonFiniteSample` when the samples are so large
    that their second moment overflows.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got array of shape {x.shape}")
    n, p = x.shape
    s = sample_covariance(x, center=config.center)
    if not np.isfinite(s).all():
        raise NonFiniteSample("sample covariance is not finite; values too large")
    lam = config.resolve_lambda(p, n)
    cols = np.empty((p, p))
    for j in range(p):
        cols[:, j] = clime_column(s, j, lam, config.lp_tolerance)
    gap = float(np.abs(s @ cols - np.eye(p)).max(axis=0).max() - lam)
    picked = np.where(np.abs(cols) <= np.abs(cols.T), cols, cols.T)
    omega = np.triu(picked) + np.triu(picked, 1).T
    if config.psd_project:
        omega = psd_project(omega)
    omega.flags.writeable = False
    return PrecisionEstimate(omega_hat=omega, lambda_used=lam, feasibility_gap=gap)


def normalized_error(omega_hat: np.ndarray, omega_true) -> float:
    """Frobenius-relative estimation error |est - true|_F / |true|_F."""
    est = np.asarray(omega_hat, dtype=np.float64)
    true = _as_array(omega_true)
    if est.shape != true.shape:
        raise DimensionMismatch(f"shape {est.shape} != {true.shape}")
    return float(np.linalg.norm(est - true) / np.linalg.norm(true))
