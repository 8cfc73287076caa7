"""Sparse precision estimation via column-wise l1-constrained linear programs.

Column j solves  min |b|_1  s.t.  |S b - e_j|_inf <= lambda  as p ranged rows
over 2p variables: b = u - v,  min 1'u + 1'v  s.t.  e_j - lambda <= S (u - v)
<= e_j + lambda,  u, v >= 0.  A fit solves its columns on one thread per
usable core (the CPU affinity, at most p threads); thread k builds one HiGHS
model of its own (presolve and logging off) and solves the columns
j = k mod n_threads on it, moving only the bounds of two rows between
columns. Each solve clears the solver and starts the dual simplex from the
logical basis u = v = 0, dual feasible for every e_j since every reduced cost
is 1, so no state crosses columns: a column's bits are a function of
(S, lambda, j) alone, and do not depend on the thread count or on which
columns a thread solved before. The fit joins every thread before it returns
or raises, so no model or thread outlives it. Each column carries a
duality-gap certificate read from the solution's row duals. Columns are
symmetrized by the smaller-magnitude rule and optionally projected onto the
PSD cone by dropping negative eigenvalues.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import bindings
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


# the name perfbench/tracer.py reads and replaces to count LPs; no fit calls
# it, and it goes once the tracer counts the HiGHS solves instead
linprog = None


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
        if not (math.isfinite(self.lambda_level) and self.lambda_level >= 0):
            raise ValueError(
                f"lambda_level must be finite and nonnegative, got {self.lambda_level}"
            )
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


class _ColumnLPs:
    """The p column programs of one ``(S, lambda)`` on one HiGHS model.

    They share the matrix ``[S, -S]``, the costs and the column bounds; only
    row j's bounds differ. Every solve starts from a cleared solver, so no
    column depends on the ones solved before it. ``threads`` is HiGHS's
    option. A thread's first solve starts HiGHS's task scheduler for it, by
    default with a thread per two cores that a serial dual simplex never
    uses, so a fit's worker sets 1; 0 accepts a scheduler of any size that
    the calling thread may already have.
    """

    def __init__(self, s: np.ndarray, lam: float, threads: int = 0):
        core = bindings.highs()
        p = s.shape[0]
        a = np.hstack((s, -s))
        nonzero = (a != 0).T  # column-major pattern, as a CSC matrix drops zeros
        lp = core.HighsLp()
        lp.num_col_ = 2 * p
        lp.num_row_ = p
        lp.col_cost_ = np.ones(2 * p)
        lp.col_lower_ = np.zeros(2 * p)
        lp.col_upper_ = np.full(2 * p, np.inf)
        lp.row_lower_ = np.full(p, -lam)
        lp.row_upper_ = np.full(p, lam)
        matrix = lp.a_matrix_
        matrix.format_ = core.MatrixFormat.kColwise
        matrix.num_col_ = 2 * p
        matrix.num_row_ = p
        matrix.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
        matrix.index_ = np.nonzero(nonzero)[1]
        matrix.value_ = a.T[nonzero]
        self._highs = core._Highs()
        self._highs.setOptionValue("output_flag", False)
        # presolve reduces nothing on a dense S, and costs a quarter of the solve
        self._highs.setOptionValue("presolve", "off")
        self._highs.setOptionValue("threads", threads)
        self._highs.passModel(lp)
        self._row = 0  # the row holding e_j's bounds; row 0 is unmoved before a solve
        self.statuses = core.HighsModelStatus
        self.s = s
        self.lam = lam

    def solve(self, j: int):
        """Move the ranged row to ``e_j`` and solve from a cleared solver.

        Returns ``(status, objective, x, row_dual)``.
        """
        highs, lam = self._highs, self.lam
        highs.changeRowBounds(self._row, -lam, lam)
        highs.changeRowBounds(j, 1.0 - lam, 1.0 + lam)
        self._row = j
        # the logical basis u = v = 0, dual feasible for any e_j, and none of the
        # state a previous solve leaves, which can change the pivots and so the bits
        highs.clearSolver()
        highs.run()
        sol = highs.getSolution()
        return (
            highs.getModelStatus(),
            highs.getObjectiveValue(),
            np.asarray(sol.col_value),
            np.asarray(sol.row_dual),
        )


# ``_local.fit``: the model of the fit in progress on this thread, which
# clime_estimate sets in each of its threads and always drops
_local = threading.local()


def _n_threads(p: int) -> int:
    """Threads for a fit of ``p`` columns: one per usable core, at most ``p``."""
    return max(1, min(bindings.usable_cores(), p))


def clime_column(
    s_hat: np.ndarray, j: int, lam: float, lp_tolerance: float = 1e-6
) -> np.ndarray:
    """Solve one column program; returns the minimizing coefficient vector.

    Inside :func:`clime_estimate` the column is solved on its thread's model
    of that fit, any other call on a model of its own; both give the same bits.

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
    lp = getattr(_local, "fit", None)
    if lp is None or lp.s is not s_hat or lp.lam != lam:
        lp = _ColumnLPs(s, lam)
    status, fun, x, row_dual = lp.solve(j)
    statuses = lp.statuses
    if status == statuses.kInfeasible:
        raise Infeasible(f"column {j} infeasible at lambda={lam}")
    if status != statuses.kOptimal:
        raise SolverStall(f"column {j}: solver status {status.name}")
    # dual objective of the ranged rows e_j -+ lambda: e_j . y - lambda |y|_1
    dual = row_dual[j] - lam * np.abs(row_dual).sum()
    gap = abs(fun - dual)
    if gap > 1e-8 * max(1.0, abs(fun)):
        raise SolverStall(f"column {j}: duality gap {gap:.3g} exceeds certificate tolerance")
    beta = x[:p] - x[p:]
    e = np.zeros(p)
    e[j] = 1.0
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
    solutions has the smaller magnitude at that entry. A failed column raises
    the error :func:`clime_column` raises for it, the lowest such column's
    when several fail. Raises :class:`~ggmwatch.errors.NonFiniteSample` when
    the samples are so large that their second moment overflows.
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
    n_threads = _n_threads(p)
    failures: list[tuple[int, Exception]] = []  # (column, its error), one per thread at most

    def solve_share(k: int, lp: _ColumnLPs | None = None) -> None:
        """Solve columns k, k + n_threads, ... in order, up to the first that
        fails or one past a column another thread saw fail."""
        j = k
        try:
            _local.fit = _ColumnLPs(s, lam, threads=1) if lp is None else lp
            for j in range(k, p, n_threads):
                if any(j > failed for failed, _ in failures):
                    break
                # looked up at call time, so that a wrapped clime_column is the one called
                cols[:, j] = clime_column(s, j, lam, config.lp_tolerance)
        except Exception as exc:
            failures.append((j, exc))
        finally:
            _local.fit = None

    # this thread loads the binding (once) and builds its model before any worker starts
    first = _ColumnLPs(s, lam)
    workers: list[threading.Thread] = []
    try:
        for k in range(1, n_threads):
            worker = threading.Thread(target=solve_share, args=(k,))
            worker.start()
            workers.append(worker)
        solve_share(0, first)
    finally:
        for worker in workers:
            worker.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
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
