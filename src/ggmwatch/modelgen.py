"""Synthetic precision matrices, change scenarios and Gaussian stream sampling.

All generators return a validated :class:`PrecisionMatrix` (exactly symmetric,
positive definite, inverse standardized to unit variance where stated) and are
deterministic in their ``seed`` argument via a counter-based Philox stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .bindings import flapack
from .errors import DimensionMismatch, NotPositiveDefinite

dpotrs = flapack.dpotrs

__all__ = [
    "PrecisionMatrix",
    "ChangeScenario",
    "GaussianStream",
    "cholesky_factor",
    "invert_spd",
    "gen_chain_precision",
    "gen_random_sparse",
    "gen_hub_precision",
    "make_block_change",
    "make_antidiag_change",
    "make_uniform_change",
]


@dataclass(frozen=True)
class PrecisionMatrix:
    """A symmetric positive-definite precision matrix.

    Construct through :meth:`from_entries`, which validates exact symmetry
    and positive definiteness (via Cholesky) and freezes the array.
    """

    entries: np.ndarray

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "PrecisionMatrix":
        e = np.array(entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("precision matrix entries must be finite")
        if not np.array_equal(e, e.T):
            raise ValueError("precision matrix entries must be exactly symmetric")
        cholesky_factor(e)
        e.flags.writeable = False
        return cls(entries=e)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def sigma(self) -> np.ndarray:
        """The implied covariance matrix (the inverse)."""
        return invert_spd(self.entries)


@dataclass(frozen=True)
class ChangeScenario:
    """A single change point: ``n_burnin + t0`` pre-change samples followed by
    post-change samples up to ``n_burnin + horizon`` in total."""

    omega_pre: PrecisionMatrix
    omega_post: PrecisionMatrix
    t0: int
    n_burnin: int
    horizon: int

    def __post_init__(self) -> None:
        if self.omega_pre.p != self.omega_post.p:
            raise DimensionMismatch(
                f"pre ({self.omega_pre.p}) and post ({self.omega_post.p}) dimensions differ"
            )
        if not (1 <= self.t0 <= self.horizon):
            raise ValueError(f"t0 must lie in [1, horizon], got t0={self.t0}")
        if self.n_burnin < 0:
            raise ValueError("n_burnin must be nonnegative")

    @property
    def p(self) -> int:
        return self.omega_pre.p

    @property
    def total_length(self) -> int:
        return self.n_burnin + self.horizon


def _as_array(m) -> np.ndarray:
    return m.entries if isinstance(m, PrecisionMatrix) else np.asarray(m, dtype=np.float64)


def _symmetric_array(m) -> np.ndarray:
    a = _as_array(m)
    scale = np.abs(a).max() if a.size else 0.0
    if np.abs(a - a.T).max(initial=0.0) > 1e-10 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric within tolerance")
    return a


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = m; raises NotPositiveDefinite otherwise."""
    a = _symmetric_array(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def invert_spd(m) -> np.ndarray:
    """Inverse of an SPD matrix via its Cholesky factor, symmetrized by averaging.

    Raises NotPositiveDefinite when the matrix has no Cholesky factor or its
    inverse is not finite.
    """
    a = _as_array(m)
    # scipy.linalg.cho_solve's check and LAPACK call: numpy's factor of a nan
    # or an infinite matrix is not finite rather than an error
    low = np.asarray_chkfinite(cholesky_factor(a))
    if low.size == 0:  # the LAPACK wrapper refuses an order of 0
        return np.empty((0, 0))
    inv, info = dpotrs(low, np.eye(a.shape[0]), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
    inv = 0.5 * (inv + inv.T)
    # a factor can pass with a pivot too small to divide by (a subnormal one)
    if not np.isfinite(inv).all():
        raise NotPositiveDefinite("Matrix is not positive definite: its inverse is not finite")
    return inv


def gen_chain_precision(p: int, rho0: float) -> PrecisionMatrix:
    """Tridiagonal precision matrix with unit diagonal and ``rho0`` off-diagonals.

    ``|rho0| = 0.5`` is admitted: the matrix stays positive definite for any
    finite ``p`` (smallest eigenvalue ``1 - 2 rho0 cos(pi/(p+1)) > 0``).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not math.isfinite(rho0):
        raise ValueError(f"rho0 must be finite, got {rho0}")
    if abs(rho0) > 0.5 + 1e-12:
        raise ValueError(f"|rho0| = {abs(rho0)} exceeds 0.5; chain would be indefinite")
    e = np.eye(p)
    idx = np.arange(p - 1)
    e[idx, idx + 1] = rho0
    e[idx + 1, idx] = rho0
    return PrecisionMatrix.from_entries(e)


def _random_weights(rng: Generator, n: int) -> np.ndarray:
    # magnitudes uniform on [0.1, 0.4], signs symmetric
    mag = rng.uniform(0.1, 0.4, size=n)
    sgn = rng.integers(0, 2, size=n) * 2 - 1
    return mag * sgn


def _standardize(weights: np.ndarray, diag_inflation: float) -> PrecisionMatrix:
    """Shared tail of the random generators.

    The base diagonal is set to ``|lambda_min(weights)|`` so that the matrix is
    positive semidefinite before the inflation is added; the result is then
    rescaled so the implied covariance has unit diagonal.
    """
    if not 0.0 < diag_inflation < math.inf:
        raise ValueError(f"diag_inflation must be finite and positive, got {diag_inflation}")
    p = weights.shape[0]
    lam_min = float(np.linalg.eigvalsh(weights)[0]) if np.any(weights) else 0.0
    raw = weights + (abs(lam_min) + diag_inflation) * np.eye(p)
    try:
        sig_raw = invert_spd(raw)
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            f"matrix not positive definite at diag_inflation={diag_inflation}; increase it"
        ) from None
    d = np.sqrt(sig_raw.diagonal())
    return PrecisionMatrix.from_entries(raw * np.outer(d, d))


def gen_random_sparse(
    p: int, row_density: float, diag_inflation: float, seed: int
) -> PrecisionMatrix:
    """Random sparse precision matrix with ``row_density * p`` off-diagonal
    nonzeros per row on average.

    ``round(p * round(row_density * p) / 2)`` undirected edges are drawn
    uniformly without replacement; nonzero weights have magnitudes uniform on
    [0.1, 0.4] with random signs. The diagonal is set to the absolute smallest
    eigenvalue of the weight matrix plus ``diag_inflation``, and the result is
    standardized to a unit-variance covariance.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not 0.0 <= row_density <= 1.0:
        raise ValueError(f"row_density must lie in [0, 1], got {row_density}")
    rng = Generator(Philox(key=seed))
    k = int(round(row_density * p))
    m = int(round(p * k / 2))
    if m > p * (p - 1) // 2:
        raise ValueError(
            f"row_density {row_density} asks for {m} edges; p={p} nodes have only "
            f"{p * (p - 1) // 2} pairs"
        )
    weights = np.zeros((p, p))
    if m > 0:
        idx = np.sort(rng.choice(p * (p - 1) // 2, size=m, replace=False))
        iu, ju = np.triu_indices(p, 1)  # row-major enumeration of {(i, j): i < j}
        weights[iu[idx], ju[idx]] = _random_weights(rng, m)
        weights = weights + weights.T
    return _standardize(weights, diag_inflation)


def gen_hub_precision(
    p: int, n_hubs: int, spokes_per_hub: int, diag_inflation: float, seed: int
) -> PrecisionMatrix:
    """Precision matrix with ``n_hubs`` hub nodes each linked to
    ``spokes_per_hub`` random partners; weights and standardization as in
    :func:`gen_random_sparse`."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if n_hubs < 0 or spokes_per_hub < 0:
        raise ValueError("n_hubs and spokes_per_hub must be nonnegative")
    if n_hubs > p:
        raise ValueError(f"n_hubs = {n_hubs} exceeds p = {p}")
    if n_hubs > 0 and spokes_per_hub > p - 1:
        raise ValueError("spokes_per_hub cannot exceed p - 1")
    if n_hubs * spokes_per_hub > p * (p - 1) // 2:
        raise ValueError("requested more edges than the graph can hold")
    rng = Generator(Philox(key=seed))
    weights = np.zeros((p, p))
    for hub in range(n_hubs):
        others = np.concatenate([np.arange(hub), np.arange(hub + 1, p)])
        spokes = rng.choice(others, size=spokes_per_hub, replace=False)
        vals = _random_weights(rng, spokes_per_hub)
        for s, v in zip(spokes, vals):
            if weights[hub, s] == 0.0:
                weights[hub, s] = v
                weights[s, hub] = v
    return _standardize(weights, diag_inflation)


def make_block_change(omega_pre: PrecisionMatrix, s: int, beta: float) -> PrecisionMatrix:
    """Add ``beta / s`` to every entry of the leading s-by-s block.

    The perturbation has Frobenius norm exactly ``|beta|``, independent of ``s``.
    """
    p = omega_pre.p
    if not 1 <= s <= p:
        raise ValueError(f"s must lie in [1, {p}], got {s}")
    e = np.array(omega_pre.entries)
    e[:s, :s] += beta / s
    return PrecisionMatrix.from_entries(e)


def make_antidiag_change(omega_pre: PrecisionMatrix, s: int, beta: float) -> PrecisionMatrix:
    """Add ``s`` new symmetric edges of weight ``beta`` joining node ``i`` to
    node ``p - s + i`` (identity blocks at the anti-corners)."""
    p = omega_pre.p
    if s < 0 or 2 * s > p:
        raise ValueError(f"s must lie in [0, p/2], got {s}")
    if s == 0:
        return omega_pre
    e = np.array(omega_pre.entries)
    idx = np.arange(s)
    e[idx, p - s + idx] += beta
    e[p - s + idx, idx] += beta
    return PrecisionMatrix.from_entries(e)


def make_uniform_change(omega_pre: PrecisionMatrix, beta: float) -> PrecisionMatrix:
    """Scale the whole precision matrix by ``1 / (1 + beta)``."""
    if beta <= -1:
        raise ValueError("beta must be > -1")
    return PrecisionMatrix.from_entries(omega_pre.entries / (1.0 + beta))


class GaussianStream:
    """Deterministic sample stream for a :class:`ChangeScenario`.

    Sample ``i`` (1-based) is drawn from the pre-change model when
    ``i <= n_burnin + t0`` and from the post-change model afterwards, as
    ``x = L z`` with ``L`` the Cholesky factor of the covariance and ``z``
    standard normal from a Philox stream keyed by ``seed``. Identical
    ``(scenario, seed)`` reproduce bit-identical streams regardless of how
    the draw is chunked.
    """

    def __init__(self, scenario: ChangeScenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.cursor = 0
        self._rng = Generator(Philox(key=seed))
        self._l_pre = cholesky_factor(invert_spd(scenario.omega_pre.entries))
        self._l_post = cholesky_factor(invert_spd(scenario.omega_post.entries))
        self._change_at = scenario.n_burnin + scenario.t0  # last pre-change index, 1-based

    def take(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self.cursor + count > self.scenario.total_length:
            raise ValueError(
                f"stream exhausted: requested up to sample {self.cursor + count}, "
                f"scenario ends at {self.scenario.total_length}"
            )
        p = self.scenario.p
        z = self._rng.standard_normal((count, p))
        out = np.empty((count, p))
        n_pre = min(count, max(0, self._change_at - self.cursor))
        out[:n_pre] = z[:n_pre] @ self._l_pre.T
        out[n_pre:] = z[n_pre:] @ self._l_post.T
        self.cursor += count
        return out
