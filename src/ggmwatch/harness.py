"""Seeded Monte Carlo experiment drivers.

:func:`run_experiment` is the way in: it runs the experiment an
:class:`ExperimentConfig` (one of :data:`PRESETS`, say) names with ``jobs``
workers. Replicate ``r`` of any experiment draws from a Philox stream keyed
by ``sha256(master_seed | tag | ... | r)``, so results are reproducible
bit-for-bit for a given ``(config, master_seed)`` at any worker count.
Every experiment follows one recipe: draw a model (``_sparse_model``, or the
chain model for false-alarm calibration), take its covariance factor
(``_cov_factor``), fit CLIME on seeded burn-in rows (``_burnin_fit``), then
build a list of task contexts and map one of two chunk workers over every
(context, replicate-chunk) task, context-major with chunks of ``_CHUNK``
replicates, through at most one process pool. The workers only draw and
score. ``_group_chunk`` takes a stream group: one stream key, the distinct
covariance factors of its cells and the cells, each a ``(factor, w, fits)``
triple. It draws each replicate once, at the group's largest ``w``, and
returns the sup-norm of every cell's first window (calibration and power,
through ``_first_windows``); it holds ``_SUB`` replicates' draws at a time.
``_path_chunk`` returns one path's sliding sup-norm trajectory (delay
profile and its no-change control). The runner of each kind (``_RUNNERS``)
reduces each cell's chunk results, in chunk order, to rates, delays and
trajectories. ``run_experiment`` runs all of it, in this process and in the
workers, on one BLAS thread (restored afterwards): threaded Gram products
round differently, so results depend only on the config and master seed, not
on ``--jobs`` or the BLAS setting.

The cells of a group share replicate streams (common random numbers): the
calibration cells of one experiment, and the (beta, w) cells of one ``s`` in
a power grid. That makes the monotonicity properties of the curves visible
at desk-scale replicate counts, and every draw serves all of them.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import __version__, kernels
from .bindings import _one_blas_thread, _single_blas_thread
from .clime import clime_estimate, normalized_error
from .errors import InvalidConfig
from .modelgen import (
    PrecisionMatrix,
    cholesky_factor,
    gen_chain_precision,
    gen_random_sparse,
    invert_spd,
    make_antidiag_change,
    make_block_change,
)
from .statistic import scale_entries
from .threshold import (
    critical_value_asymptotic,
    critical_value_exact,
    critical_value_union,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "CellResult",
    "MetricValue",
    "PRESETS",
    "DEFAULT_MASTER_SEED",
    "run_experiment",
]

DEFAULT_MASTER_SEED = 1729
_CHUNK = 250
# Replicates drawn at a time by ``_group_chunk``: about 6 MB of rows at
# w=300, p=100.
_SUB = 25


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    replicates: int
    master_seed: int
    params: dict

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise InvalidConfig(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise InvalidConfig("replicates must be >= 1")


@dataclass(frozen=True)
class MetricValue:
    value: float
    se: float | None


@dataclass(frozen=True)
class CellResult:
    cell: dict
    n: int
    metrics: dict[str, MetricValue]
    series: dict | None = None


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    cells: list[CellResult]
    provenance: dict


def derive_key(master_seed: int, *parts) -> int:
    """Fixed public hash mapping (master_seed, labels...) to a Philox key."""
    text = "|".join([str(master_seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")


def _generator(master_seed: int, *parts) -> Generator:
    return Generator(Philox(key=derive_key(master_seed, *parts)))


def _rate_metric(hits: int, n: int) -> MetricValue:
    r = hits / n
    return MetricValue(value=r, se=math.sqrt(r * (1.0 - r) / n))


def _upper_quantile(values: np.ndarray, pi0: float) -> float:
    k = int(math.ceil((1.0 - pi0) * len(values)))
    return float(np.sort(values)[k - 1])


def _map_cells(worker, ctxs: list[dict], n: int, jobs: int) -> list[list]:
    """Run ``worker(ctx, start, stop)`` over every (context, replicate-chunk)
    task, context-major, through at most one process pool of no more workers
    than tasks; returns each context's chunk results in chunk order."""
    spans = [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]
    tasks = [(ctx, a, b) for ctx in ctxs for a, b in spans]
    if not tasks:
        return []
    if jobs <= 1:
        results = list(map(worker, *zip(*tasks)))
    else:
        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread) as pool:
            results = list(pool.map(worker, *zip(*tasks)))
    k = len(spans)
    return [results[i : i + k] for i in range(0, len(results), k)]


# ---------------------------------------------------------------------------
# chunk workers (top-level for pickling)


def _group_chunk(group: dict, start: int, stop: int) -> np.ndarray:
    """Sup-norms, shape ``(cells, stop - start)``, of the first window of each
    replicate for every cell of a stream group. Replicate ``r`` draws
    ``(max w, p)`` rows from the stream ``(*key, r)`` once; for each cell
    ``(factor, w, fits)`` they are transformed by ``chols[factor]`` (once per
    factor) and the first ``w`` rows are scored with fit ``r % len(fits)``.
    Philox draws are prefix-consistent, so a cell scores the rows a draw of
    ``(w, p)`` alone would give. Draws are held ``_SUB`` replicates at a time."""
    chols, cells = group["chols"], group["cells"]
    out = np.empty((len(cells), stop - start))
    if not cells:  # an empty grid axis
        return out
    shape = (max(w for _, w, _ in cells), chols[0].shape[0])
    for a in range(start, stop, _SUB):
        b = min(a + _SUB, stop)
        z = np.empty((b - a, *shape))
        for i, r in enumerate(range(a, b)):
            _generator(group["master_seed"], *group["key"], r).standard_normal(out=z[i])
        for f, chol in enumerate(chols):
            # the last factor transforms the draw in place
            xs = z if f == len(chols) - 1 else np.empty_like(z)
            for i in range(b - a):
                xs[i] = z[i] @ chol.T
            for c, (cf, w, fits) in enumerate(cells):
                if cf != f:
                    continue
                m = len(fits)
                for g, (omega, psi) in enumerate(fits):
                    k = (g - a) % m
                    out[c, a - start + k : b - start : m] = kernels.window_supnorms(
                        xs[k::m, :w], omega, psi
                    )
    return out


def _path_chunk(ctx: dict, start: int, stop: int) -> np.ndarray:
    """Sliding sup-norm trajectories, shape ``(stop - start, t0 + 1)``, of one
    path of ``t0 + w`` rows per replicate; rows before ``switch`` follow
    ``chol_pre`` and the rest ``chol_post``."""
    w, t0, switch = ctx["w"], ctx["t0"], ctx["switch"]
    chol_pre, chol_post = ctx["chol_pre"], ctx["chol_post"]
    shape = (t0 + w, chol_pre.shape[0])
    sups = np.empty((stop - start, t0 + 1))
    for i, r in enumerate(range(start, stop)):
        z = _generator(ctx["master_seed"], *ctx["key"], r).standard_normal(shape)
        x = np.empty(shape)
        x[:switch] = z[:switch] @ chol_pre.T
        x[switch:] = z[switch:] @ chol_post.T
        sups[i] = kernels.sliding_supnorms(x, ctx["omega_hat"], ctx["psi_hat"], w)
    return sups


# ---------------------------------------------------------------------------
# experiments


def _sparse_model(config: ExperimentConfig, tag: str = "model") -> PrecisionMatrix:
    prm = config.params
    return gen_random_sparse(
        prm["p"], prm["density"], prm["inflation"], derive_key(config.master_seed, tag)
    )


def _cov_factor(omega: PrecisionMatrix) -> np.ndarray:
    return cholesky_factor(invert_spd(omega.entries))


def _burnin_fit(config: ExperimentConfig, chol: np.ndarray, n: int, *key) -> np.ndarray:
    """CLIME fit on ``n`` rows drawn through ``chol`` from the stream ``("burnin", *key)``."""
    z = _generator(config.master_seed, "burnin", *key).standard_normal((n, chol.shape[0]))
    return clime_estimate(z @ chol.T).omega_hat


def _first_windows(config: ExperimentConfig, jobs: int, groups: list[tuple]) -> list[np.ndarray]:
    """Sup-norms of every replicate's first window, one array per cell, for
    ``(key, chols, cells)`` stream groups as ``_group_chunk`` takes them; cells
    in group order."""
    ctxs = [
        {"master_seed": config.master_seed, "key": key, "chols": chols, "cells": cells}
        for key, chols, cells in groups
    ]
    results = _map_cells(_group_chunk, ctxs, config.replicates, jobs)
    return [sups for parts in results for sups in np.concatenate(parts, axis=1)]


def _provenance(config: ExperimentConfig, **extra) -> dict:
    return {
        "kind": config.kind,
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "params": config.params,
        "tool_version": __version__,
        "backend": kernels.BACKEND,
        **extra,
    }


def _fa_calibration(config: ExperimentConfig, jobs: int) -> ExperimentResult:
    """Oracle-statistic calibration on the chain model: exceedance rates at the
    exact and union thresholds plus the empirical upper quantile."""
    prm = config.params
    p, rho0, w, pi0 = prm["p"], prm["rho0"], prm["w"], prm["pi0"]
    omega = gen_chain_precision(p, rho0)
    chol = _cov_factor(omega)
    ze = critical_value_exact(pi0, p, w)
    zu = critical_value_union(pi0, p) if pi0 < 0.5 else None
    za = critical_value_asymptotic(pi0, p)
    fit = (omega.entries, scale_entries(omega.entries))
    (sups,) = _first_windows(config, jobs, [(("fa",), [chol], [(0, w, [fit])])])
    n = len(sups)
    metrics = {
        "exceed_exact": _rate_metric(int(np.sum(sups >= ze)), n),
        "quantile": MetricValue(_upper_quantile(sups, pi0), None),
        "mean_sup": MetricValue(float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(n))),
    }
    if zu is not None:
        metrics["exceed_union"] = _rate_metric(int(np.sum(sups >= zu)), n)
    cell = CellResult(cell={"p": p, "rho0": rho0, "w": w, "pi0": pi0}, n=n, metrics=metrics)
    prov = _provenance(config, zeta_exact=ze, zeta_union=zu, zeta_asymptotic=za)
    return ExperimentResult(kind=config.kind, cells=[cell], provenance=prov)


def _plugin_calibration(config: ExperimentConfig, jobs: int) -> ExperimentResult:
    """Plug-in calibration over a burn-in grid: several CLIME fits per cell,
    pooled no-rejection rate p_N and averaged normalized error e_N, plus the
    true model's cell."""
    prm = config.params
    p, w, pi0 = prm["p"], prm["w"], prm["pi0"]
    omega = _sparse_model(config)
    chol = _cov_factor(omega)
    ze = critical_value_exact(pi0, p, w)
    fit_sets, errs, cell_keys = [], [], []
    for n_burn in prm["n_grid"]:
        fits = [_burnin_fit(config, chol, n_burn, n_burn, f) for f in range(prm["fits"])]
        fit_sets.append([(omh, scale_entries(omh)) for omh in fits])
        errs.append(np.array([normalized_error(omh, omega) for omh in fits]))
        cell_keys.append({"n_burnin": n_burn})
    fit_sets.append([(omega.entries, scale_entries(omega.entries))])
    errs.append(np.zeros(1))  # the true model: e_N = 0 with no standard error
    cell_keys.append({"n_burnin": 0, "oracle": 1})
    all_sups = _first_windows(
        config, jobs, [(("window",), [chol], [(0, w, fits) for fits in fit_sets])]
    )
    cells = []
    for sups, e, key in zip(all_sups, errs, cell_keys):
        metrics = {
            "p_n": _rate_metric(int(np.sum(sups <= ze)), len(sups)),
            "e_n": MetricValue(
                float(e.mean()), float(e.std(ddof=1) / math.sqrt(len(e))) if len(e) > 1 else None
            ),
        }
        cells.append(CellResult(cell=key, n=len(sups), metrics=metrics))
    prov = _provenance(config, zeta_exact=ze)
    return ExperimentResult(kind=config.kind, cells=cells, provenance=prov)


def _power_engine(config: ExperimentConfig, jobs: int, change: str) -> ExperimentResult:
    """Mis-detection rate over (s, beta, w) grids in the first full post-change
    window: of a leading-block change with the burn-in fit (``"block"``), or
    of added anti-corner edges with the true model, beta a fraction of the
    pre-change smallest eigenvalue (the PD limit)."""
    prm = config.params
    p, pi0 = prm["p"], prm["pi0"]
    omega = _sparse_model(config)
    chol_pre = _cov_factor(omega)
    lam_min = float(np.linalg.eigvalsh(omega.entries)[0])
    if change == "block":
        omega_hat = _burnin_fit(config, chol_pre, prm["n_burnin"])
        e_n = normalized_error(omega_hat, omega)
        make_change = make_block_change
        cells_axis = [(b, {"beta": b}) for b in map(float, prm["beta_grid"])]
    else:
        omega_hat, e_n = omega.entries, 0.0
        make_change = make_antidiag_change
        fracs = map(float, prm["beta_fracs"])
        cells_axis = [(f * lam_min, {"beta_frac": f, "beta": f * lam_min}) for f in fracs]
    w_grid = [int(w) for w in prm["w_grid"]]
    zetas = {w: critical_value_exact(pi0, p, w) for w in w_grid}
    fit = (omega_hat, scale_entries(omega_hat))
    groups, cell_keys = [], []
    for s in prm["s_grid"]:
        chols, group_cells = [], []
        for beta, beta_cell in cells_axis:
            chols.append(_cov_factor(make_change(omega, s, beta)) if beta != 0.0 else chol_pre)
            for w in w_grid:
                group_cells.append((len(chols) - 1, w, [fit]))
                cell_keys.append({"s": s, "w": w, **beta_cell})
        groups.append((("rep", s), chols, group_cells))
    cells = []
    for sups, cell in zip(_first_windows(config, jobs, groups), cell_keys):
        metrics = {"pi1": _rate_metric(int(np.sum(sups < zetas[cell["w"]])), len(sups))}
        cells.append(CellResult(cell=cell, n=len(sups), metrics=metrics))
    prov = _provenance(
        config,
        zetas={str(w): z for w, z in zetas.items()},
        e_n=e_n,
        lambda_min=lam_min,
        oracle=change != "block",
    )
    return ExperimentResult(kind=config.kind, cells=cells, provenance=prov)


def _delay_profile(config: ExperimentConfig, jobs: int) -> ExperimentResult:
    """Mean sup-norm trajectory around a change plus first-crossing delays.

    The change scenario interpolates between two independently generated
    sparse models: ``post = (1 - a) pre + a post_raw`` with attenuation ``a``
    (``a = 1`` reproduces a full redraw). First-crossing delays are measured
    over windows containing post-change samples; crossings strictly before
    that are reported separately as ``pre_any_exceed``.
    """
    prm = config.params
    p, w, t0, pi0 = prm["p"], prm["w"], prm["t0"], prm["pi0"]
    if w > t0:
        raise InvalidConfig("delay profile requires w <= t0")
    atten = prm["attenuation"]
    pre = _sparse_model(config, "model-pre")
    post_raw = _sparse_model(config, "model-post")
    post = PrecisionMatrix.from_entries((1.0 - atten) * pre.entries + atten * post_raw.entries)
    chol_pre, chol_post = _cov_factor(pre), _cov_factor(post)
    omega_hat = _burnin_fit(config, chol_pre, prm["n_burnin"])
    e_n = normalized_error(omega_hat, pre)
    zeta = critical_value_exact(pi0, p, w)
    base = {
        "master_seed": config.master_seed,
        "w": w,
        "t0": t0,
        "chol_pre": chol_pre,
        "omega_hat": omega_hat,
        "psi_hat": scale_entries(omega_hat),
    }
    ctxs = [
        dict(base, key=("rep",), switch=t0, chol_post=chol_post),
        # switching at the path's end keeps every row on chol_pre
        dict(base, key=("control",), switch=t0 + w, chol_post=chol_pre),
    ]
    change_parts, control_parts = _map_cells(_path_chunk, ctxs, config.replicates, jobs)
    rel_t = list(range(-t0, 1))
    sups = np.concatenate(change_parts)
    n = len(sups)
    traj_mean, traj_se = sups.mean(axis=0), sups.std(axis=0) / math.sqrt(n)
    over = np.nonzero(traj_mean >= zeta)[0]
    traj_cross_delay = float(over[0] - t0 + w) if len(over) else math.nan
    first_post = t0 - w + 1  # first window index containing post-change data
    crossed = sups[:, first_post:] >= zeta
    # post-change samples inside the first window at or above zeta
    delays = crossed.argmax(axis=1)[crossed.any(axis=1)] + 1.0
    detected = len(delays)
    mean_delay, delay_se = (
        (float(delays.mean()), float(delays.std()) / math.sqrt(detected))
        if detected
        else (math.nan, math.nan)
    )
    pre_cross = int(np.any(sups[:, :first_post] >= zeta, axis=1).sum())
    metrics = {
        "mean_delay": MetricValue(mean_delay, delay_se),
        "miss_rate": _rate_metric(n - detected, n),
        "pre_any_exceed": _rate_metric(pre_cross, n),
        "traj_cross_delay": MetricValue(traj_cross_delay, None),
        "traj_start": MetricValue(float(traj_mean[0]), float(traj_se[0])),
        "traj_end": MetricValue(float(traj_mean[-1]), float(traj_se[-1])),
    }
    series = {"t": rel_t, "mean": traj_mean.tolist(), "se": traj_se.tolist()}
    ctl = np.concatenate(control_parts)
    ctl_mean = ctl.mean(axis=0)
    ctl_metrics = {
        "window_exceed": _rate_metric(int((ctl >= zeta).sum()), ctl.size),
        "traj_max": MetricValue(float(ctl_mean.max()), None),
    }
    cells = [
        CellResult(
            cell={"scenario": "change", "attenuation": atten},
            n=n,
            metrics=metrics,
            series=series,
        ),
        CellResult(
            cell={"scenario": "control", "attenuation": atten},
            n=len(ctl),
            metrics=ctl_metrics,
            series={"t": rel_t, "mean": ctl_mean.tolist()},
        ),
    ]
    prov = _provenance(config, zeta_exact=zeta, e_n=e_n)
    return ExperimentResult(kind=config.kind, cells=cells, provenance=prov)


_RUNNERS = {
    "fa_calibration": _fa_calibration,
    "plugin_calibration": _plugin_calibration,
    "power_curve": lambda config, jobs: _power_engine(config, jobs, "block"),
    "delay_profile": _delay_profile,
    "lcpd_block": lambda config, jobs: _power_engine(config, jobs, "antidiag"),
}


@_one_blas_thread()
def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run ``config``'s experiment with ``jobs`` workers, on one BLAS thread
    here and in each worker."""
    return _RUNNERS[config.kind](config, jobs)


def _preset(kind: str, replicates: int, **params) -> ExperimentConfig:
    return ExperimentConfig(
        kind=kind, replicates=replicates, master_seed=DEFAULT_MASTER_SEED, params=params
    )


PRESETS: dict[str, ExperimentConfig] = {
    "fig1-desk": _preset(
        "fa_calibration", 10_000, p=100, rho0=0.5, w=50, pi0=0.05
    ),
    "fig2-desk": _preset(
        "plugin_calibration",
        4_000,
        p=80,
        density=0.06,
        inflation=0.1,
        w=50,
        pi0=0.05,
        n_grid=[300],
        fits=4,
    ),
    "table1-desk": _preset(
        "plugin_calibration",
        1_000,
        p=80,
        density=0.06,
        inflation=0.1,
        w=40,
        pi0=0.05,
        n_grid=[200, 300, 400, 500, 600, 700],
        fits=4,
    ),
    "fig3-desk": _preset(
        "delay_profile",
        1_000,
        p=100,
        density=0.04,
        inflation=0.1,
        n_burnin=1_500,
        t0=100,
        w=75,
        pi0=0.05,
        attenuation=0.7,
    ),
    "fig4-desk": _preset(
        "power_curve",
        1_000,
        p=100,
        density=0.05,
        inflation=0.1,
        n_burnin=2_000,
        pi0=0.05,
        s_grid=[1, 2, 3],
        beta_grid=[0.0, 1.0, 2.0, 3.0, 4.5, 6.0],
        w_grid=[150],
    ),
    "fig5-desk": _preset(
        "power_curve",
        1_000,
        p=100,
        density=0.05,
        inflation=0.1,
        n_burnin=2_000,
        pi0=0.05,
        s_grid=[1, 2, 3],
        beta_grid=[3.0],
        w_grid=[60, 120, 180, 240, 300],
    ),
    "fig6-desk": _preset(
        "lcpd_block",
        1_000,
        p=100,
        density=0.047,
        inflation=1.1,
        pi0=0.05,
        s_grid=[1, 5, 20],
        beta_fracs=[0.0, 0.25, 0.5, 0.75, 0.9, 0.98],
        w_grid=[100],
    ),
}
