"""Seeded inputs for the monitor workloads and their independent reference.

Nothing here imports ggmwatch: the models, the sample streams and the
reference statistics are computed with numpy and scipy alone, so the
program is checked against code it does not share.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats


def sparse_precision(rng: np.random.Generator, p: int, density: float, inflation: float):
    """Random sparse precision matrix whose covariance has unit diagonal.

    About ``density * p`` off-diagonal nonzeros per row, magnitudes uniform
    on [0.1, 0.4] with random signs; the diagonal is lifted to
    ``|lambda_min| + inflation`` before the rescaling.
    """
    iu = np.triu_indices(p, 1)
    m = int(round(p * round(density * p) / 2))
    pick = rng.choice(len(iu[0]), size=m, replace=False)
    weights = np.zeros((p, p))
    weights[iu[0][pick], iu[1][pick]] = rng.uniform(0.1, 0.4, m) * rng.choice([-1.0, 1.0], m)
    weights = weights + weights.T
    raw = weights + (abs(np.linalg.eigvalsh(weights)[0]) + inflation) * np.eye(p)
    d = np.sqrt(np.diag(np.linalg.inv(raw)))
    return raw * np.outer(d, d)


def gaussian_rows(rng: np.random.Generator, pre: np.ndarray, post: np.ndarray, t0: int, n: int):
    """``n`` rows, the first ``t0`` from N(0, pre^-1) and the rest from N(0, post^-1)."""
    z = rng.standard_normal((n, pre.shape[0]))
    x = np.empty_like(z)
    x[:t0] = z[:t0] @ np.linalg.cholesky(np.linalg.inv(pre)).T
    x[t0:] = z[t0:] @ np.linalg.cholesky(np.linalg.inv(post)).T
    return x


def write_matrix(path, a: np.ndarray) -> None:
    """ggmwatch matrix file: ``p <dim>`` then rows of 17-digit floats."""
    with open(path, "w") as fh:
        fh.write(f"p {a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_csv(path, x: np.ndarray) -> None:
    """Headerless CSV rows; 17 significant digits read back bit-exact."""
    with open(path, "w") as fh:
        for row in x:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def inner_product_tail(w: int, t: float) -> float:
    """P(|<X, Y>| / sqrt(w) >= t) for independent standard Gaussian w-vectors,
    by adaptive quadrature over the chi(w) law of |X|."""
    lo, hi = stats.chi.ppf(1e-14, w), stats.chi.isf(1e-14, w)

    def integrand(r):
        return 2.0 * stats.norm.sf(t * math.sqrt(w) / r) * stats.chi.pdf(r, w)

    val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def critical_value(pi0: float, p: int, w: int) -> float:
    """Root of tail(zeta) = 2 log(1/(1 - pi0)) / (p (p + 1))."""
    target = -2.0 * math.log1p(-pi0) / (p * (p + 1))
    def excess(t):
        return inner_product_tail(w, t) - target

    return optimize.brentq(excess, 0.5, 50.0, xtol=1e-13, rtol=1e-13)


def window_supnorms(x: np.ndarray, omega: np.ndarray, w: int, chunk: int = 256) -> np.ndarray:
    """sup |E| for every length-w window of ``x``, by direct Grams.

    ``E = (Y'Y - w omega) / sqrt(w) * psi`` with ``Y = X omega`` and
    ``psi[u, v] = (omega[u,u] omega[v,v] + omega[u,v]^2)^(-1/2)``. Entry
    ``k`` belongs to the window ending at row ``k + w`` (1-based).
    """
    d = np.diag(omega)
    psi = 1.0 / np.sqrt(np.outer(d, d) + omega * omega)
    y = x @ omega
    views = np.lib.stride_tricks.sliding_window_view(y, w, axis=0)  # (nwin, p, w)
    out = np.empty(views.shape[0])
    for a in range(0, len(out), chunk):
        v = views[a:a + chunk]
        gram = v @ v.transpose(0, 2, 1)
        out[a:a + chunk] = np.abs((gram - w * omega) / math.sqrt(w) * psi).max(axis=(1, 2))
    return out


def evaluated_steps(n: int, n_burnin: int, w: int, detections: set[int]) -> list[int]:
    """Steps (1-based) at which the detector tests a full window.

    A detector collects ``n_burnin`` rows, then fills a window of ``w`` rows
    and tests at every step; a detection clears the window and, when
    ``n_burnin > 0``, starts a new burn-in.
    """
    out = []
    burn = 0
    fill = 0
    monitoring = n_burnin == 0
    for t in range(1, n + 1):
        if not monitoring:
            burn += 1
            if burn >= n_burnin:
                monitoring, fill = True, 0
            continue
        fill += 1
        if fill < w:
            continue
        out.append(t)
        if t in detections:
            fill = 0
            if n_burnin > 0:
                monitoring, burn = False, 0
    return out


def oracle_reference(sups: np.ndarray, w: int, zeta: float):
    """Expected trace steps, their statistics and the detections of an
    oracle detector (no burn-in) restarted after every detection, given the
    sup-norms of all windows from :func:`window_supnorms`."""
    steps, values, detections = [], [], []
    fill = 0
    for t in range(1, len(sups) + w):
        fill += 1
        if fill < w:
            continue
        stat = float(sups[t - w])
        steps.append(t)
        values.append(stat)
        if stat >= zeta:
            detections.append(t)
            fill = 0
    return steps, values, detections
