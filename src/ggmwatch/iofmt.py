"""File formats: matrix files, flat config files, run manifests, result files.

Matrix file: first line ``p <dim>``, then p rows of p space-separated floats
printed with 17 significant digits (round-trip exact for binary64).
:func:`read_matrix` returns the validated :class:`PrecisionMatrix`.

Config file: flat ``key=value`` lines; blank lines and ``#`` comments ignored.

JSON line: one object from :func:`json_line`, with sorted keys and no
``NaN`` or ``Infinity`` token: a non-finite float raises ``ValueError``.

All writers are byte-deterministic for identical inputs (no timestamps).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import NotPositiveDefinite
from .modelgen import PrecisionMatrix

__all__ = [
    "format_float",
    "json_line",
    "write_matrix",
    "read_matrix",
    "load_config",
    "sha256_file",
    "write_manifest",
    "manifest_dict",
    "write_result_csv",
    "write_result_ndjson",
]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def json_line(obj) -> str:
    """``obj`` as one strict JSON line with sorted keys, ending in a newline."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def write_matrix(path: str, m: np.ndarray) -> None:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with open(path, "w") as fh:
        fh.write(f"p {a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(format_float(v) for v in row) + "\n")


def read_matrix(path: str) -> PrecisionMatrix:
    """The validated model in ``path``; a ``ValueError`` names ``<path>:<line>``
    for a malformed line, and ``<path>`` for a matrix that is not a model."""
    rows: list[list[float]] = []
    lineno = 1
    # a byte that is not UTF-8 becomes a lone surrogate, which no number
    # contains, so its line fails to parse and is named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != "p":
                raise ValueError(f"expected header 'p <dim>', got {header!r}")
            p = int(header[1])
            if p < 1:
                raise ValueError(f"expected a dimension of at least 1, got {p}")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    rows.append([float(tok) for tok in line.split()])
                    if len(rows[-1]) != p:
                        raise ValueError(f"expected {p} values, got {len(rows[-1])}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    a = np.array(rows, dtype=np.float64)
    if a.shape != (p, p):
        raise ValueError(f"{path}: expected {p}x{p} body, got shape {a.shape}")
    try:
        return PrecisionMatrix.from_entries(a)
    except (ValueError, NotPositiveDefinite) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value.strip()
    return out


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_dict(
    command: list[str],
    config_path: str | None,
    master_seed: int | None,
    input_paths: list[str],
    tool_version: str,
) -> dict:
    """The run manifest; an input is keyed by its path where its file name repeats."""
    paths = sorted(set(input_paths))
    names = [os.path.basename(p) for p in paths]
    return {
        "command": command,
        "config": config_path,
        "master_seed": master_seed,
        "inputs": {p if names.count(n) > 1 else n: sha256_file(p) for p, n in zip(paths, names)},
        "tool_version": tool_version,
    }


def write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json_line(manifest))


def _cell_params_str(cell: dict) -> str:
    parts = []
    for key in sorted(cell):
        v = cell[key]
        parts.append(f"{key}={format_float(v) if isinstance(v, float) else v}")
    return ";".join(parts)


def write_result_csv(result, path: str) -> None:
    """One row per cell per metric: experiment,cell,params,metric,value,se,n."""
    with open(path, "w") as fh:
        fh.write("experiment,cell,params,metric,value,se,n\n")
        for idx, cell in enumerate(result.cells):
            params = _cell_params_str(cell.cell)
            for name in sorted(cell.metrics):
                m = cell.metrics[name]
                se = "" if m.se is None else format_float(m.se)
                fh.write(
                    f"{result.kind},{idx},{params},{name},"
                    f"{format_float(m.value)},{se},{cell.n}\n"
                )


def _json_number(x: float | None) -> float | None:
    """``x``, or None (JSON ``null``) where it is not finite: JSON has no NaN."""
    return x if x is None or math.isfinite(x) else None


def write_result_ndjson(result, path: str) -> None:
    """One JSON object per cell, plus a leading provenance object. A metric
    value or se that is not finite, such as the mean delay of a cell where no
    replicate detects, is written as ``null``."""
    with open(path, "w") as fh:
        fh.write(json_line({"type": "provenance", "experiment": result.kind, **result.provenance}))
        for idx, cell in enumerate(result.cells):
            obj = {
                "type": "cell",
                "experiment": result.kind,
                "index": idx,
                "cell": cell.cell,
                "n": cell.n,
                "metrics": {
                    k: {"value": _json_number(v.value), "se": _json_number(v.se)}
                    for k, v in sorted(cell.metrics.items())
                },
            }
            if cell.series is not None:
                obj["series"] = cell.series
            fh.write(json_line(obj))
