"""The program's contract with compiled scipy, OpenBLAS and the CPU, in one module.

ggmwatch calls three of scipy's private extension modules, and only this
module names them: :data:`fblas` (``scipy.linalg._fblas``: ``dspr``,
``idamax``, ``ddot``, ``dtrsm``) and :data:`special_ufuncs`
(``scipy.special._special_ufuncs``: ``erfc``, ``gammaln``, ``gammaincinv``,
``gammainccinv``), loaded with this module, and HiGHS's
``scipy.optimize._highspy._core``, which :func:`highs` loads at the first
CLIME fit. The ufunc module holds the very ufunc objects ``scipy.special``
exports; ``scipy.special._ufuncs``, where most other ufuncs live, cannot be loaded
this way: its initialisation needs the ``scipy.special`` package. An ordinary
import of one of them first runs ``scipy.optimize``'s, ``scipy.linalg``'s or
``scipy.special``'s ``__init__``, which import most of that package: tens of
milliseconds for a single extension.
:func:`scipy_extension` loads the extension from its file instead, as
importlib's "importing a source file directly" recipe does, and registers it
in ``sys.modules`` under its own name. A later import of the package then
finds it there, so each extension is initialised once and
``scipy.linalg.blas.dspr`` is the very function object this package calls.
Such a package does not bind the extension as its attribute
(``scipy.linalg._fblas`` is then an AttributeError), but every ``from``
import of it, the form scipy's own modules use, finds it.

Threaded BLAS products round differently. :func:`_one_blas_thread` runs a
block on one thread of each loaded OpenBLAS, and the two entry points,
``cli.main`` and ``harness.run_experiment``, run in it;
:func:`_single_blas_thread` pins a process-pool worker. :func:`usable_cores`
counts the cores this process may run on, for a CLIME fit's threads and the
default ``experiment --jobs``.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from types import ModuleType

# the top-level package only: its __init__ is light, imports no subpackage,
# and readies the bundled BLAS where a platform needs that done first
import scipy

from .errors import GgmWatchError

__all__ = ["scipy_extension", "fblas", "special_ufuncs", "highs", "usable_cores"]


def scipy_extension(name: str) -> ModuleType:
    """The extension module ``scipy.<name>``, for example ``"linalg._fblas"``.

    Returns the module ``sys.modules`` holds under that name, if any.
    Otherwise loads it from its file under scipy's install directory without
    running the ``__init__`` of the packages between, and registers it under
    that name: an f2py or pybind11 module must not be initialised twice.
    Raises ImportError, naming the paths tried, when no file is there.
    """
    full = f"scipy.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    base = os.path.join(scipy.__path__[0], *name.split("."))
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no extension module {full}: tried {', '.join(paths)}",
                          name=full, path=paths[0])
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


fblas = scipy_extension("linalg._fblas")  # the functions scipy.linalg.blas exports
special_ufuncs = scipy_extension("special._special_ufuncs")


def highs() -> ModuleType:
    """HiGHS's binding ``scipy.optimize._highspy._core``, loaded at the first
    call. Raises one GgmWatchError naming the scipy version where the file
    cannot be loaded: it has no public equivalent."""
    try:
        return scipy_extension("optimize._highspy._core")
    except ImportError as exc:
        raise GgmWatchError(
            f"scipy {scipy.__version__} has no usable HiGHS binding: {exc}"
        ) from None


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform
    has one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas() -> list[tuple]:
    """``(get, set)`` thread-count functions of every OpenBLAS mapped into this
    process: the builds numpy and scipy ship, or upstream's. An empty list
    where there is no ``/proc``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    found = []
    for lib in map(ctypes.CDLL, sorted(paths)):
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads"):
            if hasattr(lib, name % "set"):
                found.append((getattr(lib, name % "get"), getattr(lib, name % "set")))
                break
    return found


@contextmanager
def _one_blas_thread():
    """Run the block (or, as a decorator, each call) with one BLAS thread,
    then restore the previous counts."""
    blas = _openblas()
    before = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(blas, before):
            set_threads(n)


def _single_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker. A forked worker inherits
    the pin of its parent, but one started without fork (spawn, or
    forkserver, the default from Python 3.14) loads BLAS afresh at its
    default thread count."""
    for _, set_threads in _openblas():
        set_threads(1)
