"""scipy's compiled bindings, loaded without their parent packages.

ggmwatch calls three of scipy's extension modules directly: HiGHS's own
binding ``scipy.optimize._highspy._core`` for the CLIME column LPs, and the
f2py wrappers ``scipy.linalg._fblas`` (``dspr``, ``idamax``, ``ddot``) and
``scipy.linalg._flapack`` (``dpotrs``). An ordinary import of one of them
first runs ``scipy.optimize``'s or ``scipy.linalg``'s ``__init__``, which
import most of that package: tens of milliseconds for a single extension.
:func:`scipy_extension` loads the extension from its file instead, as
importlib's "importing a source file directly" recipe does, and registers it
in ``sys.modules`` under its own name. A later import of the package then
finds it there, so each extension is initialised once and
``scipy.linalg.blas.dspr`` is the very function object this package calls.
Such a package does not bind the extension as its attribute
(``scipy.linalg._fblas`` is then an AttributeError), but every ``from``
import of it, the form scipy's own modules use, finds it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

# the top-level package only: its __init__ is light, imports no subpackage,
# and readies the bundled BLAS where a platform needs that done first
import scipy

__all__ = ["scipy_extension"]


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
