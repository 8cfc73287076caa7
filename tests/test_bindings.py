"""scipy's bindings loaded without scipy.optimize, scipy.linalg and scipy.special.

What a process has imported is global state, so each check runs its script
in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from ggmwatch.bindings import scipy_extension

from conftest import SRC_ENV

_FIT = """
from ggmwatch import clime_estimate
x = np.random.default_rng(5).standard_normal((80, 12))
"""


def _run(*parts: str) -> str:
    """The output of the script ``parts`` make up, run in a fresh interpreter
    after importing sys and numpy."""
    script = "".join(map(textwrap.dedent, ("import sys\nimport numpy as np\n", *parts)))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_fit_loads_neither_package():
    out = _run(_FIT, """
        clime_estimate(x)
        print(sorted({"scipy.optimize", "scipy.linalg"} & set(sys.modules)))
        print("scipy.optimize._highspy._core" in sys.modules)
    """)
    assert out.splitlines() == ["[]", "True"]


def test_scipy_optimize_after_a_fit():
    out = _run(_FIT, """
        first = clime_estimate(x).omega_hat
        core = sys.modules["scipy.optimize._highspy._core"]
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        res = linprog([1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-2.0], method="highs")
        print(_core is core, res.status, res.fun)
        print(np.array_equal(clime_estimate(x).omega_hat, first))
    """)
    assert out.splitlines() == ["True 0 1.0", "True"]


def test_packages_imported_first_are_used():
    out = _run("""
        from scipy.optimize._highspy import _core
        import scipy.linalg.blas
        import importlib.util
        importlib.util.spec_from_file_location = None  # no file is loaded again
        from ggmwatch import detector, kernels, modelgen
        from ggmwatch.bindings import scipy_extension
        print(scipy_extension("optimize._highspy._core") is _core,
              kernels.dspr is scipy.linalg.blas.dspr,
              detector.ddot is scipy.linalg.blas.ddot,
              modelgen.dtrsm is scipy.linalg.blas.dtrsm)
    """)
    assert out.splitlines() == ["True True True True"]


def test_scipy_linalg_after_the_bindings():
    out = _run("""
        from ggmwatch import detector, kernels, modelgen
        import scipy.linalg
        from scipy.linalg import blas
        print(blas.dspr is kernels.dspr, blas.idamax is kernels.idamax,
              blas.ddot is detector.ddot, blas.dtrsm is modelgen.dtrsm,
              blas.get_blas_funcs("dot", dtype=np.float64) is detector.ddot)
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        print(scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), [2.0, 1.0]).tolist())
    """)
    assert out.splitlines() == ["True True True True True", "[0.5, 0.0]"]


def test_no_command_loads_lapack(tmp_path):
    out = _run(f"tmp = {str(tmp_path)!r}\n", """
        import contextlib, io
        from ggmwatch.cli import main
        np.savetxt(tmp + "/rows.csv", np.full((30, 20), 0.1), delimiter=",")
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.suppress(SystemExit):
                main(["--version"])
            codes = [
                main(["gen", "sparse", "--p", "20", "--density", "0.1", "--seed", "1",
                      "--out", tmp + "/m.txt"]),
                main(["monitor", "--oracle_matrix", tmp + "/m.txt", "--w", "10",
                      "--input", tmp + "/rows.csv"]),
                main(["experiment", "fa-calibration", "--preset", "fig1-desk",
                      "--replicates", "2", "--jobs", "1", "--out", tmp + "/fa"]),
            ]
        print(codes, "scipy.linalg._flapack" in sys.modules)
    """)
    assert out.splitlines() == ["[0, 0, 0] False"]


def test_a_threshold_solve_loads_only_the_ufuncs():
    out = _run("""
        from ggmwatch import critical_value_exact
        print(critical_value_exact(0.05, 10, 20) > 0)
        print("scipy.special._special_ufuncs" in sys.modules, "scipy.special" in sys.modules)
    """)
    assert out.splitlines() == ["True", "True False"]


def test_scipy_special_after_a_solve():
    out = _run("""
        from ggmwatch import critical_value_exact, threshold
        first = critical_value_exact(0.05, 30, 40)
        import scipy.special
        print(all(getattr(scipy.special, name) is getattr(threshold.special, name)
                  for name in ("erfc", "gammaln", "gammaincinv", "gammainccinv")))
        print(scipy.special.gamma(3.0))  # scipy.special._ufuncs initialised
        threshold._tail.cache_clear()
        threshold._quadrature.cache_clear()
        print(critical_value_exact(0.05, 30, 40).hex() == first.hex())
    """)
    assert out.splitlines() == ["True", "2.0", "True"]


def test_a_missing_file_names_the_path():
    with pytest.raises(ImportError, match=r"_no_such_module\.") as info:
        scipy_extension("linalg._no_such_module")
    assert os.path.join("scipy", "linalg", "_no_such_module") in info.value.path
    assert "scipy.linalg._no_such_module" not in sys.modules
