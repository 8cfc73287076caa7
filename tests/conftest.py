import json
import os
from pathlib import Path

import numpy as np
import pytest

from ggmwatch import gen_chain_precision, invert_spd

# the environment of a subprocess that imports the package from this checkout
SRC_ENV = dict(os.environ)
SRC_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), SRC_ENV.get("PYTHONPATH")])
)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse one JSON value, refusing the ``NaN`` and ``Infinity`` tokens that
    Python's json module writes and reads by default but JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_ndjson(text: str) -> list:
    """Parse each line of ``text`` with :func:`strict_json`."""
    return [strict_json(line) for line in text.splitlines()]


@pytest.fixture(scope="session")
def chain5():
    return gen_chain_precision(5, 0.5)


@pytest.fixture(scope="session")
def chain5_cov(chain5):
    return invert_spd(chain5.entries)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
