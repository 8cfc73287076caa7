"""The benchmark's own test: every workload once at tiny sizes, traced and
untraced, with every metric of BENCHMARK.json emitted with its unit.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository root.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
