"""The demos run to completion against the library in ``src/``.

Each runs in a subprocess from a temporary directory, so whatever it writes
lands there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_exact_curves.py", "02_soft_curves_and_gradients.py",
                                  "03_benchmark_scaling.py"])
def test_demo_exits_cleanly(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

