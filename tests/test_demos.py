"""The fast demos run to completion against the current API.

Demos 05 and 06 train federations (about 14 s and 10 s on one core)
and write under ``runs/`` in the working directory; they stay out of
this suite, and CI runs them in a step of their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = (
    "01_synthetic_bias.py",
    "02_prompted_encoder.py",
    "03_demographic_subspace.py",
    "04_fairness_metrics.py",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
