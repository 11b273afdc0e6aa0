"""Smoke test: each quick narrated demo runs to completion.

The demos call the public model and data API the way a reader would, so a
signature change that breaks one shows up here. `05_training_demo.py` is
left out: it trains two models and takes over a minute, too slow for the
tier-1 suite. The CI `demos` job runs all five, that one included; by hand,
`python demos/05_training_demo.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_feature_extraction.py",
    "02_shift_invariance.py",
    "03_noise_mixing.py",
    "04_gradient_check.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # the demos write their files under tempfile.mkdtemp()
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
