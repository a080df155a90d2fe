"""Every demo runs to completion.

Each demo runs in its own interpreter, as a reader would start it. The
preference-strength sweep is the slowest: 24 EM fits, about 13 s on one core
of a 2-vCPU shared Xeon.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "bimodal_population_two_atoms.py",
        "filter_noisy_annotators.py",
        "preference_strength_sweep.py",
    ],
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
