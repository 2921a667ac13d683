"""Every worked example in ``demos/`` runs to the end on the current library API.

Each demo's standard output is pinned in ``demo_stdout/<stem>.txt``: a change
that moves a printed number, or a line, shows here. To re-pin after an
intended change, run the demo from an empty directory and save its stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import electrend

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    # demo 04 writes demo_out/ into its working directory
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    assert result.stdout == (HERE / "demo_stdout" / f"{demo.stem}.txt").read_text(encoding="utf-8")
