"""The quick demos run to completion as scripts.

``04_simulation_study.py`` is left out for its run time; the experiment
tests cover its code path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tuckerfactor

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_tensor_basics.py",
    "02_noiseless_recovery.py",
    "03_rank_selection.py",
    "05_files_and_cli.py",
])
def test_demo_runs(name, tmp_path):
    src = str(Path(tuckerfactor.__file__).parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # temporary work directories are removed again
    assert not any(tmp_path.iterdir())
