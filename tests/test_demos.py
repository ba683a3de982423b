"""The demos and the example INI file run to completion.

Each demo runs as its own process from a scratch working directory, so any
files it writes land there.  ``demos/04_cost_accounting.py`` is left out:
it takes about 18 s, several times the other three together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "script",
    ["01_tensor_train_basics.py", "02_ground_state_sweeps.py", "03_two_level_solver.py"],
)
def test_demo_runs(script, tmp_path):
    done = run([str(DEMOS / script)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_example_config_runs(tmp_path):
    done = run(["-m", "ttdmrg.cli", "run", str(DEMOS / "tfim10.ini")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "runs" / "summary.json").is_file()
