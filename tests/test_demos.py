"""Smoke test of the demo scripts: each runs to completion and prints."""

import os
import pathlib
import subprocess
import sys

import pytest

import linial

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = str(pathlib.Path(linial.__file__).resolve().parent.parent)

# modular_oracle.py is left out: it takes seconds, the others well under one
FAST_DEMOS = ["alcove_counts", "exceptional_tables", "roots_on_a_line", "shift_calculus"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
