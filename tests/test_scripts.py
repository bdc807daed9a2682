"""Smoke runs of the scripts in scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args, header", [
    ("residual_survey.py", ("--n-max", "3", "--trials", "1"), "adjugate_identity"),
])
def test_script_runs(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert header in done.stdout.splitlines()[0]
    assert done.stderr == ""
