"""Smoke run of the experiment script in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_reproduce_growth_table():
    proc = run_script("reproduce_growth_table.py", "--to", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert [line.split()[0] for line in lines[1:-1]] == ["2", "3", "4"]
    assert lines[-1] == "all bounds hold"
