"""Smoke runs of the two experiment scripts, each in a fresh interpreter."""

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


def test_crosscheck_generators():
    proc = run_script("crosscheck_generators.py", "--to", "4")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")
    assert [row.split(":")[0] for row in rows] == ["n=1", "n=2", "n=3", "n=4"]
    assert all(" entry diffs=0 " in row and " ok (" in row for row in rows)


def test_reproduce_growth_table():
    proc = run_script("reproduce_growth_table.py", "--to", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert [line.split()[0] for line in lines[1:-1]] == ["2", "3", "4"]
    assert lines[-1] == "all bounds hold"
