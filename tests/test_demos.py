"""Run every demo script end to end in a child interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert DEMOS  # an empty parametrize would pass silently


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    # conftest.py puts src/ on PYTHONPATH for child interpreters
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stdout + out.stderr
