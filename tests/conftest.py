import os
import sys
from pathlib import Path

import pytest

from cordseg import parallel

# make the sibling reference module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# the CLI tests start `python -m cordseg` in child interpreters; let them find
# the package in src/ the same way pytest's `pythonpath` setting does here
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def cores(monkeypatch):
    """Sets the cores cordseg sees; no user BLAS count divides them."""
    for name in parallel._BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return lambda count: monkeypatch.setattr(parallel, "available_cores", lambda: count)
