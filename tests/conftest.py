import os
import sys
from pathlib import Path

# make the sibling reference module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# the CLI tests start `python -m cordseg` in child interpreters; let them find
# the package in src/ the same way pytest's `pythonpath` setting does here
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
