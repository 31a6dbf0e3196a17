"""Run the tests against this checkout's ``src``, in subprocesses as well.

``pythonpath`` in pyproject.toml covers the test process itself; a test
that starts ``python -m swainval...`` needs the path in its environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
