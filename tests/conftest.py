"""Run the tests against this checkout's ``src``, in subprocesses as well,
with one BLAS thread.

``pythonpath`` in pyproject.toml covers the test process itself; a test
that starts ``python -m swainval...`` needs the path in its environment.

The BLAS thread count changes the dual simplex's pivots (see the
BLAS-thread ``FOUND`` entry of ``CHANGES.md``), so every BLAS variable that
is unset is pinned to one thread, as ``perfbench/run.py`` does; the pivot
and node counts the tests assert are then the benchmark's.  This must run
before numpy is imported, and neither pytest nor Hypothesis imports it
before this file.
"""

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
