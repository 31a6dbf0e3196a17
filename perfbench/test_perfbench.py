"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Each workload is run untraced and traced (about four minutes in all).  The
per-op node and LP-iteration counts are what later changes may cite, so they
must repeat exactly between the runs at the pinned BLAS thread count, and
tracing must not change them.  The runner must also refuse to report
anything when the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _op_counts(workload: str, trace: int) -> list[list[tuple]]:
    path = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    detail = json.loads(path.read_text())
    assert detail["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    return [[(r["op"], r["verdict"], r["nodes"], r["lp_iterations"])
             for r in records] for records in detail["passes"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly_and_metrics_match_the_spec(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    passes = _op_counts(workload, 0) + _op_counts(workload, 1)
    assert all(p == passes[0] for p in passes[1:])


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
