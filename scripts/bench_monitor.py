#!/usr/bin/env python3
"""Time the radiant receding-horizon monitor on two source trees.

    python3 scripts/bench_monitor.py --parent REV [--pairs 5] [--passes 3]
                                     [--out BENCH_monitor.json]

Run from the root of a git checkout.  The parent is ``git archive REV``
unpacked in a temporary directory; the change is this checkout's ``src/``.
The monitor is ``run_receding(radiant, trace, horizon)`` on the trace of
``inject_persistent_fault(radiant, radiantFault, onset=15, seed=0)``: 43
samples at horizon 3 (the benchmark's radiant-monitor workload) and 40 at
the paper's horizon 8.

Each pair runs one child process per tree, the parent first in even pairs
and the change first in odd ones.  A child makes one untimed pass per case
(it fills the encoding-template cache, as the benchmark's set-up does) and
then ``--passes`` timed ones, with one BLAS thread.  The file records per
case and tree the median pass seconds over all timed passes, the LP
iterations and nodes of one pass, and the alarms.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = (("radiant-monitor-h3", 3, 43), ("radiant-monitor-h8", 8, 40))
ONSET = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def measure(passes: int) -> dict:
    """Time the cases on the ``swainval`` found on ``sys.path``."""
    import swainval as sv
    from swainval import encoder

    solves = []
    solve_milp = encoder.solve_milp

    def logged(*args, **kwargs):
        result = solve_milp(*args, **kwargs)
        solves.append(result)
        return result

    encoder.solve_milp = logged
    system, fault = sv.builtin_pair("radiant")
    out = {}
    for name, horizon, samples in CASES:
        trace = sv.inject_persistent_fault(system, fault, onset=ONSET,
                                           total=samples, seed=0)
        sv.run_receding(system, trace, horizon)
        seconds = []
        for _ in range(passes):
            solves.clear()
            start = time.perf_counter()
            report = sv.run_receding(system, trace, horizon)
            seconds.append(time.perf_counter() - start)
        out[name] = {"pass_s": seconds,
                     "lp_iterations": sum(s.lp_iterations for s in solves),
                     "nodes": sum(w.nodes for w in report.results),
                     "windows": len(report.results),
                     "alarms": len(report.alarms),
                     "first_alarm": report.first_alarm,
                     "verdicts": [w.verdict for w in report.results]}
    return out


def run_child(src: Path, passes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_THREAD_VARS})
    done = subprocess.run(
        [sys.executable, __file__, "--measure", "--passes", str(passes)],
        env=env, cwd=src.parent, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(parent: str, pairs: int, passes: int) -> dict:
    sha = subprocess.run(["git", "rev-parse", parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_child(trees[side], passes))
    import numpy
    import scipy
    result = {
        "what": "run_receding(radiant, trace, horizon), trace from "
                f"inject_persistent_fault(onset={ONSET}, seed=0); medians "
                f"over {pairs} child processes x {passes} timed passes",
        "command": f"python3 scripts/bench_monitor.py --parent {parent} "
                   f"--pairs {pairs} --passes {passes}",
        "parent": sha,
        "environment": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "blas_threads": 1},
        "cases": {},
    }
    for name, horizon, samples in CASES:
        case = {"horizon": horizon, "samples": samples, "onset": ONSET}
        for side, side_runs in runs.items():
            first = side_runs[0][name]
            if any(r[name]["verdicts"] != first["verdicts"] for r in side_runs):
                raise RuntimeError(f"{side} {name}: verdicts differ between runs")
            case[side] = {
                "pass_s_median": statistics.median(
                    s for r in side_runs for s in r[name]["pass_s"]),
                **{key: first[key] for key in ("lp_iterations", "nodes",
                                               "windows", "alarms",
                                               "first_alarm")}}
        if runs["parent"][0][name]["verdicts"] != runs["change"][0][name]["verdicts"]:
            raise RuntimeError(f"{name}: the verdicts of the two trees differ")
        case["speedup"] = (case["parent"]["pass_s_median"]
                           / case["change"]["pass_s_median"])
        result["cases"][name] = case
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1",
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_monitor.json"))
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.passes)))
        return
    result = compare(args.parent, args.pairs, args.passes)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, case in result["cases"].items():
        print(f"{name}: parent {case['parent']['pass_s_median']:.3f} s, "
              f"{case['parent']['lp_iterations']} LP iterations; change "
              f"{case['change']['pass_s_median']:.3f} s, "
              f"{case['change']['lp_iterations']} LP iterations "
              f"({case['speedup']:.2f}x)")


if __name__ == "__main__":
    main()
