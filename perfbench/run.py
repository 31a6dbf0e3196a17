#!/usr/bin/env python3
"""Benchmark runner for swainval's three paper workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` sets up several times, then repeats whole passes over the
workload's ops until ``--seconds`` have elapsed (at least one pass), and
prints the end-to-end metrics.  ``--trace 1`` makes one untraced pass and
one pass with spans at every layer boundary, and prints the per-layer
metrics, including the tracing overhead.  Both then run the correctness
gate outside the timing: a wrong verdict prints ``"correct": false`` and
exits 1.  The last stdout line is the JSON result; a results file with the
per-op verdicts, node and LP-iteration counts, the environment and (traced)
the spans is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Node counts depend on the BLAS thread count (a 2-thread OpenBLAS changes
# the pivots), so every run uses one thread; set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import swainval; "
                "print(time.perf_counter() - t)")


def _git_sha() -> str:
    """The checkout's commit, read without running git; "unknown" if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _op_quartiles(records: list[dict], failed: tuple) -> tuple[float, float]:
    """Median and 75th percentile of the op times (inclusive interpolation).

    A failed op counts as missing any latency limit, so it enters with the
    slowest op time of the run and ranks after every op that completed."""
    slowest = max(r["ms"] for r in records)
    times = [slowest if r["verdict"] in failed else r["ms"] for r in records]
    _, p50, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return p50, p75


def _flat(passes: list[list[dict]]) -> list[dict]:
    return [rec for records in passes for rec in records]


def _import_s() -> float:
    """Median time to import swainval in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def _set_up(workload, seed: int) -> tuple[object, float]:
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def _timed_pass(workload, state, log) -> tuple[list[dict], float]:
    log.take()  # drop the set-up's solves
    start = time.perf_counter()
    records = workload.run(state, log)
    return records, time.perf_counter() - start


def _untraced(workload, args, log) -> dict:
    from workloads import FAILED_VERDICTS
    import_s = _import_s()
    setups = [_set_up(workload, args.seed) for _ in range(SETUP_REPEATS)]
    state = setups[-1][0]
    passes, pass_times = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        records, seconds = _timed_pass(workload, state, log)
        passes.append(records)
        pass_times.append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p75 = _op_quartiles(_flat(passes), FAILED_VERDICTS)
    metrics = {
        "setup_s": import_s + statistics.median(s for _, s in setups),
        "pass_s": statistics.median(pass_times),
        "op_ms_p50": p50,
        "op_ms_p75": p75,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"passes": passes, "metrics": metrics, "pass_times": pass_times,
            "gate": workload.check(state, passes[0], False)}


def _traced(workload, args, log) -> dict:
    import swainval
    from spans import Tracer, install_layer_spans, layer_metrics
    state, _ = _set_up(workload, args.seed)
    baseline, baseline_s = _timed_pass(workload, state, log)

    tracer = Tracer()
    install_layer_spans(tracer, swainval)
    try:
        state, _ = _set_up(workload, args.seed)
        run_from = len(tracer.spans)
        records, traced_s = _timed_pass(workload, state, log)
        gate_from = len(tracer.spans)
        gate = workload.check(state, records, True)
    finally:
        tracer.close()
    spans = tracer.spans
    metrics = layer_metrics(spans[:run_from], spans[run_from:gate_from],
                            spans[gate_from:], workload.alarm_delay(records))
    metrics["trace.overhead_s"] = traced_s - baseline_s
    return {"passes": [baseline, records], "metrics": metrics,
            "pass_times": [baseline_s, traced_s], "gate": gate,
            "spans": [s.to_json(tracer.origin) for s in spans]}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swainval" / "__init__.py").is_file():
        print(f"perfbench: no swainval sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import swainval
    if Path(swainval.__file__).resolve().parent != SRC / "swainval":
        print(f"perfbench: swainval was imported from {swainval.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from spans import SolveLog
    from workloads import FAILED_VERDICTS, WORKLOADS
    workload = WORKLOADS[args.workload]
    log = SolveLog(swainval)
    try:
        out = (_traced if args.trace else _untraced)(workload, args, log)
    finally:
        log.close()

    gate = out["gate"]
    passes = out["passes"]
    decided = [[(r["op"], r["verdict"]) for r in p
                if r["verdict"] not in FAILED_VERDICTS] for p in passes]
    if any(d != decided[0] for d in decided[1:]):
        gate.problems.append("decided verdicts differ between passes")
    records = _flat(passes)
    failed = sum(r["verdict"] in FAILED_VERDICTS for r in records)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(out["metrics"]):
        raise RuntimeError(f"metrics {sorted(out['metrics'])} do not match "
                           f"the {section} list of BENCHMARK.json")
    metrics = {name: {"value": float(out["metrics"][name]), "unit": unit}
               for name, unit in units.items()}

    environment = _environment()
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "metrics": metrics,
              "pass_s": out["pass_times"], "passes": passes,
              "problems": gate.problems, "notes": gate.notes}
    if "spans" in out:
        detail["spans"] = out["spans"]
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print("environment " + json.dumps(environment))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:12.4f} {m['unit']}")
    print(f"{'failed_frac':32s} {failed / len(records):12.4f} "
          f"({failed} of {len(records)} ops)")
    for note in gate.notes:
        print(f"note: {note}")
    for problem in gate.problems:
        print(f"WRONG: {problem}")
    print(json.dumps({"correct": not gate.problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if not gate.problems else 1


if __name__ == "__main__":
    sys.exit(main())
