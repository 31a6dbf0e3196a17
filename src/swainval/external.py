"""Bridge to external MILP solvers through the LP file format.

Any command that accepts an LP file path as its last argument and prints

    FEASIBLE | INFEASIBLE | UNDECIDED
    <variable name> <value>          (one line per variable when feasible)

can serve as a drop-in feasibility backend: with it as
``SolverConfig.external_command``, ``solve_milp`` hands each problem to
``solve_with_command``, which exports it, runs the command and re-verifies
any witness against the original rows.  A time limit reaches the command as
``--time-limit <seconds>`` ahead of the path; after ``max(10, 3 x limit)``
seconds the command is stopped and the solve is undecided.  A failing
command or an unparseable answer raises ExternalSolverError.  The CLI reads
the command line from the environment variable ``SWAINVAL_EXTERNAL_SOLVER``.

This module is itself runnable — ``python -m swainval.external problem.lp``
solves the file with scipy's HiGhS-backed mixed-integer solver and speaks
the protocol above, so the package can act as its own external backend:

    SWAINVAL_EXTERNAL_SOLVER="python3 -m swainval.external"
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time

import numpy as np

from .milp import (EQ, GE, LE, WITNESS_TOL, MilpProblem, Witness, export_lp,
                   parse_lp, verify)
from .solver import BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE, SolveResult

__all__ = [
    "ExternalSolverError", "external_command_from_env",
    "solve_lp_problem_with_scipy", "solve_with_command", "main",
]

ENV_VAR = "SWAINVAL_EXTERNAL_SOLVER"


class ExternalSolverError(RuntimeError):
    """The external command failed or spoke an unparseable protocol."""


def external_command_from_env() -> str | None:
    cmd = os.environ.get(ENV_VAR, "").strip()
    return cmd or None


def _verified(problem: MilpProblem, witness: Witness, wall: float) -> SolveResult:
    """The FEASIBLE result of an external witness that passes ``verify`` at
    WITNESS_TOL; raises ExternalSolverError otherwise."""
    ok, violations = verify(problem, witness, tol=WITNESS_TOL)
    if not ok:
        raise ExternalSolverError(
            f"external witness fails verification: {violations[:3]}")
    return SolveResult(FEASIBLE, witness, nodes=0, lp_iterations=0,
                       wall_time=wall, message="external: feasible")


def solve_lp_problem_with_scipy(problem: MilpProblem,
                                time_limit: float | None = None) -> SolveResult:
    """Feasibility via scipy.optimize.milp on an already-built problem."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    A, rel, b, lower, upper, binary_mask, names = problem.to_arrays()
    n = len(names)
    start = time.perf_counter()
    if A.shape[0]:
        lb = np.where(rel == GE, b, np.where(rel == EQ, b, -np.inf))
        ub = np.where(rel == LE, b, np.where(rel == EQ, b, np.inf))
        constraints = [LinearConstraint(A, lb, ub)]
    else:
        constraints = []
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(c=np.zeros(n), constraints=constraints,
               integrality=binary_mask.astype(int),
               bounds=Bounds(np.asarray(lower), np.asarray(upper)),
               options=options)
    wall = time.perf_counter() - start
    if res.status == 2:
        return SolveResult(INFEASIBLE, None, nodes=0, lp_iterations=0,
                           wall_time=wall, message="external: infeasible")
    if res.x is not None:
        values = np.asarray(res.x, dtype=float)
        values[binary_mask] = np.round(values[binary_mask])
        return _verified(problem, Witness(dict(zip(names, map(float, values)))),
                         wall)
    return SolveResult(BUDGET_EXCEEDED, None, nodes=0, lp_iterations=0,
                       wall_time=wall,
                       message=f"external: undecided (scipy status {res.status})")


def _parse_protocol(problem: MilpProblem, text: str, wall: float) -> SolveResult:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ExternalSolverError("external solver produced no output")
    status = lines[0].upper()
    if status == "INFEASIBLE":
        return SolveResult(INFEASIBLE, None, nodes=0, lp_iterations=0,
                           wall_time=wall, message="external: infeasible")
    if status == "UNDECIDED":
        return SolveResult(BUDGET_EXCEEDED, None, nodes=0, lp_iterations=0,
                           wall_time=wall, message="external: undecided")
    if status != "FEASIBLE":
        raise ExternalSolverError(f"unrecognized status line {lines[0]!r}")
    values: dict[str, float] = {}
    for ln in lines[1:]:
        parts = ln.rsplit(None, 1)
        if len(parts) != 2:
            raise ExternalSolverError(f"bad witness line {ln!r}")
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            raise ExternalSolverError(f"bad witness value in {ln!r}") from None
    missing = [v for v in problem.variable_names if v not in values]
    if missing:
        raise ExternalSolverError(f"witness misses variables, e.g. {missing[:3]}")
    return _verified(problem,
                     Witness({v: values[v] for v in problem.variable_names}),
                     wall)


def solve_with_command(problem: MilpProblem, command: str,
                       time_limit: float | None = None) -> SolveResult:
    """Export, run the external command, parse and re-verify its answer."""
    if not problem.sealed:
        problem.seal()
    argv = shlex.split(command)
    if not argv:
        raise ExternalSolverError("empty external solver command")
    start = time.perf_counter()
    with tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False) as fh:
        fh.write(export_lp(problem))
        path = fh.name
    try:
        if time_limit is not None:
            argv = argv + ["--time-limit", str(float(time_limit))]
        try:
            proc = subprocess.run(argv + [path], capture_output=True, text=True,
                                  timeout=None if time_limit is None
                                  else max(10.0, 3 * float(time_limit)))
        except subprocess.TimeoutExpired:
            return SolveResult(BUDGET_EXCEEDED, None, nodes=0, lp_iterations=0,
                               wall_time=time.perf_counter() - start,
                               message="external: timed out")
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"external solver exited with {proc.returncode}: "
                f"{proc.stderr.strip()[:400]}")
        return _parse_protocol(problem, proc.stdout,
                               time.perf_counter() - start)
    finally:
        os.unlink(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m swainval.external",
        description="Solve an LP-format feasibility problem with scipy's "
                    "mixed-integer solver and print FEASIBLE/INFEASIBLE/"
                    "UNDECIDED plus a witness.")
    parser.add_argument("lp_file", help="problem in LP format")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="solver wall-clock budget in seconds")
    args = parser.parse_args(argv)
    with open(args.lp_file, "r", encoding="utf-8") as fh:
        problem = parse_lp(fh.read())
    problem.seal()
    res = solve_lp_problem_with_scipy(problem, time_limit=args.time_limit)
    if res.status == FEASIBLE:
        print("FEASIBLE")
        for name in problem.variable_names:
            print(f"{name} {res.witness[name]!r}")
    elif res.status == INFEASIBLE:
        print("INFEASIBLE")
    else:
        print("UNDECIDED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
