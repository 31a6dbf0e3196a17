"""The LP-file bridge to external solvers, driven through a stand-in for
``subprocess.run`` that answers with handmade protocol text, and the
in-process HiGHS backend behind ``python -m swainval.external``, run for
real."""

import os
import subprocess

import numpy as np
import pytest

from swainval import external
from swainval.detector import inject_persistent_fault
from swainval.encoder import encode_invalidation
from swainval.examples import builtin_pair
from swainval.external import (ExternalSolverError, solve_lp_problem_with_scipy,
                               solve_with_command)
from swainval.milp import WITNESS_TOL, MilpProblem, Witness, export_lp, verify
from swainval.solver import (BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE,
                             SolverConfig, solve_milp)

from test_solver import random_mip


def small_problem(rhs: float = 1.5) -> MilpProblem:
    p = MilpProblem("small")
    p.add_continuous("x", 0.0, 2.0)
    p.add_binary("b")
    p.add_constraint("r", [(1.0, "x"), (1.0, "b")], ">=", rhs)
    return p.seal()


class FakeRun:
    """Records each call; answers with ``stdout`` or raises ``error``."""

    def __init__(self, stdout: str = "", error: Exception | None = None):
        self.stdout, self.error = stdout, error
        self.calls: list[list[str]] = []

    def __call__(self, argv, **kwargs):
        self.calls.append(list(argv))
        assert os.path.exists(argv[-1])  # the exported LP file
        if self.error is not None:
            raise self.error
        return subprocess.CompletedProcess(argv, 0, stdout=self.stdout, stderr="")


@pytest.fixture()
def fake_run(monkeypatch):
    def install(**kwargs) -> FakeRun:
        fake = FakeRun(**kwargs)
        monkeypatch.setattr(external.subprocess, "run", fake)
        return fake
    return install


def test_timeout_is_an_undecided_solve(fake_run):
    fake = fake_run(error=subprocess.TimeoutExpired("solver", 10.0))
    res = solve_with_command(small_problem(), "solver", time_limit=1.0)
    assert res.status == BUDGET_EXCEEDED
    assert res.message == "external: timed out"
    argv = fake.calls[0]
    assert argv[:3] == ["solver", "--time-limit", "1.0"]
    assert not os.path.exists(argv[-1])


def test_malformed_witness_value_is_a_solver_error(fake_run):
    fake = fake_run(stdout="FEASIBLE\nx not-a-number\nb 1\n")
    with pytest.raises(ExternalSolverError, match="bad witness value"):
        solve_with_command(small_problem(), "solver")
    assert not os.path.exists(fake.calls[0][-1])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_witness_value_is_a_solver_error(fake_run, value):
    fake_run(stdout=f"FEASIBLE\nx {value}\nb 1\n")
    with pytest.raises(ExternalSolverError, match="is not finite"):
        solve_with_command(small_problem(), "solver")


def test_witness_is_verified_before_it_is_accepted(fake_run):
    fake_run(stdout="FEASIBLE\nx 0.75\nb 1\n")
    res = solve_with_command(small_problem(), "solver")
    assert res.status == FEASIBLE and res.witness["x"] == 0.75
    fake_run(stdout="FEASIBLE\nx 0.75\nb 0\n")
    with pytest.raises(ExternalSolverError, match="fails verification"):
        solve_with_command(small_problem(), "solver")


def test_solve_milp_dispatches_on_the_config(fake_run):
    fake = fake_run(stdout="INFEASIBLE\n")
    res = solve_milp(small_problem(),
                     SolverConfig(external_command="solver --flag",
                                  time_limit=2.0))
    assert res.status == INFEASIBLE and res.message == "external: infeasible"
    assert fake.calls[0][:4] == ["solver", "--flag", "--time-limit", "2.0"]


def radiant_windows() -> list[MilpProblem]:
    """A healthy and a faulty radiant window (fault from sample 15)."""
    system, fault = builtin_pair("radiant")
    trace = inject_persistent_fault(system, fault, onset=15, total=20, seed=0)
    return [encode_invalidation(system, trace.window(a, b)).problem.seal()
            for a, b in ((2, 6), (15, 19))]


def test_highs_agrees_with_the_bundled_solver():
    problems = [random_mip(np.random.default_rng(seed)) for seed in range(6)]
    statuses = []
    for p in problems + radiant_windows():
        highs = solve_lp_problem_with_scipy(p)
        assert highs.status == solve_milp(p).status
        if highs.status == FEASIBLE:
            ok, violations = verify(p, highs.witness, tol=WITNESS_TOL)
            assert ok, violations
        statuses.append(highs.status)
    assert statuses[-2:] == [FEASIBLE, INFEASIBLE]
    assert {FEASIBLE, INFEASIBLE} <= set(statuses[:-2])


@pytest.mark.parametrize("rhs, status", [(1.5, FEASIBLE), (3.5, INFEASIBLE)])
def test_main_speaks_the_protocol(tmp_path, capsys, rhs, status):
    p = small_problem(rhs)
    path = tmp_path / "small.lp"
    path.write_text(export_lp(p))
    assert external.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    if status == INFEASIBLE:
        assert lines == ["INFEASIBLE"]
        return
    assert lines[0] == "FEASIBLE"
    pairs = [line.split() for line in lines[1:]]
    assert [name for name, _ in pairs] == list(p.variable_names)
    witness = Witness({name: float(value) for name, value in pairs})
    assert verify(p, witness, tol=WITNESS_TOL)[0]
