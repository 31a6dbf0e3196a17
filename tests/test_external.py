"""The LP-file bridge to external solvers, driven through a stand-in for
``subprocess.run`` that answers with handmade protocol text."""

import os
import subprocess

import pytest

from swainval import external
from swainval.external import ExternalSolverError, solve_with_command
from swainval.milp import MilpProblem
from swainval.solver import (BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE,
                             SolverConfig, solve_milp)


def small_problem() -> MilpProblem:
    p = MilpProblem("small")
    p.add_continuous("x", 0.0, 2.0)
    p.add_binary("b")
    p.add_constraint("r", [(1.0, "x"), (1.0, "b")], ">=", 1.5)
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
