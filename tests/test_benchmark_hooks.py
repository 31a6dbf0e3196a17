"""The names the benchmark's hooks patch must carry every solve.

``perfbench/spans.py`` counts solves by wrapping ``solve_milp`` at its
import sites in ``encoder`` and ``detectability`` and wraps each layer's
other entry points the same way.  A refactor that solves through any other
name would leave windows or probes without a logged solve; these checks
catch that here instead of in the full benchmark run.
"""

import sys
from pathlib import Path

import pytest

import swainval as sv
from swainval.solver import SolveResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import SolveLog, Tracer, install_layer_spans
    log, tracer = SolveLog(sv), Tracer()
    try:
        install_layer_spans(tracer, sv)
        yield log, tracer
    finally:
        tracer.close()
        log.close()


def spans_named(tracer, name: str) -> list:
    return [s for s in tracer.spans if s.name == name]


def test_one_logged_solve_per_monitor_window(hooks):
    log, tracer = hooks
    system, fault = sv.builtin_pair("radiant")
    trace = sv.inject_persistent_fault(system, fault, onset=3, total=6, seed=0)
    report = sv.run_receding(system, trace, 3)
    solves = log.take()
    assert len(report.results) == 3
    assert len(solves) == len(report.results)
    assert all(isinstance(s, SolveResult) for s in solves)
    assert [s.nodes for s in solves] == [w.nodes for w in report.results]
    windows = spans_named(tracer, "encoder.check_invalidation")
    assert len(windows) == len(report.results)
    assert len(spans_named(tracer, "solver.solve_milp")) == len(solves)


def test_one_logged_solve_per_find_t_probe(hooks):
    log, tracer = hooks
    system, fault = sv.builtin_pair("sensorScenario1", uncertainty=False)
    report = sv.find_T(system, fault)
    solves = log.take()
    assert report.verdict == "yes"
    assert len(solves) == len(report.per_t_status) == 2
    assert all(isinstance(s, SolveResult) for s in solves)
    assert [s.status for s in solves] == \
        [report.per_t_status[T] for T in sorted(report.per_t_status)]
    probes = spans_named(tracer, "detectability.check_t_detectability")
    assert len(probes) == len(solves)
    assert len(spans_named(tracer, "solver.solve_milp")) == len(solves)


def test_hooks_are_removed_afterwards():
    from swainval import detectability, encoder, solver
    assert encoder.solve_milp is solver.solve_milp
    assert detectability.solve_milp is solver.solve_milp
    assert sv.find_T is detectability.find_T
