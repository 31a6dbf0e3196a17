"""Minimal-horizon search, fixed-horizon pair checks and the shared
behaviours they decode."""

import itertools
import logging
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from swainval import detectability
from swainval.detectability import (TDetectabilityResult,
                                    check_t_detectability, find_T)
from swainval.encoder import (CONSISTENT, BadIndicator, ExplicitWords,
                              StructuredTuple, check_invalidation)
from swainval.examples import builtin_pair, load_builtin, scenario_specs
from swainval.model import (AffineMode, HyperRectangle, SwitchedAffineModel,
                            Trajectory)
from swainval.solver import SolverConfig

from oracles import pair_feasible_by_enumeration

EXTERNAL = f"{sys.executable} -m swainval.external"


def box(radius: float, dim: int) -> HyperRectangle:
    return HyperRectangle([-radius] * dim, [radius] * dim)


def autonomous(modes, state_r=2.0, noise_r=0.0) -> SwitchedAffineModel:
    return SwitchedAffineModel(modes, state_set=box(state_r, modes[0].n),
                               noise_set=box(noise_r, modes[0].n_y),
                               input_set=HyperRectangle([], []))


def scalar_mode(a: float, f: float) -> AffineMode:
    return AffineMode.certain(A=[[a]], B=np.zeros((1, 0)), C=[[1.0]], f=[f])


@pytest.fixture()
def contracting_pair():
    """Same fixed point, different contraction rates: detectable at T=2."""
    return (autonomous([scalar_mode(0.5, 0.5)]),
            autonomous([scalar_mode(0.25, 0.5)]))


@pytest.fixture()
def drift_jump_pair():
    """Fault mode 1 drifts by 0.15/step, mode 2 jumps by 1; noise +-0.1."""
    system = autonomous([scalar_mode(1.0, 0.0)], state_r=6.0, noise_r=0.1)
    fault = autonomous([scalar_mode(1.0, 0.15), scalar_mode(1.0, 1.0)],
                       state_r=6.0, noise_r=0.1)
    return system, fault


class TestFindT:
    def test_minimal_horizon_with_full_trail(self, contracting_pair):
        rep = find_T(*contracting_pair, t_max=10)
        assert rep.verdict == "yes" and rep.horizon == 2
        assert rep.detectable is True
        assert rep.per_t_status[1] == "feasible"
        assert rep.per_t_status[2] == "infeasible"
        assert rep.monotonicity_recheck == "infeasible"
        assert rep.witness_at_last_feasible is not None
        assert all(t in rep.wall_times for t in rep.per_t_status)

    def test_trail_matches_enumeration_oracle(self, contracting_pair):
        system, fault = contracting_pair
        rep = find_T(system, fault, t_max=6)
        for T, status in rep.per_t_status.items():
            expect = pair_feasible_by_enumeration(system, fault, T)
            assert (status == "feasible") == expect

    def test_identical_models_never_split(self, contracting_pair):
        system, _ = contracting_pair
        rep = find_T(system, system, t_max=5)
        assert rep.verdict == "notUpTo" and rep.searched_up_to == 5
        assert rep.detectable is False and rep.horizon is None
        assert all(s == "feasible" for s in rep.per_t_status.values())

    def test_search_window_is_respected(self, contracting_pair):
        rep = find_T(*contracting_pair, t0=3, t_max=10)
        assert rep.verdict == "yes" and rep.horizon == 3  # smallest in range
        assert 1 not in rep.per_t_status and 2 not in rep.per_t_status
        with pytest.raises(ValueError):
            find_T(*contracting_pair, t0=0)
        with pytest.raises(ValueError):
            find_T(*contracting_pair, t0=5, t_max=4)

    def test_budget_exhaustion_reports_undecided(self, contracting_pair):
        rep = find_T(*contracting_pair, t_max=5,
                     config=SolverConfig(node_limit=0))
        assert rep.verdict == "undecided" and rep.undecided_at == 1
        assert rep.detectable is None

    def test_time_limit_bounds_the_whole_search(self, contracting_pair,
                                                monkeypatch):
        # one tick per clock reading; every probe is feasible and records
        # the time limit it was given
        ticks = itertools.count()
        monkeypatch.setattr(detectability, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        limits = []

        def feasible_probe(system, fault, T, *, indicator=None, config=None):
            limits.append(config.time_limit)
            return TDetectabilityResult(T, "feasible", None, None, 0.0)

        monkeypatch.setattr(detectability, "check_t_detectability",
                            feasible_probe)
        rep = find_T(*contracting_pair, t_max=3,
                     config=SolverConfig(time_limit=100.0))
        assert rep.verdict == "notUpTo" and len(limits) == 3
        assert 100.0 > limits[0] > limits[1] > limits[2] > 0.0

    def test_spent_time_limit_reports_undecided(self, contracting_pair):
        rep = find_T(*contracting_pair, t_max=5,
                     config=SolverConfig(time_limit=0.0))
        assert rep.verdict == "undecided" and rep.undecided_at == 1

    def test_external_backend_agrees(self, contracting_pair):
        internal = find_T(*contracting_pair, t_max=5)
        external = find_T(*contracting_pair, t_max=5,
                          config=SolverConfig(external_command=EXTERNAL))
        assert external.verdict == internal.verdict == "yes"
        assert external.horizon == internal.horizon
        assert external.per_t_status == internal.per_t_status

    def test_text_and_json_round_trip(self, contracting_pair):
        rep = find_T(*contracting_pair, t_max=5)
        text = rep.to_text()
        assert text.startswith("T=2")
        assert "T=1: feasible" in text
        import json
        blob = json.loads(rep.to_json())
        assert blob["verdict"] == "yes" and blob["horizon"] == 2
        idem = json.loads(find_T(*contracting_pair, t_max=5).to_json())
        idem.pop("wall_times"), blob.pop("wall_times")  # timing may vary
        assert idem == blob

    def test_every_probe_logs_one_record(self, caplog):
        system, fault = builtin_pair("sensorScenario1", uncertainty=False)
        with caplog.at_level(logging.INFO, logger="swainval.detectability"):
            rep = find_T(system, fault)
        records = [r for r in caplog.records
                   if r.name == "swainval.detectability"]
        assert rep.verdict == "yes" and rep.horizon == 1
        assert [r.levelno for r in records] == [logging.INFO] * 2
        # T=1 is infeasible, then the re-check at T=2
        for record, T in zip(records, sorted(rep.per_t_status)):
            text = record.getMessage()
            assert text.startswith(f"find_T probe T={T}: {rep.per_t_status[T]}, ")
            assert re.search(r", \d+ nodes, \d+\.\d{3} s$", text)

    def test_sensor_scenario_3_matches_its_spec(self):
        # its T=3 re-check used to stop on a singular basis
        spec = {s.name: s for s in scenario_specs()}["sensor-scenario-3"]
        system, fault = builtin_pair("sensorScenario3",
                                     uncertainty=spec.uncertainty)
        rep = find_T(system, fault, t_max=5)
        assert rep.verdict == "yes"
        assert f"T={rep.horizon}" == spec.expected
        assert rep.monotonicity_recheck == "infeasible"


SCENARIO_5_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the bundled solver finds shared behaviour at T=1 and T=2, so "
           "find_T gives T=3 against the spec's T=2 (known defect)")


@pytest.mark.parametrize("spec", [
    pytest.param(s, id=s.name,
                 marks=SCENARIO_5_DEFECT if s.name == "sensor-scenario-5" else ())
    for s in scenario_specs() if s.name.startswith("sensor-scenario-")])
def test_find_t_meets_the_sensor_scenario_spec(spec):
    # the shipped assets are the bundled models of the same name
    system = load_builtin(spec.system_model_path.stem, uncertainty=spec.uncertainty)
    fault = load_builtin(spec.fault_model_path.stem, uncertainty=spec.uncertainty)
    rep = find_T(system, fault, t_max=max(spec.horizon_grid))
    assert rep.verdict == "yes"
    assert f"T={rep.horizon}" == spec.expected


class TestFindTWeak:
    """find_T under an indicator on the change model's early modes."""

    def test_weak_is_no_harder_than_strong(self, drift_jump_pair):
        system, fault = drift_jump_pair
        strong = find_T(system, fault, t_max=8)
        weak = find_T(system, fault,
                      indicator=StructuredTuple([2], 1, 1, "="), t_max=8)
        # the fault can start 0.2 below and drift up through the noise band,
        # so unrestricted it hides for two transitions
        assert strong.verdict == "yes" and strong.horizon == 3
        assert weak.verdict == "yes" and weak.horizon == 1
        assert weak.horizon <= strong.horizon

    def test_an_empty_counting_indicator_never_reaches_the_search(
            self, drift_jump_pair):
        # "fewer than 0 jumps" admits no mode word, so every probe would be
        # infeasible and the search would claim T=1
        system, fault = drift_jump_pair
        with pytest.raises(BadIndicator):
            find_T(system, fault, indicator=StructuredTuple([2], 1, 0, "<"),
                   t_max=4)
        # "fewer than 1 jump" is no jump at step 0: the drift still hides
        # for two transitions
        rep = find_T(system, fault, indicator=StructuredTuple([2], 1, 1, "<"),
                     t_max=4)
        assert rep.per_t_status[1] == "feasible"
        assert rep.verdict == "yes" and rep.horizon == 3

    def test_prefix_band_weakens_early_horizons(self, drift_jump_pair):
        system, fault = drift_jump_pair
        late = StructuredTuple([2], window=3, count=2, relation=">")
        rep = find_T(system, fault, indicator=late, t_max=6)
        # at T=1 the prefix may still contain zero jumps, so it hides;
        # at T=2 at least one jump must already have happened
        assert rep.per_t_status[1] == "feasible"
        assert rep.verdict == "yes" and rep.horizon == 2

    def test_word_indicator_inside_the_search(self, drift_jump_pair):
        system, fault = drift_jump_pair
        rep = find_T(system, fault, indicator=ExplicitWords([(2,), (1,)]),
                     t_max=4)
        # the drift word keeps the escape open, so the answer matches the
        # unrestricted search
        assert rep.per_t_status[1] == "feasible"
        assert rep.verdict == "yes" and rep.horizon == 3
        assert rep.horizon == find_T(system, fault, t_max=4).horizon


class TestSwitchedCertificate:
    """A feasible check at a cap witnesses non-detectability up to it."""

    def test_self_pair_yields_a_witness_at_the_cap(self, contracting_pair):
        system, _ = contracting_pair
        cert = check_t_detectability(system, system, 4)
        assert cert.status == "feasible" and cert.detectable is False
        assert cert.behavior is not None
        assert cert.behavior.outputs.shape == (5, 1)

    def test_detectable_pair_fails_the_cap(self, contracting_pair):
        cert = check_t_detectability(*contracting_pair, 3)
        assert cert.status == "infeasible" and cert.detectable is True
        assert cert.behavior is None

    def test_disjoint_input_sets_are_reported(self):
        mode = AffineMode.certain(A=[[0.5]], B=[[1.0]], C=[[1.0]], f=[0.0])
        g1 = SwitchedAffineModel([mode], state_set=box(2, 1),
                                 noise_set=box(0.1, 1),
                                 input_set=HyperRectangle([0.0], [1.0]))
        g2 = SwitchedAffineModel([mode], state_set=box(2, 1),
                                 noise_set=box(0.1, 1),
                                 input_set=HyperRectangle([2.0], [3.0]))
        res = check_t_detectability(g1, g2, 3)
        assert res.status == "infeasible" and res.detectable is True
        assert "input sets" in res.note


# every feasible probe of the paper's pairs (radiant with uncertainty,
# the ideal sensor scenarios); T=2 is infeasible for scenarios 3 and 4
PAPER_FEASIBLE_PROBES = (
    [("radiant", True, T) for T in range(1, 7)]
    + [("sensorScenario3", False, 1), ("sensorScenario4", False, 1)]
    + [("sensorScenario5", False, T) for T in (1, 2)])


@pytest.mark.parametrize("pair,uncertainty,T", PAPER_FEASIBLE_PROBES,
                         ids=[f"{p}-T{T}" for p, _, T in PAPER_FEASIBLE_PROBES])
def test_shared_behaviour_is_consistent_with_both_models(pair, uncertainty, T):
    # the pair encoder's witness must replay through the invalidation
    # encoder of each model on its own
    system, fault = builtin_pair(pair, uncertainty=uncertainty)
    res = check_t_detectability(system, fault, T)
    assert res.status == "feasible"
    data = Trajectory(res.behavior.inputs, res.behavior.outputs)
    for model in (system, fault):
        assert check_invalidation(model, data).verdict == CONSISTENT
