"""Minimal-horizon search, observability tools and converse certificates."""

import itertools
import logging
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from swainval import detectability
from swainval.detectability import (AffineConverseReport, DetectabilityReport,
                                    TDetectabilityResult,
                                    affine_never_detectable,
                                    check_t_detectability, concatenated_system,
                                    find_T, is_observable, matrix_rank_scaled,
                                    observability_matrix)
from swainval.encoder import BadIndicator, ExplicitWords, StructuredTuple
from swainval.examples import builtin_pair, load_builtin, scenario_specs
from swainval.model import (AffineMode, HyperRectangle, SimulationDraw,
                            SwitchedAffineModel, simulate)
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


class TestObservability:
    def test_hand_stacked_blocks(self):
        model = autonomous([scalar_mode(2.0, 0.0), scalar_mode(3.0, 0.0)],
                           state_r=100.0)
        mat = observability_matrix(model, [0, 1, 0])
        assert np.allclose(mat, [[1.0], [2.0], [6.0]])

    def test_rank_uses_a_scaled_threshold(self):
        assert matrix_rank_scaled(np.diag([1.0, 1e-7])) == 2
        assert matrix_rank_scaled(np.diag([1e9, 1e-3])) == 1
        assert matrix_rank_scaled(np.zeros((3, 2))) == 0

    def test_unobservable_direction_detected(self):
        hidden = AffineMode.certain(A=[[0.5, 0.0], [0.0, 0.7]],
                                    B=np.zeros((2, 0)), C=[[1.0, 0.0]],
                                    f=[0.0, 0.0])
        model = autonomous([hidden])
        assert not is_observable(model, [0, 0, 0, 0])
        seeing = AffineMode.certain(A=[[0.5, 0.1], [0.0, 0.7]],
                                    B=np.zeros((2, 0)), C=[[1.0, 0.0]],
                                    f=[0.0, 0.0])
        assert is_observable(autonomous([seeing]), [0, 0])

    def test_sequence_validation(self):
        model = autonomous([scalar_mode(1.0, 0.0)])
        with pytest.raises(ValueError):
            observability_matrix(model, [])
        with pytest.raises(ValueError):
            observability_matrix(model, [1])


def similarity_pair(seed: int = 0):
    """The same affine system written in two coordinate frames."""
    rng = np.random.default_rng(seed)
    A = 0.8 * rng.normal(size=(2, 2)) / max(1.0, np.max(np.abs(
        np.linalg.eigvals(rng.normal(size=(2, 2))))))
    A = np.array([[0.5, 0.1], [0.0, 0.8]]) if seed == 0 else A * 0.5
    f = rng.normal(size=2) * 0.3
    C = rng.normal(size=(1, 2))
    S = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
    Sinv = np.linalg.inv(S)
    orig = AffineMode.certain(A=A, B=np.zeros((2, 0)), C=C, f=f)
    tran = AffineMode.certain(A=S @ A @ Sinv, B=np.zeros((2, 0)),
                              C=C @ Sinv, f=S @ f)
    mk = lambda m: autonomous([m], state_r=50.0)
    return mk(orig), mk(tran)


class TestAffineConverse:
    def test_similarity_transform_is_never_detectable(self):
        rep = affine_never_detectable(*similarity_pair())
        assert rep.never_detectable and rep.milp_status == "feasible"
        assert rep.residual <= 1e-9

    def test_distinct_offsets_are_detectable(self):
        rep = affine_never_detectable(autonomous([scalar_mode(0.5, 1.0)], 50.0),
                                      autonomous([scalar_mode(0.5, 2.0)], 50.0))
        assert not rep.never_detectable and rep.milp_status == "infeasible"
        assert rep.initial_states is None

    def test_null_vector_reproduces_matched_outputs(self):
        ga, gb = similarity_pair()
        rep = affine_never_detectable(ga, gb)
        cat = concatenated_system(ga, gb)
        x0, xb0 = rep.initial_states
        z0 = np.concatenate([x0, [1.0], xb0, [1.0]])
        N = 12
        zeros = SimulationDraw(z0, (0,) * N, np.zeros((N, 1)),
                               np.zeros((N, cat.n, cat.n)),
                               np.zeros((N, cat.n, 0)),
                               np.zeros((N, 1, cat.n)),
                               np.zeros((N, cat.n)))
        diff = simulate(cat, np.zeros((N, 0)), zeros, check_bounds=False)
        assert np.max(np.abs(diff.outputs)) <= 1e-9

    def test_paths_agree_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for trial in range(12):
            if trial % 3 == 0:
                ga, gb = similarity_pair(seed=trial)
                expect = True
            else:
                mk = lambda: autonomous([AffineMode.certain(
                    A=0.6 * rng.normal(size=(2, 2)) / 2.0,
                    B=np.zeros((2, 0)), C=rng.normal(size=(1, 2)),
                    f=0.4 * rng.normal(size=2))], state_r=50.0)
                ga, gb = mk(), mk()
                expect = None  # unknown, but the two paths must still agree
            rep = affine_never_detectable(ga, gb)  # raises if the paths split
            if expect is not None:
                assert rep.never_detectable == expect

    def test_scope_validation(self):
        two_modes = autonomous([scalar_mode(0.5, 0.0), scalar_mode(0.6, 0.0)])
        single = autonomous([scalar_mode(0.5, 0.0)])
        with pytest.raises(ValueError):
            affine_never_detectable(two_modes, single)
        uncertain = SwitchedAffineModel(
            [AffineMode(A=[[0.5]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0],
                        hatA=[[0.1]], hatB=np.zeros((1, 0)),
                        hatC=[[0.0]], hatf=[0.0])],
            state_set=box(2, 1), noise_set=box(0, 1),
            input_set=HyperRectangle([], []))
        with pytest.raises(ValueError):
            affine_never_detectable(single, uncertain)
        driven = SwitchedAffineModel(
            [AffineMode.certain(A=[[0.5]], B=[[1.0]], C=[[1.0]], f=[0.0])],
            state_set=box(2, 1), noise_set=box(0, 1), input_set=box(1, 1))
        with pytest.raises(ValueError):
            affine_never_detectable(driven, driven)


class TestConcatenatedSystem:
    def test_block_structure(self):
        ga = autonomous([scalar_mode(0.5, 0.3), scalar_mode(0.7, 0.0)])
        gb = autonomous([scalar_mode(0.9, 0.1)])
        cat = concatenated_system(ga, gb)
        assert cat.s == 2 and cat.n == 4 and cat.n_y == 1
        A = cat.modes[0].A
        assert A[0, 0] == 0.5 and A[0, 1] == 0.3 and A[1, 1] == 1.0
        assert A[2, 2] == 0.9 and A[2, 3] == 0.1 and A[3, 3] == 1.0
        assert np.all(A[:2, 2:] == 0.0) and np.all(A[2:, :2] == 0.0)
        assert np.allclose(cat.modes[0].C, [[1.0, 0.0, -1.0, 0.0]])
        assert not cat.state_set.is_bounded


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
