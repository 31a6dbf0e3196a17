"""Receding-horizon monitoring: soundness, alarm bounds, streaming parity."""

import gc
import weakref

import numpy as np
import pytest

from swainval import detectability, detector, encoder
from swainval.detectability import find_T
from swainval.encoder import (CONSISTENT, _window_template,
                              check_invalidation)
from swainval.examples import builtin_pair, numeric_family, numeric_system
from swainval.milp import verify
from swainval.detector import (DetectionReport, StreamingDetector,
                               inject_persistent_fault, run_receding,
                               run_streaming)
from swainval.model import (AffineMode, DimensionError, HyperRectangle,
                            RandomPolicy, SwitchedAffineModel, Trajectory,
                            simulate_random)
from swainval.solver import (SolverConfig, SolverSession, check_certificate,
                             solve_milp)
from test_golden_lp import FAULT, SYSTEM


def box(radius: float, dim: int) -> HyperRectangle:
    return HyperRectangle([-radius] * dim, [radius] * dim)


def autonomous(modes, state_r=2.0, noise_r=0.0) -> SwitchedAffineModel:
    return SwitchedAffineModel(modes, state_set=box(state_r, modes[0].n),
                               noise_set=box(noise_r, modes[0].n_y),
                               input_set=HyperRectangle([], []))


def scalar_mode(a: float, f: float) -> AffineMode:
    return AffineMode.certain(A=[[a]], B=np.zeros((1, 0)), C=[[1.0]], f=[f])


def halving_model() -> SwitchedAffineModel:
    return autonomous([scalar_mode(0.5, 0.0)])


def halving_data(n: int = 10) -> Trajectory:
    y = (0.5 ** np.arange(n)).reshape(-1, 1)
    return Trajectory(np.zeros((n, 0)), y)


def tampered_data(n: int = 10, at: int = 5) -> Trajectory:
    traj = halving_data(n)
    y = traj.outputs.copy()
    y[at] *= 1.5
    return Trajectory(traj.inputs, y)


@pytest.fixture()
def guarantee_pair():
    """Zero-drift system vs a drifting/jumping fault, wide state box.

    The box is wide enough that state bounds never bind during injection
    runs, so the detectable horizon is set by the output noise band alone.
    """
    system = autonomous([scalar_mode(1.0, 0.0)], state_r=30.0, noise_r=0.1)
    fault = autonomous([scalar_mode(1.0, 0.15), scalar_mode(1.0, 1.0)],
                       state_r=30.0, noise_r=0.1)
    return system, fault


class TestRecedingBasics:
    def test_clean_trace_raises_no_alarms(self):
        report = run_receding(halving_model(), halving_data(10), 2)
        assert report.alarms == () and report.first_alarm is None
        assert report.undecided == () and not report.halted
        assert tuple(r.k for r in report.results) == tuple(range(2, 10))
        assert all(r.verdict == "consistent" for r in report.results)

    def test_alarms_cover_every_window_containing_the_tamper(self):
        report = run_receding(halving_model(), tampered_data(10, at=5), 2)
        assert report.alarms == (5, 6, 7)
        assert report.first_alarm == 5

    def test_halt_on_first_alarm_stops_the_sweep(self):
        report = run_receding(halving_model(), tampered_data(10, at=5), 2,
                              halt_on_first_alarm=True)
        assert report.halted and report.first_alarm == 5
        assert tuple(r.k for r in report.results) == (2, 3, 4, 5)

    def test_short_trajectory_yields_no_windows(self):
        report = run_receding(halving_model(), halving_data(3), 5)
        assert report.results == () and report.first_alarm is None
        assert report.notes and "shorter" in report.notes[0]

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            run_receding(halving_model(), halving_data(5), 0)

    def test_misfit_columns_raise_dimension_error(self):
        two_outputs = Trajectory(np.zeros((5, 0)), np.zeros((5, 2)))
        with pytest.raises(DimensionError):
            run_receding(halving_model(), two_outputs, 2)

    def test_budget_exhaustion_is_surfaced_not_swallowed(self):
        report = run_receding(halving_model(), halving_data(8), 2,
                              config=SolverConfig(node_limit=0))
        assert report.alarms == ()
        assert report.undecided == tuple(range(2, 8))


class TestAlarmGuarantee:
    def test_persistent_faults_alarm_within_the_detectable_horizon(
            self, guarantee_pair):
        system, fault = guarantee_pair
        rep = find_T(system, fault, t_max=8)
        assert rep.verdict == "yes" and rep.horizon == 3
        T = rep.horizon
        onset, total = 6, 16
        for seed in range(10):
            traj = inject_persistent_fault(
                system, fault, onset=onset, total=total, seed=seed,
                policy=RandomPolicy(initial_box=box(2.0, 1)))
            report = run_receding(system, traj, T)
            assert report.undecided == ()
            assert report.first_alarm is not None, f"seed {seed} never alarmed"
            # windows ending before the onset hold only healthy data
            assert report.first_alarm >= onset, f"seed {seed} false alarm"
            assert report.first_alarm <= onset + T - 1, (
                f"seed {seed}: alarm at {report.first_alarm}, "
                f"bound {onset + T - 1}")

    def test_clean_runs_of_the_same_length_stay_silent(self, guarantee_pair):
        system, _ = guarantee_pair
        for seed in range(5):
            traj = inject_persistent_fault(
                system, system, onset=16, total=16, seed=seed,
                policy=RandomPolicy(initial_box=box(2.0, 1)))
            report = run_receding(system, traj, 3)
            assert not report.alarms and not report.undecided, \
                f"seed {seed} raised {report.alarms}"


class TestStreaming:
    def test_streaming_matches_batch_verdicts_exactly(self, guarantee_pair):
        system, fault = guarantee_pair
        traj = inject_persistent_fault(
            system, fault, onset=5, total=14, seed=3,
            policy=RandomPolicy(initial_box=box(2.0, 1)))
        batch = run_receding(system, traj, 3)
        stream = run_streaming(system, zip(traj.inputs, traj.outputs), 3)
        assert [(r.k, r.verdict, r.nodes) for r in stream.results] == \
               [(r.k, r.verdict, r.nodes) for r in batch.results]
        assert stream.alarms == batch.alarms

    def test_pending_until_first_window_completes(self):
        det = StreamingDetector(halving_model(), 3)
        data = halving_data(6)
        verdicts = [det.push(u, y) for u, y in zip(data.inputs, data.outputs)]
        assert verdicts[:3] == ["pending"] * 3
        assert verdicts[3:] == ["consistent"] * 3
        assert tuple(r.k for r in det.report().results) == (3, 4, 5)

    def test_streaming_halt_stops_consuming_samples(self):
        data = tampered_data(10, at=5)
        feed = iter(zip(data.inputs, data.outputs))
        report = run_streaming(halving_model(), feed, 2,
                               halt_on_first_alarm=True)
        assert report.halted and report.first_alarm == 5
        assert next(feed, None) is not None  # samples after the alarm unread

    def test_streaming_accepts_none_inputs_for_autonomous_models(self):
        det = StreamingDetector(halving_model(), 1)
        data = halving_data(3)
        verdicts = [det.push(None, y) for y in data.outputs]
        assert verdicts == ["pending", "consistent", "consistent"]

    @pytest.mark.parametrize("u, y, message", [
        (None, [1.0, 2.0], "sample 1 has 2 output columns, model expects 1"),
        ([0.5], [1.0], "sample 1 has 1 input columns, model expects 0")])
    def test_push_rejects_a_misfit_sample(self, u, y, message):
        det = StreamingDetector(halving_model(), 1)
        assert det.push(None, [1.0]) == "pending"
        with pytest.raises(DimensionError, match=message):
            det.push(u, y)
        # the rejected sample is not consumed
        assert det.push(None, [0.5]) == "consistent"
        assert tuple(r.k for r in det.report().results) == (1,)

    def test_push_rejects_a_missing_input_on_a_model_with_inputs(self):
        model = numeric_family(3)
        data, _ = simulate_random(model, seed=0, steps=3,
                                  policy=RandomPolicy(input_box=box(1.0, 1)))
        det = StreamingDetector(model, 2)
        with pytest.raises(DimensionError,
                           match="sample 0 has 0 input columns, model expects 1"):
            det.push(None, data.outputs[0])
        # the rejected sample is not consumed
        verdicts = [det.push(u, y) for u, y in zip(data.inputs, data.outputs)]
        assert verdicts == ["pending", "pending", "consistent"]
        assert tuple(r.k for r in det.report().results) == (2,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_push_rejects_a_non_finite_sample(self, bad):
        det = StreamingDetector(halving_model(), 1)
        assert det.push(None, [1.0]) == "pending"
        with pytest.raises(ValueError, match="sample 1: y_1 is"):
            det.push(None, [bad])
        # the rejected sample is not consumed
        assert det.push(None, [0.5]) == "consistent"
        assert tuple(r.k for r in det.report().results) == (1,)


class TestCsv:
    def test_csv_layout(self):
        report = run_receding(halving_model(), tampered_data(8, at=4), 2)
        lines = report.to_csv().splitlines()
        assert lines[0] == "k,verdict,solve_ms,nodes"
        assert len(lines) == 1 + len(report.results)
        for line, r in zip(lines[1:], report.results):
            k, verdict, ms, nodes = line.split(",")
            assert int(k) == r.k and verdict == r.verdict
            assert float(ms) >= 0.0 and int(nodes) == r.nodes
        assert report.to_csv().endswith("\n")


class TestInjection:
    def test_onset_marks_the_first_fault_generated_sample(self):
        system = autonomous([scalar_mode(1.0, 0.0)], state_r=100.0)
        fault = autonomous([scalar_mode(1.0, 1.0)], state_r=100.0)
        traj = inject_persistent_fault(
            system, fault, onset=3, total=6, seed=0,
            policy=RandomPolicy(initial_state=np.zeros(1)))
        assert np.allclose(traj.outputs.ravel(), [0, 0, 0, 1, 2, 3])

    def test_onset_zero_is_pure_fault_data(self):
        system = autonomous([scalar_mode(1.0, 0.0)], state_r=100.0)
        fault = autonomous([scalar_mode(1.0, 1.0)], state_r=100.0)
        traj = inject_persistent_fault(
            system, fault, onset=0, total=5, seed=1,
            policy=RandomPolicy(initial_state=np.zeros(1)))
        assert np.allclose(np.diff(traj.outputs.ravel()), 1.0)

    def test_onset_equal_to_total_is_pure_healthy_data(self):
        system = autonomous([scalar_mode(1.0, 0.0)], state_r=100.0)
        fault = autonomous([scalar_mode(1.0, 1.0)], state_r=100.0)
        traj = inject_persistent_fault(
            system, fault, onset=5, total=5, seed=2,
            policy=RandomPolicy(initial_state=np.zeros(1)))
        assert len(traj) == 5 and np.allclose(traj.outputs, 0.0)

    def test_bad_onset_rejected(self):
        model = halving_model()
        with pytest.raises(ValueError):
            inject_persistent_fault(model, model, onset=7, total=5, seed=0)
        with pytest.raises(ValueError):
            inject_persistent_fault(model, model, onset=-1, total=5, seed=0)

    def test_injection_is_deterministic_in_the_seed(self, guarantee_pair):
        system, fault = guarantee_pair
        kwargs = dict(onset=4, total=12, seed=9,
                      policy=RandomPolicy(initial_box=box(2.0, 1)))
        a = inject_persistent_fault(system, fault, **kwargs)
        b = inject_persistent_fault(system, fault, **kwargs)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.inputs, b.inputs)

    def test_fault_segment_follows_fault_dynamics(self, guarantee_pair):
        system, fault = guarantee_pair
        traj = inject_persistent_fault(
            system, fault, onset=6, total=16, seed=4,
            policy=RandomPolicy(initial_box=box(2.0, 1)))
        y = traj.outputs.ravel()
        # healthy drift is zero, so the prefix stays inside the noise band
        assert np.ptp(y[:6]) <= 0.4 + 1e-12
        # the fault drifts upward by at least 0.15 per step
        assert y[-1] - y[6] >= 0.15 * 9 - 0.4 - 1e-12


@pytest.fixture(scope="module")
def radiant_trace():
    """The radiant monitor's trace: radiantFault from sample 15 on."""
    system, fault = builtin_pair("radiant")
    return system, inject_persistent_fault(system, fault, onset=15, total=43,
                                           seed=0)


class TestWindowTemplates:
    """A monitor binds each window from one cached encoding template."""

    @pytest.mark.parametrize("horizon", [3, 8])
    def test_monitor_verdicts_match_cold_checks(self, radiant_trace, horizon):
        system, trace = radiant_trace
        report = run_receding(system, trace, horizon)
        assert report.first_alarm == 15
        for window in report.results:
            _window_template.cache_clear()
            cold = check_invalidation(
                system, trace.window(window.k - horizon, window.k + 1))
            assert (window.verdict, window.nodes) == (cold.verdict,
                                                      cold.solve.nodes)

    def test_forty_windows_build_one_envelope(self, radiant_trace,
                                              monkeypatch):
        built, init = [], encoder._Side.__init__

        def counted(side, model, n_samples, *args):
            built.append(n_samples)
            init(side, model, n_samples, *args)

        monkeypatch.setattr(encoder._Side, "__init__", counted)
        system, trace = radiant_trace
        _window_template.cache_clear()
        report = run_receding(system, trace, 3)
        assert len(report.results) == 40
        assert built == [4]


def monitor_cases() -> list:
    """(model, trace, horizon) of three monitors: radiant shares one matrix
    over all its windows; numeric3 has inputs, so each window gets its own
    template; the golden model gates its outputs, so its matrix changes
    with every window."""
    system, fault = builtin_pair("radiant")
    policy = RandomPolicy(input_box=HyperRectangle([-1.0], [1.0]))
    return [
        pytest.param(system, inject_persistent_fault(
            system, fault, onset=15, total=43, seed=0), 3, id="radiant"),
        pytest.param(numeric_family(3), inject_persistent_fault(
            numeric_family(3), numeric_system(), onset=8, total=20, seed=0,
            policy=policy), 4, id="numeric3"),
        pytest.param(SYSTEM, inject_persistent_fault(
            SYSTEM, FAULT, onset=6, total=14, seed=0), 3, id="golden"),
    ]


class TestSolverSession:
    """A monitor keeps one solver session over its windows; each window's
    first LP starts from the basis the last window ended in."""

    @pytest.mark.parametrize("model, trace, horizon", monitor_cases())
    def test_monitor_verdicts_match_cold_checks(self, model, trace, horizon,
                                                monkeypatch):
        results, check = [], detector.check_invalidation

        def recording(*args, **kwargs):
            results.append(check(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(detector, "check_invalidation", recording)
        report = run_receding(model, trace, horizon)
        assert report.alarms and len(report.alarms) < len(report.results)
        for window, res in zip(report.results, results):
            cold = check_invalidation(
                model, trace.window(window.k - horizon, window.k + 1))
            assert res.verdict == cold.verdict
            problem = res.encoding.problem
            if res.verdict == CONSISTENT:
                assert verify(problem, res.solve.witness)[0]
            if res.solve.certificate is not None:
                assert check_certificate(problem, res.solve.certificate)

    def test_a_monitor_pass_takes_at_most_half_the_cold_pivots(
            self, radiant_trace, monkeypatch):
        system, trace = radiant_trace
        cold = sum(check_invalidation(system, trace.window(k - 3, k + 1))
                   .solve.lp_iterations for k in range(3, len(trace)))
        solves, solve_milp = [], encoder.solve_milp

        def logged(*args, **kwargs):
            solves.append(solve_milp(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(encoder, "solve_milp", logged)
        run_receding(system, trace, 3)
        # 550 against 1,416: the 28 invalidated windows' proof LPs take
        # about 30 pivots each from the slack basis
        assert len(solves) == 40
        assert sum(s.lp_iterations for s in solves) <= cold / 2

    def test_one_shot_calls_carry_no_hidden_state(self, radiant_trace,
                                                  monkeypatch):
        system, trace = radiant_trace
        fault = builtin_pair("radiant")[1]
        problem = encoder.encode_invalidation(
            system, trace.window(25, 29)).problem.seal()
        probes, probe = [], detectability.solve_milp

        def logged(*args, **kwargs):
            probes.append(probe(*args, **kwargs))
            return probes[-1]

        monkeypatch.setattr(detectability, "solve_milp", logged)

        def one_shot() -> list:
            probes.clear()
            assert find_T(system, fault, t_max=2).verdict == "notUpTo"
            checks = [check_invalidation(system, trace.window(k - 3, k + 1))
                      for k in (8, 20)]
            assert [c.verdict for c in checks] == ["consistent", "invalidated"]
            return ([c.solve for c in checks] + [solve_milp(problem)]
                    + probes)

        before = one_shot()
        sessions, init = [], SolverSession.__init__

        def tracked(session):
            init(session)
            sessions.append(weakref.ref(session))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SolverSession, "__init__", tracked)
            run_receding(system, trace.window(0, 25), 3)
        gc.collect()
        # the monitor's session went with its detector: no cache holds one
        assert len(sessions) == 1 and sessions[0]() is None
        after = one_shot()
        assert len(before) == len(after) == 5
        for a, b in zip(before, after):
            assert (a.status, a.nodes, a.lp_iterations, a.witness,
                    a.certificate) == (b.status, b.nodes, b.lp_iterations,
                                       b.witness, b.certificate)


def test_report_is_a_value_object():
    r = DetectionReport(3, ())
    assert r.alarms == r.undecided == () and r.first_alarm is None
