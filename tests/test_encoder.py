"""Encoder behaviour: consistency encodings, pair couplings, indicators."""

import numpy as np
import pytest

from swainval.detector import inject_persistent_fault
from swainval.encoder import (CONSISTENT, INVALIDATED, UNDECIDED, _WINDOWS,
                              _AbsCache, _RowSink, BadIndicator, BadMode,
                              CountBand, EmptyInputIntersection,
                              ExplicitWords, InputOutsideAdmissibleSet,
                              StructuredTuple, WindowTooLong, apply_indicator,
                              check_invalidation, decode_pair_witness,
                              encode_invalidation, encode_t_detectability,
                              prefix_indicator)
from swainval.examples import builtin_pair, numeric_family
from swainval.external import solve_lp_problem_with_scipy
from swainval.milp import EQ, LE, MilpProblem, Witness, export_lp, verify
from swainval.model import (AffineMode, DimensionError, HyperRectangle,
                            RandomPolicy, SwitchedAffineModel, Trajectory,
                            simulate, simulate_random)
from swainval.solver import FEASIBLE, INFEASIBLE, SolverConfig, solve_milp

from oracles import (consistent_by_enumeration, largest_big_m,
                     pair_feasible_by_enumeration)
from test_golden_lp import SYSTEM, WINDOW


def box(radius: float, dim: int) -> HyperRectangle:
    return HyperRectangle([-radius] * dim, [radius] * dim)


def autonomous(modes, state_r=5.0, noise_r=0.0, name="") -> SwitchedAffineModel:
    n = modes[0].n
    return SwitchedAffineModel(modes, state_set=box(state_r, n),
                               noise_set=HyperRectangle([-noise_r], [noise_r]),
                               input_set=HyperRectangle([], []), name=name)


def halving_model() -> SwitchedAffineModel:
    mode = AffineMode.certain(A=[[0.5]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0])
    return autonomous([mode], state_r=1.0, noise_r=0.0, name="halving")


def scalar_pair(f1: float, f2: float, noise_r: float = 0.1):
    mk = lambda f: autonomous(
        [AffineMode.certain(A=[[0.0]], B=np.zeros((1, 0)), C=[[1.0]], f=[f])],
        noise_r=noise_r)
    return mk(f1), mk(f2)


def solve_pair(system, fault, T, indicator=None, config=None):
    enc = encode_t_detectability(system, fault, T, indicator=indicator)
    enc.problem.seal()
    return enc, solve_milp(enc.problem, config or SolverConfig())


def random_certain_model(rng, s, n, n_u=0, n_y=1, noise_r=0.1, shared_c=False):
    """Random stable modes; with ``shared_c`` every mode has the first
    mode's output map (the draws are the same either way)."""
    modes = []
    for _ in range(s):
        A = rng.normal(size=(n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius > 1e-9:
            A *= 0.85 / max(radius, 0.85)
        B, C = rng.normal(size=(n, n_u)), rng.normal(size=(n_y, n))
        modes.append(AffineMode.certain(
            A=A, B=B, C=modes[0].C if shared_c and modes else C,
            f=0.3 * rng.normal(size=n)))
    return SwitchedAffineModel(
        modes, state_set=box(5.0, n), noise_set=box(noise_r, n_y),
        input_set=box(1.0, n_u))


class TestInvalidationBasics:
    def test_halving_window_consistent(self):
        traj = Trajectory(np.zeros((3, 0)), [[1.0], [0.5], [0.25]])
        res = check_invalidation(halving_model(), traj)
        assert res.verdict == CONSISTENT
        assert res.explanation.states[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_halving_tampered_sample_invalidated(self):
        traj = Trajectory(np.zeros((3, 0)), [[1.0], [0.9], [0.25]])
        res = check_invalidation(halving_model(), traj)
        assert res.verdict == INVALIDATED and res.solve.certificate is not None

    def test_single_sample_window(self):
        ok = check_invalidation(halving_model(), Trajectory(np.zeros((1, 0)), [[0.7]]))
        assert ok.verdict == CONSISTENT
        bad = check_invalidation(halving_model(), Trajectory(np.zeros((1, 0)), [[1.4]]))
        assert bad.verdict == INVALIDATED  # no state in X can produce this output

    def test_input_outside_admissible_set_short_circuits(self):
        mode = AffineMode.certain(A=[[0.5]], B=[[1.0]], C=[[1.0]], f=[0.0])
        model = SwitchedAffineModel([mode], state_set=box(2, 1),
                                    noise_set=box(0.1, 1), input_set=box(1, 1))
        traj = Trajectory([[0.0], [7.0]], [[0.0], [0.0]])
        res = check_invalidation(model, traj)
        assert res.verdict == INVALIDATED and res.solve is None
        assert "input sample 1" in res.reason
        with pytest.raises(InputOutsideAdmissibleSet):
            encode_invalidation(model, traj)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            encode_invalidation(halving_model(),
                                Trajectory(np.zeros((2, 0)), [[0.1, 0.2], [0.0, 0.0]]))

    def test_undecided_budget_is_surfaced(self):
        traj = Trajectory(np.zeros((3, 0)), [[1.0], [0.5], [0.25]])
        res = check_invalidation(halving_model(), traj,
                                 config=SolverConfig(node_limit=0))
        assert res.verdict == UNDECIDED
        assert "budget" in res.reason

    def test_every_step_has_mode_binaries_and_choice_row(self):
        # two output maps gate the out rows of every sample, the last too
        m1 = AffineMode.certain([[0.5]], np.zeros((1, 0)), [[1.0]], [0.0])
        m2 = AffineMode.certain([[0.2]], np.zeros((1, 0)), [[2.0]], [0.1])
        model = autonomous([m1, m2], noise_r=0.05)
        traj = Trajectory(np.zeros((4, 0)), [[0.1]] * 4)
        enc = encode_invalidation(model, traj)
        assert enc.binary_steps == (0, 1, 2, 3)
        names = set(enc.problem.variable_names)
        rows = {c.name for c in enc.problem.constraints}
        for k in range(4):
            assert f"mode[{k}]" in rows
            for i in (1, 2):
                assert f"a[{i}][{k}]" in names
                assert enc.var_index[("a", i, k)] == f"a[{i}][{k}]"

    def test_a_shared_certain_output_map_leaves_the_last_sample_unchosen(self):
        # one certain C: the last sample's mode gates no row, so it gets no
        # binaries and no choice row, and decodes as the mode before it
        m1 = AffineMode.certain([[0.5]], np.zeros((1, 0)), [[1.0]], [0.0])
        m2 = AffineMode.certain([[0.2]], np.zeros((1, 0)), [[1.0]], [0.1])
        model = autonomous([m1, m2], noise_r=0.01)
        # halved twice, then 0.2 x + 0.1: only the modes (1, 1, 2) fit
        y = [[0.5], [0.25], [0.125], [0.125]]
        res = check_invalidation(model, Trajectory(np.zeros((4, 0)), y))
        enc = res.encoding
        assert enc.binary_steps == (0, 1, 2)
        names = set(enc.problem.variable_names)
        rows = {c.name for c in enc.problem.constraints}
        assert "mode[3]" not in rows and "mode[2]" in rows
        assert not {"a[1][3]", "a[2][3]"} & names
        assert res.verdict == CONSISTENT
        assert res.explanation.mode_sequence == (0, 0, 1, 1)
        # a 1-sample window has no binaries at all and reports the first mode
        one = check_invalidation(model, Trajectory(np.zeros((1, 0)), [[0.1]]))
        assert one.encoding.binary_steps == () and one.verdict == CONSISTENT
        assert one.explanation.mode_sequence == (0,)


    def test_a_shared_certain_output_map_is_written_once_per_sample(self):
        C = [[1.0, 0.0], [0.5, 2.0]]
        modes = [AffineMode.certain(A, np.zeros((2, 0)), C, [0.0, 0.1])
                 for A in ([[0.5, 0.0], [0.0, 0.3]], [[0.2, 0.1], [0.0, 0.6]])]
        model = SwitchedAffineModel(modes, state_set=box(5.0, 2),
                                    noise_set=box(0.1, 2),
                                    input_set=HyperRectangle([], []))
        y = [[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]]
        enc = encode_invalidation(model, Trajectory(np.zeros((3, 0)), y))
        out = {c.name: c for c in enc.problem.constraints
               if c.name.startswith("out")}
        assert list(out) == [f"out[{k}][{q}]" for k in range(3) for q in range(2)]
        for k in range(3):
            for q in range(2):
                row = out[f"out[{k}][{q}]"]
                assert row.relation == "=" and row.rhs == y[k][q]
                assert row.terms == tuple(
                    [(C[q][j], f"x[{k}][{j}]") for j in range(2) if C[q][j]]
                    + [(1.0, f"eta[{k}][{q}]")])
        # a second output map gates every mode's rows again
        two_maps = SwitchedAffineModel(
            [modes[0], AffineMode.certain(modes[1].A, np.zeros((2, 0)),
                                          [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.1])],
            state_set=box(5.0, 2), noise_set=box(0.1, 2),
            input_set=HyperRectangle([], []))
        enc = encode_invalidation(two_maps, Trajectory(np.zeros((3, 0)), y))
        out = [c.name for c in enc.problem.constraints if c.name.startswith("out")]
        assert out == [f"out[{i}][{k}][{q}]{side}" for k in range(3)
                       for i in (1, 2) for q in range(2) for side in "+-"]


class TestInvalidationAgainstEnumeration:
    """Random certain models: most have one output map per mode, and with
    ``shared_c`` every mode has the same one, whose rows carry no gate."""

    def test_agrees_with_mode_enumeration(self):
        self.check(shared_c=False)

    def test_agrees_with_mode_enumeration_on_a_shared_output_map(self):
        self.check(shared_c=True)

    @staticmethod
    def check(shared_c: bool):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(25):
            s = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            n_u = int(rng.integers(0, 2))
            N = int(rng.integers(2, 7))
            model = random_certain_model(rng, s, n, n_u, shared_c=shared_c)
            if trial % 2 == 0:
                traj, _ = simulate_random(model, seed=trial, steps=N,
                                          policy=RandomPolicy())
            else:
                u = model.input_set.sample(rng) if n_u else np.zeros(0)
                traj = Trajectory(np.tile(u, (N, 1)),
                                  rng.uniform(-3, 3, size=(N, 1)))
            truth = consistent_by_enumeration(model, traj)
            res = check_invalidation(model, traj)
            assert res.verdict == (CONSISTENT if truth else INVALIDATED), \
                f"trial {trial}"
            checked += 1
        assert checked == 25


class TestSoundnessWithUncertainty:
    @pytest.fixture()
    def uncertain_model(self):
        m1 = AffineMode(A=[[0.6, 0.1], [0.0, 0.5]], B=[[1.0], [0.5]],
                        C=[[1.0, 0.0]], f=[0.1, 0.0],
                        hatA=[[0.05, 0.0], [0.0, 0.05]], hatB=[[0.1], [0.0]],
                        hatC=[[0.02, 0.0]], hatf=[0.01, 0.0])
        m2 = AffineMode(A=[[0.3, -0.2], [0.1, 0.7]], B=[[0.0], [1.0]],
                        C=[[1.0, 0.0]], f=[-0.1, 0.2], hatA=np.zeros((2, 2)),
                        hatB=np.zeros((2, 1)), hatC=np.zeros((1, 2)),
                        hatf=[0.0, 0.02])
        return SwitchedAffineModel([m1, m2], state_set=box(4, 2),
                                   noise_set=box(0.05, 1), input_set=box(1, 1))

    def test_simulated_windows_stay_consistent_and_replay(self, uncertain_model):
        for seed in range(30):
            traj, _ = simulate_random(uncertain_model, seed=seed, steps=6,
                                      policy=RandomPolicy())
            res = check_invalidation(uncertain_model, traj)
            assert res.verdict == CONSISTENT, f"seed {seed}: {res.reason}"
            draw = res.explanation.draw
            for arr in (draw.DA, draw.DB, draw.DC, draw.Df):
                assert np.all(np.abs(arr) <= 1.0 + 1e-9)
            replay = simulate(uncertain_model, traj.inputs, draw,
                              check_bounds=False)
            assert np.max(np.abs(replay.outputs - traj.outputs)) < 1e-6

    def test_observed_inputs_agree_with_highs(self, uncertain_model):
        """An observed input enters as a ZB product pinned to the point box
        of u_k.  Windows with inputs set to exactly 0 at some steps, some
        with a tampered output, get HiGHS's verdict on the same encoding;
        a consistent one decodes DB = 0 wherever u = 0 and replays."""
        verdicts = []
        for seed in range(10):
            traj, draw = simulate_random(uncertain_model, seed=seed, steps=6,
                                         policy=RandomPolicy())
            inputs = traj.inputs.copy()
            inputs[seed % 3::3] = 0.0
            clean = simulate(uncertain_model, inputs, draw, check_bounds=False)
            tampered = clean.outputs.copy()
            tampered[3, 0] += 0.1 + 0.4 * (seed % 4)
            for window in (clean, Trajectory(inputs, tampered)):
                res = check_invalidation(uncertain_model, window)
                highs = solve_lp_problem_with_scipy(res.encoding.problem.seal())
                assert highs.status in (FEASIBLE, INFEASIBLE)
                assert (res.verdict == CONSISTENT) == (highs.status == FEASIBLE), \
                    seed
                verdicts.append(res.verdict)
                if res.verdict != CONSISTENT:
                    continue
                # DB[k, r, c] multiplies u_k[c]
                DB = res.explanation.draw.DB.transpose(0, 2, 1)
                assert np.all(DB[window.inputs == 0.0] == 0.0)
                replay = simulate(uncertain_model, window.inputs,
                                  res.explanation.draw, check_bounds=False)
                assert np.max(np.abs(replay.outputs - window.outputs)) < 1e-6
        assert {"consistent", "invalidated"} <= set(verdicts)

    def test_tampered_uncertain_window_invalidated(self, uncertain_model):
        traj, _ = simulate_random(uncertain_model, seed=0, steps=6,
                                  policy=RandomPolicy())
        outputs = traj.outputs.copy()
        outputs[3, 0] = 3.9  # beyond what dynamics + noise can explain
        res = check_invalidation(uncertain_model, Trajectory(traj.inputs, outputs))
        assert res.verdict == INVALIDATED


class TestBigMDomination:
    """Sampled residuals of every gated row stay within the encoding's big-M
    wherever the encoding's own variable bounds allow the states."""

    def test_sampled_residuals_stay_below_big_m(self):
        rng = np.random.default_rng(3)
        m1 = AffineMode(A=[[0.6, 0.1], [0.0, 0.5]], B=[[1.0], [0.5]],
                        C=[[1.0, 0.3]], f=[0.1, 0.0],
                        hatA=0.05 * np.ones((2, 2)), hatB=[[0.1], [0.2]],
                        hatC=[[0.02, 0.01]], hatf=[0.01, 0.02])
        system = SwitchedAffineModel([m1], state_set=box(4, 2),
                                     noise_set=box(0.05, 1), input_set=box(1, 1))
        m2 = AffineMode.certain(A=[[0.3, -0.2], [0.1, 0.7]], B=[[0.0], [1.0]],
                                C=[[0.8, 0.1]], f=[-0.1, 0.2])
        fault = SwitchedAffineModel([m2], state_set=box(4, 2),
                                    noise_set=box(0.05, 1), input_set=box(1, 1))
        enc = encode_t_detectability(system, fault, 1)
        M = largest_big_m(enc.problem)

        def var_box(role: str, k: int) -> HyperRectangle:
            bounds = [enc.problem.bounds_of(v) for v in enc.var_index[(role, k)]]
            return HyperRectangle(*zip(*bounds))

        x_box, xb_box = var_box("x", 0), var_box("xb", 0)
        xn_box, xbn_box = var_box("x", 1), var_box("xb", 1)
        U = enc.input_set
        for _ in range(1000):
            x, xn = x_box.sample(rng), xn_box.sample(rng)
            xb, xbn = xb_box.sample(rng), xbn_box.sample(rng)
            u = U.sample(rng)
            e1, e2 = box(0.05, 1).sample(rng), box(0.05, 1).sample(rng)
            for model, state, nxt in ((system, x, xn), (fault, xb, xbn)):
                for mode in model.modes:
                    DA = rng.uniform(-1, 1, mode.hatA.shape)
                    DB = rng.uniform(-1, 1, mode.hatB.shape)
                    Df = rng.uniform(-1, 1, mode.hatf.shape)
                    step = ((mode.A + mode.hatA * DA) @ state
                            + (mode.B + mode.hatB * DB) @ u
                            + mode.f + mode.hatf * Df)
                    assert np.all(np.abs(nxt - step) <= M)
            for state, other in ((x, xb), (xn, xbn)):
                DC1 = rng.uniform(-1, 1, m1.hatC.shape)
                y1 = (m1.C + m1.hatC * DC1) @ state + e1
                y2 = m2.C @ other + e2
                assert np.all(np.abs(y1 - y2) <= M)


class TestPairEncoding:
    def test_distinct_offsets_detectable_at_one_step(self):
        g1, g2 = scalar_pair(1.0, 2.0)
        _, res = solve_pair(g1, g2, 1)
        assert res.status == INFEASIBLE

    def test_close_offsets_hide_inside_noise(self):
        g1, g2 = scalar_pair(1.0, 1.15, noise_r=0.1)  # gap 0.15 < 2 * 0.1
        _, res = solve_pair(g1, g2, 3)
        assert res.status == FEASIBLE

    def test_self_pair_always_feasible_with_replaying_witness(self):
        mode = AffineMode.certain(A=[[0.7, 0.1], [0.0, 0.4]], B=[[1.0], [0.3]],
                                  C=[[1.0, -1.0]], f=[0.0, 0.1])
        g = SwitchedAffineModel([mode], state_set=box(5, 2),
                                noise_set=box(0.1, 1), input_set=box(1, 1))
        for T in (1, 2, 4):
            enc, res = solve_pair(g, g, T)
            assert res.status == FEASIBLE
            beh = decode_pair_witness(enc, res.witness)
            for side, expl in (("system", beh.system), ("fault", beh.fault)):
                replay = simulate(g, beh.inputs, expl.draw, check_bounds=False)
                assert np.max(np.abs(replay.outputs - beh.outputs)) < 1e-6, side

    def test_uncertain_pair_witness_replays_on_both_sides(self):
        m1 = AffineMode(A=[[0.5]], B=[[1.0]], C=[[1.0]], f=[0.1],
                        hatA=[[0.05]], hatB=[[0.1]], hatC=[[0.0]], hatf=[0.02])
        g1 = SwitchedAffineModel([m1], state_set=box(3, 1),
                                 noise_set=box(0.05, 1), input_set=box(1, 1))
        m2 = AffineMode(A=[[0.45]], B=[[0.9]], C=[[1.0]], f=[0.12],
                        hatA=[[0.0]], hatB=[[0.0]], hatC=[[0.0]], hatf=[0.05])
        g2 = SwitchedAffineModel([m2], state_set=box(3, 1),
                                 noise_set=box(0.05, 1), input_set=box(1, 1))
        enc, res = solve_pair(g1, g2, 3)
        assert res.status == FEASIBLE
        beh = decode_pair_witness(enc, res.witness)
        for g, expl in ((g1, beh.system), (g2, beh.fault)):
            replay = simulate(g, beh.inputs, expl.draw, check_bounds=False)
            assert np.max(np.abs(replay.outputs - beh.outputs)) < 1e-6

    def test_detectability_is_monotone_in_the_horizon(self):
        mk = lambda a: autonomous(
            [AffineMode.certain(A=[[a]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.5])],
            state_r=2.0)
        g1, g2 = mk(0.5), mk(0.25)
        statuses = {}
        for T in (1, 2, 3, 4):
            _, res = solve_pair(g1, g2, T)
            statuses[T] = res.status
            assert res.status == (FEASIBLE if pair_feasible_by_enumeration(
                g1, g2, T) else INFEASIBLE)
        first_infeasible = min(T for T, s in statuses.items()
                               if s == "infeasible")
        assert all(statuses[T] == "feasible" for T in statuses if T < first_infeasible)
        assert all(statuses[T] == "infeasible" for T in statuses if T >= first_infeasible)

    def test_status_is_symmetric_in_the_pair(self):
        g1, g2 = scalar_pair(1.0, 1.3, noise_r=0.1)
        for T in (1, 2, 3):
            _, fwd = solve_pair(g1, g2, T)
            _, bwd = solve_pair(g2, g1, T)
            assert fwd.status == bwd.status

    def test_agrees_with_pair_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            s1 = int(rng.integers(1, 3))
            s2 = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            n_u = int(rng.integers(0, 2))
            T = int(rng.integers(1, 3))
            g1 = random_certain_model(rng, s1, n, n_u, noise_r=0.05)
            g2 = random_certain_model(rng, s2, n, n_u, noise_r=0.05)
            _, res = solve_pair(g1, g2, T)
            assert res.status == (FEASIBLE if pair_feasible_by_enumeration(
                g1, g2, T) else INFEASIBLE), f"trial {trial}"

    def test_empty_input_intersection_raises(self):
        mode = AffineMode.certain(A=[[0.5]], B=[[1.0]], C=[[1.0]], f=[0.0])
        g1 = SwitchedAffineModel([mode], state_set=box(2, 1),
                                 noise_set=box(0.1, 1),
                                 input_set=HyperRectangle([0.0], [1.0]))
        g2 = SwitchedAffineModel([mode], state_set=box(2, 1),
                                 noise_set=box(0.1, 1),
                                 input_set=HyperRectangle([2.0], [3.0]))
        with pytest.raises(EmptyInputIntersection):
            encode_t_detectability(g1, g2, 2)

    def test_output_dimension_mismatch_raises(self):
        g1, _ = scalar_pair(1.0, 2.0)
        two_out = AffineMode.certain(A=[[0.5]], B=np.zeros((1, 0)),
                                     C=[[1.0], [1.0]], f=[0.0])
        g2 = SwitchedAffineModel([two_out], state_set=box(2, 1),
                                 noise_set=box(0.1, 2),
                                 input_set=HyperRectangle([], []))
        with pytest.raises(DimensionError):
            encode_t_detectability(g1, g2, 2)

    def test_mode_dependent_output_maps_get_final_sample_binaries(self):
        mA = AffineMode.certain(A=[[0.5]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0])
        mB = AffineMode.certain(A=[[0.5]], B=np.zeros((1, 0)), C=[[2.0]], f=[0.0])
        g1 = autonomous([mA, mB], noise_r=0.1)
        g2 = autonomous([mA], noise_r=0.1)
        enc = encode_t_detectability(g1, g2, 2)
        assert not enc.collapsed and enc.binary_steps == (0, 1, 2)
        shared = encode_t_detectability(g2, g2, 2)
        assert shared.collapsed and shared.binary_steps == (0, 1)


class TestIndicators:
    def test_structural_validation(self):
        with pytest.raises(BadIndicator):
            ExplicitWords([])
        with pytest.raises(BadIndicator):
            ExplicitWords([(1, 2), (1,)])
        with pytest.raises(BadMode):
            ExplicitWords([(0, 1)])
        with pytest.raises(BadIndicator):
            StructuredTuple([1], window=0, count=0, relation="=")
        with pytest.raises(BadIndicator):
            StructuredTuple([1], window=2, count=3, relation="=")
        with pytest.raises(BadIndicator):
            StructuredTuple([1], window=2, count=1, relation="!")
        with pytest.raises(BadIndicator):
            StructuredTuple([], window=2, count=1, relation="=")
        # "fewer than 0 hits" admits no mode word at all
        with pytest.raises(BadIndicator, match="fewer than 0"):
            StructuredTuple([1], window=2, count=0, relation="<")
        for relation in ("=", ">"):
            assert StructuredTuple([1], 2, 0, relation).count == 0

    def test_prefix_restriction_of_counting_indicators(self):
        exact = StructuredTuple([2, 3], window=5, count=3, relation="=")
        band = prefix_indicator(exact, 3)
        assert isinstance(band, CountBand)
        assert (band.window, band.at_least, band.at_most) == (3, 1, 3)
        atleast = prefix_indicator(
            StructuredTuple([1], window=5, count=3, relation=">"), 3)
        assert (atleast.at_least, atleast.at_most) == (1, 3)
        atmost = prefix_indicator(
            StructuredTuple([1], window=5, count=2, relation="<"), 3)
        assert (atmost.at_least, atmost.at_most) == (0, 1)
        untouched = StructuredTuple([1], window=2, count=1, relation="=")
        assert prefix_indicator(untouched, 4) is untouched

    def test_prefix_restriction_of_word_indicators(self):
        words = ExplicitWords([(1, 2, 2), (1, 2, 1), (2, 1, 1)])
        short = prefix_indicator(words, 2)
        assert short.words == ((1, 2), (2, 1))
        assert prefix_indicator(words, 3) is words

    def test_window_too_long_raises(self):
        g1, g2 = scalar_pair(1.0, 2.0)
        with pytest.raises(WindowTooLong):
            encode_t_detectability(g1, g2, 2,
                                   indicator=StructuredTuple([1], 3, 1, "="))

    def test_bad_mode_raises_at_application(self):
        g1, g2 = scalar_pair(1.0, 2.0)
        with pytest.raises(BadMode):
            encode_t_detectability(g1, g2, 2,
                                   indicator=StructuredTuple([4], 1, 1, "="))

    @pytest.fixture()
    def maskable_pair(self):
        """Fault mode 1 mimics the system; mode 2 jumps by 1."""
        mimic = AffineMode.certain(A=[[1.0]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0])
        jump = AffineMode.certain(A=[[1.0]], B=np.zeros((1, 0)), C=[[1.0]], f=[1.0])
        system = autonomous([mimic], state_r=4.0, noise_r=0.1)
        fault = autonomous([mimic, jump], state_r=4.0, noise_r=0.1)
        return system, fault

    def test_counting_indicator_forces_the_distinguishing_mode(self, maskable_pair):
        system, fault = maskable_pair
        _, free = solve_pair(system, fault, 2)
        assert free.status == FEASIBLE  # the fault can hide in its mimicking mode
        forced = StructuredTuple([2], window=1, count=1, relation="=")
        _, res = solve_pair(system, fault, 2, indicator=forced)
        assert res.status == INFEASIBLE  # a forced jump of 1 cannot hide in +-0.1 noise

    def test_word_indicator_matches_counting_indicator(self, maskable_pair):
        system, fault = maskable_pair
        as_words = ExplicitWords([(2,)])
        as_count = StructuredTuple([2], window=1, count=1, relation="=")
        _, via_words = solve_pair(system, fault, 2, indicator=as_words)
        _, via_count = solve_pair(system, fault, 2, indicator=as_count)
        assert via_words.status == via_count.status == "infeasible"
        escape = ExplicitWords([(2,), (1,)])  # the second word lets it hide
        _, res = solve_pair(system, fault, 2, indicator=escape)
        assert res.status == FEASIBLE

    def test_word_witnesses_follow_one_of_the_words(self, maskable_pair):
        system, fault = maskable_pair
        words = ExplicitWords([(1, 2), (2, 1)])
        # make the jump explainable: wider noise so matching stays feasible
        wide_fault = SwitchedAffineModel(fault.modes, fault.state_set,
                                         HyperRectangle([-0.6], [0.6]),
                                         fault.input_set)
        wide_system = SwitchedAffineModel(system.modes, system.state_set,
                                          HyperRectangle([-0.6], [0.6]),
                                          system.input_set)
        enc, res = solve_pair(wide_system, wide_fault, 3, indicator=words)
        assert res.status == FEASIBLE
        beh = decode_pair_witness(enc, res.witness)
        prefix = tuple(m + 1 for m in beh.fault.mode_sequence[:2])
        assert prefix in words.words

    def test_vacuous_count_band_changes_nothing(self, maskable_pair):
        system, fault = maskable_pair
        vacuous = CountBand([2], window=2, at_least=0, at_most=2)
        enc, res = solve_pair(system, fault, 2, indicator=vacuous)
        assert res.status == FEASIBLE
        assert not any(c.name.startswith("ind.") for c in enc.problem.constraints)

    def test_indicator_cannot_be_applied_twice(self, maskable_pair):
        system, fault = maskable_pair
        ind = StructuredTuple([2], window=1, count=1, relation="=")
        enc = encode_t_detectability(system, fault, 2, indicator=ind)
        with pytest.raises(BadIndicator):
            apply_indicator(enc, ind)


def binary_order(enc) -> list:
    """The binary columns in column order: a mode binary as its step, an
    indicator word binary as "word" and any other binary as "other"."""
    *_, is_bin, names = enc.problem.sparse_arrays()
    step = {name: key[-1] for key, name in enc.var_index.items()
            if key[0] in ("a", "d")}
    return [step.get(name, "word" if name.startswith("ind.word") else "other")
            for name, binary in zip(names, is_bin) if binary]


def assert_mode_binaries_lead_in_time_order(order, steps, words=0):
    modes = [o for o in order if isinstance(o, int)]
    assert order[:len(modes)] == modes == sorted(modes)
    assert sorted(set(modes)) == list(steps)
    rest = order[len(modes):]
    assert rest == ["other"] * (len(rest) - words) + ["word"] * words


class TestBinaryOrder:
    """The solver branches on the lowest-index fractional binary, so the
    encoders' column order decides the branching order: mode binaries step
    by step, then any |x| sign binaries, then indicator word binaries."""

    def test_invalidation(self):
        m1 = AffineMode(A=[[0.6, 0.1], [0.0, 0.5]], B=[[1.0], [0.5]],
                        C=[[1.0, 0.0]], f=[0.1, 0.0],
                        hatA=[[0.05, 0.0], [0.0, 0.05]], hatB=[[0.1], [0.0]],
                        hatC=[[0.02, 0.0]], hatf=[0.01, 0.0])
        m2 = AffineMode.certain(A=[[0.3, -0.2], [0.1, 0.7]], B=[[0.0], [1.0]],
                                C=[[1.0, 0.0]], f=[-0.1, 0.2])
        model = SwitchedAffineModel([m1, m2], state_set=box(4, 2),
                                    noise_set=box(0.05, 1), input_set=box(1, 1))
        traj, _ = simulate_random(model, seed=0, steps=5, policy=RandomPolicy())
        order = binary_order(encode_invalidation(model, traj))
        assert "other" in order   # the uncertain A adds |x| sign binaries
        assert_mode_binaries_lead_in_time_order(order, range(5))

    @pytest.mark.parametrize("collapsed", [True, False])
    @pytest.mark.parametrize("words", [None, ExplicitWords([(1, 2), (2, 1)])])
    def test_pair(self, collapsed, words):
        mA = AffineMode.certain(A=[[0.5]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0])
        mB = AffineMode.certain(A=[[-0.5]], B=np.zeros((1, 0)),
                                C=[[1.0 if collapsed else 2.0]], f=[0.1])
        g1 = autonomous([mA, mB], noise_r=0.1)
        g2 = autonomous([mB, mA], noise_r=0.1)
        enc = encode_t_detectability(g1, g2, 3, indicator=words)
        assert enc.collapsed == collapsed
        assert_mode_binaries_lead_in_time_order(
            binary_order(enc), enc.binary_steps, len(words.words) if words else 0)


def abs_problem(hat: float, y_box=(-0.75, 0.75), x_box=(-10.0, 10.0),
                pins=()) -> MilpProblem:
    """``|x| <= hat |y|`` written by ``_AbsCache.bound`` on a problem with
    the variables y and x, plus the rows ``pin.v: v = value`` of ``pins``."""
    p = MilpProblem()
    p.add_continuous("y", *y_box)
    p.add_continuous("x", *x_box)
    sink = _RowSink(p)
    _AbsCache("absy").bound(sink, "x", 1, hat, 0, 0, 0,
                            max(abs(y_box[0]), abs(y_box[1])))
    sink.flush()
    for var, value in pins:
        p.add_constraint(f"pin.{var}", [(1.0, var)], EQ, value)
    return p.seal()


Z, B = "absy[0][0].z", "absy[0][0].b"


class TestAbsCache:
    """The encoder's exact transform of ``|x| <= hat |y|`` (``_AbsCache``)."""

    @pytest.mark.parametrize("b_val, y_vals", [
        (1.0, (0.0, 0.3, 0.75)), (0.0, (-0.75, -0.3, 0.0))], ids=["b1", "b0"])
    def test_z_is_abs_y_under_either_binary(self, b_val, y_vals):
        p = abs_problem(2.0)
        for y in y_vals:
            ok, violations = verify(p, Witness(
                {"y": y, "x": 1.5 * abs(y), Z: abs(y), B: b_val}))
            assert ok, violations
            # the binary pins z to |y|: any other z is rejected
            for z in (abs(y) + 0.5, abs(y) - 0.2):
                assert not verify(p, Witness(
                    {"y": y, "x": 0.0, Z: z, B: b_val}))[0]
            # x beyond hat |y| is rejected
            assert not verify(p, Witness(
                {"y": y, "x": -(2.0 * abs(y) + 0.1), Z: abs(y), B: b_val}))[0]

    @pytest.mark.parametrize("y", [-0.5, 0.5])
    def test_the_wrong_binary_is_rejected(self, y):
        p = abs_problem(2.0)
        right = 1.0 if y > 0 else 0.0
        assert verify(p, Witness({"y": y, "x": 0.0, Z: 0.5, B: right}))[0]
        ok, violations = verify(p, Witness({"y": y, "x": 0.0, Z: 0.5,
                                            B: 1.0 - right}))
        assert not ok and violations

    def test_one_abs_pair_per_carrier_component(self):
        p = MilpProblem()
        for name in ("y", "x1", "x2"):
            p.add_continuous(name, -1.0, 1.0)
        sink = _RowSink(p)
        cache = _AbsCache("absy")
        cache.bound(sink, "x1", 1, 0.5, 0, 0, 0, 1.0)
        cache.bound(sink, "x2", 2, 0.25, 0, 0, 0, 1.0)
        sink.flush()
        assert p.variable_names == ("y", "x1", "x2", Z, B)
        assert [c.name for c in p.constraints] == [
            "absy[0][0].zge", "absy[0][0].zub", "absy[0][0].nge",
            "absy[0][0].nub", f"{Z}.ub[x1]", f"{Z}.lb[x1]", f"{Z}.ub[x2]",
            f"{Z}.lb[x2]"]
        assert sink.var_index == {("absy", 0, 0): Z}
        assert p.bounds_of(Z) == (0.0, 1.0)

    def test_solver_decides_the_grid_exactly(self):
        grid = np.linspace(-2.0, 2.0, 21)
        for xv in grid:
            for yv in grid:
                p = abs_problem(0.5, y_box=(-2.0, 2.0), x_box=(-2.0, 2.0),
                                pins=[("x", xv), ("y", yv)])
                res = solve_milp(p, SolverConfig())
                expect = abs(xv) <= 0.5 * abs(yv) + 1e-9
                assert res.status == (FEASIBLE if expect else INFEASIBLE), (xv, yv)


def cold_encode(model, window):
    """An encoding built from an empty template cache."""
    _WINDOWS.clear()
    return encode_invalidation(model, window)


def assert_same_encoding(enc, ref):
    assert export_lp(enc.problem.seal()) == export_lp(ref.problem.seal())
    got, want = enc.problem.sparse_arrays(), ref.problem.sparse_arrays()
    # bit for bit, the sign of every zero included
    assert [a.tobytes() for a in got[:8]] == [a.tobytes() for a in want[:8]]
    assert got[8] == want[8]
    assert (enc.var_index, enc.binary_steps) == (ref.var_index, ref.binary_steps)
    # read off the nonzeros, the largest big-M is the largest coefficient
    # of a mode binary in a gated row
    assert largest_big_m(enc.problem) == max(
        [abs(coef) for row in enc.problem.constraints
         if row.name.startswith(("out", "dyn"))
         for coef, var in row.terms if var.startswith("a[")], default=0.0)


def radiant_trace():
    system, fault = builtin_pair("radiant")
    return system, inject_persistent_fault(system, fault, onset=15, total=43,
                                           seed=0)


def shifted(window, by: float) -> Trajectory:
    """The same inputs with other outputs."""
    return Trajectory(window.inputs, window.outputs + by)


class TestWindowTemplate:
    """Windows of one model, length and inputs share a cached template;
    binding it must give what a cold encode gives, bit for bit."""

    def test_binds_equal_cold_encodes_in_any_order(self):
        radiant, trace = radiant_trace()
        numeric3 = numeric_family(3)
        numeric_windows = [simulate_random(
            numeric3, seed=seed, steps=6,
            policy=RandomPolicy(input_box=HyperRectangle([-1.0], [1.0])))[0]
            for seed in (0, 1)]
        # radiant: ungated outputs, no input; numeric3: observed inputs;
        # SYSTEM: gated outputs, nonzero hatB/hatC and zero input samples,
        # then outputs far enough off for their big-M to be the largest
        windows = [(radiant, trace.window(0, 4)),
                   (numeric3, numeric_windows[0]), (SYSTEM, WINDOW),
                   (radiant, trace.window(20, 24)),
                   (numeric3, numeric_windows[1]),
                   (SYSTEM, shifted(WINDOW, 4.0))]
        _WINDOWS.clear()
        warm = [encode_invalidation(model, window) for model, window in windows]
        assert len(_WINDOWS) == 4
        assert largest_big_m(warm[-1].problem) > largest_big_m(warm[2].problem)
        for enc, (model, window) in zip(warm, windows):
            assert enc.model is model and enc.trajectory is window
            assert_same_encoding(enc, cold_encode(model, window))

    def test_a_changed_bound_problem_changes_no_other(self):
        _WINDOWS.clear()
        first = encode_invalidation(SYSTEM, WINDOW)
        before = export_lp(first.problem.seal())
        window = shifted(WINDOW, -0.1)
        second = encode_invalidation(SYSTEM, window)
        second.problem.add_continuous("extra", 0.0, 1.0)
        second.problem.add_constraint(
            "extra.row", [(1.0, "extra"), (1.0, "x[0][0]")], LE, 1.0)
        second.var_index[("extra",)] = "extra"
        third = encode_invalidation(SYSTEM, window)
        assert "extra" not in third.problem.variable_names
        assert_same_encoding(third, cold_encode(SYSTEM, window))
        assert export_lp(first.problem) == before
        assert second.problem.n_rows == third.problem.n_rows + 1


def drift_model() -> SwitchedAffineModel:
    """x+ = x + hatf Df and y = x, with x in [-0.5, 0.5] and no noise."""
    mode = AffineMode(A=[[1.0]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0],
                      hatA=[[0.0]], hatB=np.zeros((1, 0)), hatC=[[0.0]],
                      hatf=[0.5])
    return SwitchedAffineModel([mode], box(0.5, 1), box(0.0, 1),
                               HyperRectangle([], []), name="drift")


DRIFT_DATA = Trajectory(np.zeros((2, 0)), [[0.5], [0.25]])

class TestAdmission:
    """A model with a nonnegative drift radius reaches the encoder."""

    def test_the_valid_drift_model_explains_the_data(self):
        # Df = -0.5 gives x_1 = 0.5 + 0.5 * -0.5 = 0.25
        assert check_invalidation(drift_model(), DRIFT_DATA).verdict == CONSISTENT
