"""Tests for the switched affine model types, simulation and constructors.

Expected values are hand-computed for tiny systems, or checked against
closed-form formulas (scalar zero-order hold) and algebraic identities
(semigroup property of the discretization map).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swainval.examples import load_builtin
from swainval.fileio import model_from_dict, model_to_dict
from swainval.model import (
    AffineMode,
    DimensionError,
    HyperRectangle,
    NoAdmissibleDraw,
    RandomPolicy,
    SimulationDraw,
    StateBoundViolation,
    SwitchedAffineModel,
    Trajectory,
    discretize_affine,
    simulate,
    simulate_random,
    submodel,
)


def scalar_model(a=0.5, b=1.0, c=2.0, f=1.0, hat_a=0.0, x_bound=10.0,
                 noise=0.5, u_bound=2.0):
    mode = AffineMode(
        A=[[a]], B=[[b]], C=[[c]], f=[f],
        hatA=[[hat_a]], hatB=[[0.0]], hatC=[[0.0]], hatf=[0.0],
    )
    return SwitchedAffineModel(
        modes=[mode],
        state_set=HyperRectangle.ball(x_bound, 1),
        noise_set=HyperRectangle.ball(noise, 1),
        input_set=HyperRectangle.ball(u_bound, 1),
    )


def zero_draw(model, x0, modes, noise=None):
    N = len(modes)
    return SimulationDraw(
        initial_state=x0,
        mode_sequence=modes,
        noise=np.zeros((N, model.n_y)) if noise is None else np.asarray(noise, float),
        DA=np.zeros((N, model.n, model.n)),
        DB=np.zeros((N, model.n, model.n_u)),
        DC=np.zeros((N, model.n_y, model.n)),
        Df=np.zeros((N, model.n)),
    )


class TestHyperRectangle:
    def test_basics(self):
        box = HyperRectangle([-1.0, 0.0], [1.0, 2.0])
        assert box.dim == 2
        assert not box.is_empty
        assert box.is_bounded
        assert box.contains([0.0, 1.0])
        assert not box.contains([0.0, 2.1])
        assert box.contains([0.0, 2.05], tol=0.1)

    def test_ball_point_and_ops(self):
        ball = HyperRectangle.ball(2.0, 3)
        assert ball.lower == (-2.0,) * 3 and ball.upper == (2.0,) * 3
        pt = HyperRectangle.point([1.0, -1.0])
        assert pt.lower == pt.upper == (1.0, -1.0)
        a = HyperRectangle([-1.0], [1.0])
        b = HyperRectangle([0.5], [3.0])
        inter = a.intersect(b)
        assert inter.lower == (0.5,) and inter.upper == (1.0,)
        assert a.intersect(HyperRectangle([2.0], [3.0])).is_empty

    def test_clip_and_sample(self):
        box = HyperRectangle([-1.0, -1.0], [1.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert box.contains(box.sample(rng))
        with pytest.raises(ValueError):
            HyperRectangle([1.0], [0.0]).sample(rng)
        with pytest.raises(ValueError):
            HyperRectangle([-math.inf], [0.0]).sample(rng)

    def test_zero_dimensional(self):
        empty_input = HyperRectangle((), ())
        assert empty_input.dim == 0
        assert not empty_input.is_empty
        rng = np.random.default_rng(0)
        assert empty_input.sample(rng).shape == (0,)


class TestAffineMode:
    def test_certain_shapes(self):
        m = AffineMode.certain(A=[[1.0, 0.0], [0.0, 1.0]], B=[1.0, 2.0],
                               C=[[1.0, 1.0]], f=[0.0, 0.0])
        assert m.n == 2 and m.n_u == 1 and m.n_y == 1
        assert not m.has_uncertainty
        assert m.B.shape == (2, 1)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            AffineMode.certain(A=[[1.0, 0.0]], B=[1.0], C=[[1.0]], f=[0.0])
        with pytest.raises(DimensionError):
            AffineMode.certain(A=[[1.0]], B=[1.0], C=[[1.0, 2.0]], f=[0.0])
        good = dict(A=[[1.0]], B=[[1.0]], C=[[1.0]], f=[0.0])
        with pytest.raises(DimensionError):
            AffineMode(**good, hatA=[[0.0, 0.0]], hatB=[[0.0]],
                       hatC=[[0.0]], hatf=[0.0])


class TestValueIdentity:
    """Models compare and hash by value, arrays and bounds by their bits."""

    def test_equal_builds_are_one_key(self):
        a, b = load_builtin("radiant"), load_builtin("radiant")
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "radiant"}[b] == "radiant"

    def test_any_change_makes_another_model(self):
        model = load_builtin("radiant")
        mode = model.modes[1]
        A = mode.A.copy()
        A[2, 1] = np.nextafter(A[2, 1], np.inf)
        lower, upper = model.state_set.lower, model.state_set.upper
        modes = (model.modes[0], dataclasses.replace(mode, A=A),
                 *model.modes[2:])
        state_set = HyperRectangle(
            lower, upper[:-1] + (np.nextafter(upper[-1], np.inf),))
        others = (dataclasses.replace(model, modes=modes),
                  dataclasses.replace(model, state_set=state_set),
                  dataclasses.replace(model, name="radiant2"))
        for other in others:
            assert other != model and model != other

    def test_the_sign_of_a_zero_counts(self):
        assert drift_mode(f=[0.0]) != drift_mode(f=[-0.0])
        assert drift_mode(f=[0.0]) == drift_mode(f=[0.0])
        assert HyperRectangle([-0.0], [0.0]) != HyperRectangle([0.0], [0.0])
        zero = SwitchedAffineModel([drift_mode()], HyperRectangle.ball(1.0, 1),
                                   HyperRectangle([0.0], [0.0]),
                                   HyperRectangle([], []))
        ball = HyperRectangle.ball(0.0, 1)    # lower bound -0.0
        assert dataclasses.replace(zero, noise_set=ball) != zero

    def test_replace_keeps_the_value(self):
        mode = load_builtin("radiant").modes[0]
        twin = dataclasses.replace(mode)
        assert twin is not mode and twin == mode and hash(twin) == hash(mode)
        assert mode != "mode" and mode != load_builtin("radiant")


def drift_mode(**fields) -> AffineMode:
    """x+ = x + hatf Df and y = x; ``fields`` overrides mode fields."""
    mode = dict(A=[[1.0]], B=np.zeros((1, 0)), C=[[1.0]], f=[0.0],
                hatA=[[0.0]], hatB=np.zeros((1, 0)), hatC=[[0.0]], hatf=[0.5])
    return AffineMode(**{**mode, **fields})


def drift_fields() -> dict:
    """The constructor arguments of the drift model: x in [-0.5, 0.5], no
    noise and no input."""
    return dict(modes=[drift_mode()], state_set=HyperRectangle.ball(0.5, 1),
                noise_set=HyperRectangle.ball(0.0, 1),
                input_set=HyperRectangle([], []), name="drift")


def drift_document(**fields) -> dict:
    """The drift model's file document with ``fields`` (modes or sets)
    written over it."""
    doc = model_to_dict(SwitchedAffineModel(**drift_fields()))
    for key, value in fields.items():
        if key == "modes":
            doc["modes"] = [{nm: np.ravel(getattr(m, nm)).tolist()
                             for nm in ("A", "B", "C", "f", "hatA", "hatB",
                                        "hatC", "hatf")} for m in value]
        else:
            doc[key.replace("_set", "_bounds")] = {
                "lower": list(value.lower), "upper": list(value.upper)}
    return doc


# (model fields, the issue they raise); a model document can hold these
INVALID_DOCUMENTS = [
    (dict(modes=[drift_mode(hatf=[-0.5])]), "mode 1: hatf has negative entries"),
    (dict(modes=[drift_mode(hatA=[[-0.1]])]), "mode 1: hatA has negative entries"),
    (dict(modes=[drift_mode(hatC=[[-0.1]])]), "mode 1: hatC has negative entries"),
    (dict(state_set=HyperRectangle([0.5], [-0.5])),
     "state_set: empty (some lower bound exceeds upper)"),
]
# and the file reader refuses these itself, as a FileFormatError (see
# tests/test_fileio.py)
INVALID_MODELS = INVALID_DOCUMENTS + [
    (dict(modes=[drift_mode(A=[[np.inf]])]), "mode 1: A has non-finite entries"),
    (dict(modes=[drift_mode(), AffineMode.certain(
        np.eye(2), np.zeros((2, 0)), [[1.0, 0.0]], [0.0, 0.0])]),
     "mode 2: dimensions (2, 0, 1) differ from mode 1 (1, 0, 1)"),
    (dict(noise_set=HyperRectangle.ball(0.0, 2)),
     "noise_set: dimension 2, expected 1"),
]


def raises_issue(message: str):
    return pytest.raises(DimensionError,
                         match=re.escape(f"invalid model: {message}"))


class TestValidation:
    """The constructor is the one admission gate of a model."""

    def test_valid_model(self):
        assert dataclasses.replace(scalar_model(), name="copy").name == "copy"

    @pytest.mark.parametrize("fields, message", INVALID_MODELS)
    def test_the_constructor_refuses(self, fields, message):
        with raises_issue(message):
            SwitchedAffineModel(**{**drift_fields(), **fields})

    @pytest.mark.parametrize("fields, message", INVALID_MODELS)
    def test_replace_refuses(self, fields, message):
        valid = SwitchedAffineModel(**drift_fields())
        with raises_issue(message):
            dataclasses.replace(valid, **fields)

    @pytest.mark.parametrize("fields, message", INVALID_DOCUMENTS)
    def test_the_file_reader_refuses(self, fields, message):
        doc = drift_document(**fields)
        with raises_issue(message) as err:
            model_from_dict(doc)
        assert err.value.issues == (message,)

    def test_negative_radius(self):
        # a built model holds read-only copies, so no negative radius can be
        # written into it later
        hatf = np.array([0.5])
        model = SwitchedAffineModel(
            **{**drift_fields(), "modes": [drift_mode(hatf=hatf)]})
        with pytest.raises(ValueError, match="read-only"):
            model.modes[0].hatf[0] = -0.5
        hatf[0] = -0.5
        assert model.modes[0].hatf[0] == 0.5

    def test_mode_dimension_mismatch(self):
        m1 = AffineMode.certain([[1.0]], [1.0], [[1.0]], [0.0])
        m2 = AffineMode.certain([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]],
                                [[1.0, 0.0]], [0.0, 0.0])
        m3 = AffineMode.certain([[1.0]], [[1.0, 1.0]], [[1.0]], [0.0])
        with pytest.raises(DimensionError) as err:
            SwitchedAffineModel([m1, m2, m1, m3], HyperRectangle.ball(1, 1),
                                HyperRectangle.ball(1, 1),
                                HyperRectangle.ball(1, 1))
        assert err.value.issues == (
            "mode 2: dimensions (2, 1, 1) differ from mode 1 (1, 1, 1)",
            "mode 4: dimensions (1, 2, 1) differ from mode 1 (1, 1, 1)")

    def test_wrong_box_dims_and_empty(self):
        with pytest.raises(DimensionError) as err:
            SwitchedAffineModel(
                [AffineMode.certain([[1.0]], [1.0], [[1.0]], [0.0])],
                HyperRectangle.ball(1, 2),                # wrong dim
                HyperRectangle([1.0], [0.0]),             # empty
                HyperRectangle.ball(1, 1))
        issues = ("state_set: dimension 2, expected 1",
                  "noise_set: empty (some lower bound exceeds upper)")
        assert err.value.issues == issues
        assert str(err.value) == "invalid model: " + "; ".join(issues)


class TestSimulate:
    def test_hand_computed_nominal(self):
        # x+ = 0.5 x + u + 1, y = 2 x + eta; x0 = 1, u = (1, 2), eta = (0.1, -0.1)
        # y0 = 2.1; x1 = 0.5 + 1 + 1 = 2.5; y1 = 5 - 0.1 = 4.9; x2 = 4.25
        model = scalar_model()
        draw = zero_draw(model, [1.0], (0, 0), noise=[[0.1], [-0.1]])
        traj = simulate(model, [[1.0], [2.0]], draw)
        np.testing.assert_allclose(traj.outputs, [[2.1], [4.9]])
        np.testing.assert_allclose(traj.inputs, [[1.0], [2.0]])

    def test_hand_computed_with_uncertainty(self):
        # hatA = 0.1 and DA = -1 shrink A to 0.4: x1 = 0.4 + 1 + 1 = 2.4,
        # y1 = 2 * 2.4 = 4.8
        model = scalar_model(hat_a=0.1)
        draw = zero_draw(model, [1.0], (0, 0))
        object.__setattr__(draw, "DA", np.full((2, 1, 1), -1.0))
        traj = simulate(model, [[1.0], [0.0]], draw)
        np.testing.assert_allclose(traj.outputs, [[2.0], [4.8]])

    def test_mode_switching(self):
        # mode 0: x+ = 2x; mode 1: x+ = x - 3.  y = x.
        m0 = AffineMode.certain([[2.0]], [[0.0]], [[1.0]], [0.0])
        m1 = AffineMode.certain([[1.0]], [[0.0]], [[1.0]], [-3.0])
        model = SwitchedAffineModel([m0, m1], HyperRectangle.ball(50, 1),
                                    HyperRectangle.ball(0, 1), HyperRectangle.ball(1, 1))
        draw = zero_draw(model, [1.0], (0, 0, 1))
        traj = simulate(model, np.zeros((3, 1)), draw)
        # x: 1 -> 2 -> 4 -> 1; y = (1, 2, 4)
        np.testing.assert_allclose(traj.outputs[:, 0], [1.0, 2.0, 4.0])

    def test_state_bound_violation_reports_step(self):
        model = scalar_model(a=3.0, x_bound=2.0)
        draw = zero_draw(model, [1.0], (0, 0))
        # x0 = 1 ok; x1 = 3 + 0 + 1 = 4 > 2 -> violation at k = 1
        with pytest.raises(StateBoundViolation) as err:
            simulate(model, np.zeros((2, 1)), draw)
        assert err.value.k == 1

    def test_final_state_checked(self):
        model = scalar_model(a=3.0, x_bound=4.0)
        draw = zero_draw(model, [1.0], (0,))
        # only x1 = 4 is inside, but with a = 3, f = 1: x1 = 3*1+1 = 4 <= 4 ok
        simulate(model, np.zeros((1, 1)), draw)
        draw2 = zero_draw(model, [1.5], (0,))
        with pytest.raises(StateBoundViolation) as err:
            simulate(model, np.zeros((1, 1)), draw2)
        assert err.value.k == 1

    def test_check_bounds_off(self):
        model = scalar_model(a=3.0, x_bound=2.0)
        draw = zero_draw(model, [1.0], (0, 0))
        traj = simulate(model, np.zeros((2, 1)), draw, check_bounds=False)
        assert len(traj) == 2


class TestSimulateRandom:
    def test_deterministic_in_seed(self):
        model = scalar_model(hat_a=0.05)
        t1, d1 = simulate_random(model, seed=7, steps=12)
        t2, d2 = simulate_random(model, seed=7, steps=12)
        np.testing.assert_array_equal(t1.outputs, t2.outputs)
        np.testing.assert_array_equal(t1.inputs, t2.inputs)
        assert d1.mode_sequence == d2.mode_sequence
        t3, _ = simulate_random(model, seed=8, steps=12)
        assert not np.array_equal(t1.outputs, t3.outputs)

    def test_replay_matches(self):
        model = scalar_model(hat_a=0.1)
        traj, draw = simulate_random(model, seed=3, steps=10)
        replay = simulate(model, traj.inputs, draw)
        np.testing.assert_allclose(replay.outputs, traj.outputs)

    def test_draw_is_admissible(self):
        model = scalar_model(hat_a=0.1)
        traj, draw = simulate_random(model, seed=5, steps=15)
        assert np.all(np.abs(draw.DA) <= 1.0)
        for k in range(15):
            assert model.noise_set.contains(draw.noise[k])
            assert model.input_set.contains(traj.inputs[k])

    def test_fixed_mode_policy(self):
        m0 = AffineMode.certain([[1.0]], [[0.0]], [[1.0]], [0.0])
        m1 = AffineMode.certain([[1.0]], [[0.0]], [[1.0]], [0.1])
        model = SwitchedAffineModel([m0, m1], HyperRectangle.ball(100, 1),
                                    HyperRectangle.ball(0, 1), HyperRectangle.ball(1, 1))
        _, draw = simulate_random(model, seed=0, steps=6,
                                  policy=RandomPolicy(mode_sequence=(1,) * 6))
        assert draw.mode_sequence == (1,) * 6

    def test_explicit_mode_sequence(self):
        model = scalar_model()
        seq = (0, 0, 0, 0)
        _, draw = simulate_random(model, seed=0, steps=4,
                                  policy=RandomPolicy(mode_sequence=seq))
        assert draw.mode_sequence == seq

    def test_no_admissible_draw(self):
        # f = 100 always exits X = [-1, 1]: nothing admissible exists
        model = scalar_model(a=0.0, b=0.0, f=100.0, x_bound=1.0)
        with pytest.raises(NoAdmissibleDraw):
            simulate_random(model, seed=0, steps=2)


class TestDiscretize:
    def test_scalar_closed_form(self):
        # x' = a x + b u + c with a != 0:
        # Ad = e^{a dt}, Bd = (e^{a dt} - 1)/a * b, fd = (e^{a dt} - 1)/a * c
        a, b, c, dt = -0.7, 2.0, 0.3, 0.25
        Ad, Bd, fd = discretize_affine([[a]], [[b]], [c], dt)
        ead = math.exp(a * dt)
        np.testing.assert_allclose(Ad, [[ead]], rtol=1e-12)
        np.testing.assert_allclose(Bd, [[(ead - 1.0) / a * b]], rtol=1e-12)
        np.testing.assert_allclose(fd, [(ead - 1.0) / a * c], rtol=1e-12)

    def test_singular_a(self):
        # x' = u + c integrates exactly: x(dt) = x + b dt u + c dt
        Ad, Bd, fd = discretize_affine([[0.0]], [[2.0]], [0.5], 0.1)
        np.testing.assert_allclose(Ad, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(Bd, [[0.2]], atol=1e-14)
        np.testing.assert_allclose(fd, [0.05], atol=1e-14)

    def test_forward_euler(self):
        Ad, Bd, fd = discretize_affine([[2.0]], [[1.0]], [3.0], 0.1,
                                       method="forward-euler")
        np.testing.assert_allclose(Ad, [[1.2]])
        np.testing.assert_allclose(Bd, [[0.1]])
        np.testing.assert_allclose(fd, [0.3])

    def test_autonomous_no_input(self):
        Ad, Bd, fd = discretize_affine([[0.0, 1.0], [-1.0, 0.0]],
                                       np.zeros((2, 0)), [0.0, 0.0], math.pi / 2)
        assert Bd.shape == (2, 0)
        # rotation by 90 degrees
        np.testing.assert_allclose(Ad, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_semigroup_property(self, seed):
        # Discretizing over dt must equal composing two dt/2 steps:
        # A(dt) = A(h) A(h), B(dt) = A(h) B(h) + B(h), f(dt) = A(h) f(h) + f(h)
        rng = np.random.default_rng(seed)
        n, n_u = 3, 2
        Ac = rng.uniform(-1, 1, (n, n))
        Bc = rng.uniform(-1, 1, (n, n_u))
        fc = rng.uniform(-1, 1, n)
        dt = 0.4
        A1, B1, f1 = discretize_affine(Ac, Bc, fc, dt)
        Ah, Bh, fh = discretize_affine(Ac, Bc, fc, dt / 2)
        np.testing.assert_allclose(A1, Ah @ Ah, atol=1e-10)
        np.testing.assert_allclose(B1, Ah @ Bh + Bh, atol=1e-10)
        np.testing.assert_allclose(f1, Ah @ fh + fh, atol=1e-10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            discretize_affine([[1.0]], [[1.0]], [0.0], -1.0)
        with pytest.raises(ValueError):
            discretize_affine([[1.0]], [[1.0]], [0.0], 0.1, method="midpoint")


class TestCascadeAndSubmodel:
    def test_submodel(self):
        modes = [AffineMode.certain([[float(i)]], [[0.0]], [[1.0]], [0.0])
                 for i in range(1, 7)]
        model = SwitchedAffineModel(modes, HyperRectangle.ball(1, 1),
                                    HyperRectangle.ball(1, 1), HyperRectangle.ball(1, 1))
        sub = submodel(model, 2, 4)
        assert sub.s == 3
        assert sub.modes[0].A[0, 0] == 2.0 and sub.modes[2].A[0, 0] == 4.0
        with pytest.raises(IndexError):
            submodel(model, 0, 3)
        with pytest.raises(IndexError):
            submodel(model, 5, 7)


class TestTrajectory:
    def test_window(self):
        traj = Trajectory(np.arange(10).reshape(10, 1),
                          np.arange(10, 20).reshape(10, 1))
        w = traj.window(2, 5)
        assert len(w) == 3
        np.testing.assert_array_equal(w.inputs[:, 0], [2, 3, 4])
        with pytest.raises(IndexError):
            traj.window(5, 5)
        with pytest.raises(IndexError):
            traj.window(0, 11)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            Trajectory(np.zeros((3, 1)), np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        outputs = np.zeros((3, 2))
        outputs[1, 1] = bad
        with pytest.raises(ValueError, match=f"sample 1: y_2 is {bad}"):
            Trajectory(np.zeros((3, 1)), outputs)
        inputs = np.zeros((3, 1))
        inputs[2, 0] = bad
        with pytest.raises(ValueError, match=f"sample 2: u_1 is {bad}"):
            Trajectory(inputs, np.zeros((3, 2)))
