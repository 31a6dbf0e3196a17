"""Round trips and validation for model, trajectory and indicator files."""

import json
import math

import numpy as np
import pytest

from swainval.encoder import CountBand, ExplicitWords, StructuredTuple
from swainval.fileio import (FileFormatError, indicator_from_dict,
                             load_indicator, load_model, load_trajectory,
                             model_from_dict, model_to_dict,
                             parse_indicator_arg, parse_tuple_string,
                             save_indicator, save_model, save_trajectory,
                             trajectory_from_csv, trajectory_to_csv)
from swainval.model import (AffineMode, HyperRectangle, RandomPolicy,
                            SwitchedAffineModel, Trajectory, simulate_random)


def sample_model(uncertain: bool = True) -> SwitchedAffineModel:
    rng = np.random.default_rng(7)
    modes = []
    for _ in range(3):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        modes.append(AffineMode(
            A=A, B=rng.uniform(-1, 1, (2, 1)), C=rng.uniform(-1, 1, (1, 2)),
            f=rng.uniform(-1, 1, 2),
            hatA=np.abs(rng.uniform(0, 0.1, (2, 2))) if uncertain else np.zeros((2, 2)),
            hatB=np.zeros((2, 1)), hatC=np.zeros((1, 2)),
            hatf=np.array([0.05, 0.0]) if uncertain else np.zeros(2)))
    return SwitchedAffineModel(
        modes, state_set=HyperRectangle([-5, -math.inf], [5, math.inf]),
        noise_set=HyperRectangle([-0.1], [0.1]),
        input_set=HyperRectangle([-2], [2]), name="sample")


class TestModelFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.name == "sample" and back.s == model.s
        for a, b in zip(model.modes, back.modes):
            for field in ("A", "B", "C", "f", "hatA", "hatB", "hatC", "hatf"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert back.state_set == model.state_set
        assert back.noise_set == model.noise_set
        assert back.input_set == model.input_set

    def test_infinities_are_spelled_out(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(sample_model(), path)
        doc = json.loads(path.read_text())
        assert doc["state_bounds"]["lower"][1] == "-inf"
        assert doc["state_bounds"]["upper"][1] == "inf"

    def test_writer_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(sample_model(), a)
        save_model(sample_model(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_omitted_uncertainty_defaults_to_zero(self):
        doc = model_to_dict(sample_model(uncertain=False))
        for mode in doc["modes"]:
            for key in ("hatA", "hatB", "hatC", "hatf"):
                del mode[key]
        back = model_from_dict(doc)
        for m in back.modes:
            assert not m.hatA.any() and not m.hatB.any()
            assert not m.hatC.any() and not m.hatf.any()

    def test_malformed_documents_are_rejected(self, tmp_path):
        doc = model_to_dict(sample_model())
        broken = dict(doc)
        del broken["modes"]
        with pytest.raises(FileFormatError):
            model_from_dict(broken)
        broken = json.loads(json.dumps(doc))
        del broken["modes"][0]["A"]
        with pytest.raises(FileFormatError, match="required"):
            model_from_dict(broken)
        broken = json.loads(json.dumps(doc))
        broken["modes"][1]["A"] = broken["modes"][1]["A"][:-1]
        with pytest.raises(FileFormatError, match="expected 4 entries"):
            model_from_dict(broken)
        broken = json.loads(json.dumps(doc))
        broken["noise_bounds"]["lower"][0] = "huge"
        with pytest.raises(FileFormatError, match="bad number"):
            model_from_dict(broken)
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("bad", ["inf", "-inf", math.nan])
    @pytest.mark.parametrize("key", ["A", "B", "C", "f",
                                     "hatA", "hatB", "hatC", "hatf"])
    def test_mode_matrices_must_be_finite(self, key, bad):
        doc = model_to_dict(sample_model())
        doc["modes"][1][key][0] = bad
        with pytest.raises(FileFormatError,
                           match=f"^mode 2 field {key}: entries must be finite$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field", ["state_bounds", "noise_bounds",
                                       "input_bounds"])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_bounds_must_not_be_nan(self, field, side):
        doc = model_to_dict(sample_model())
        doc[field][side][0] = math.nan
        # the JSON NaN literal, as json.dumps writes it, is read back as NaN
        doc = json.loads(json.dumps(doc))
        with pytest.raises(FileFormatError,
                           match=f"^{field}: bounds must not be NaN$"):
            model_from_dict(doc)

    def test_bounds_must_match_dimensions(self):
        doc = model_to_dict(sample_model())
        doc["input_bounds"]["lower"] = [0.0, 0.0]
        with pytest.raises(FileFormatError, match="entries per side"):
            model_from_dict(doc)


class TestTrajectoryFiles:
    def test_round_trip_is_exact(self, tmp_path):
        traj, _ = simulate_random(
            sample_model(), seed=1, steps=7,
            policy=RandomPolicy(initial_box=HyperRectangle([-1, -1], [1, 1])))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert np.array_equal(back.inputs, traj.inputs)
        assert np.array_equal(back.outputs, traj.outputs)

    def test_header_and_layout(self):
        traj = Trajectory(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        text = trajectory_to_csv(traj)
        lines = text.splitlines()
        assert lines[0] == "k,u_1,y_1"
        assert lines[1].split(",") == ["0", "1.0", "3.0"]
        assert len(lines) == 3 and text.endswith("\n")

    def test_autonomous_trajectories_have_no_input_columns(self):
        traj = Trajectory(np.zeros((2, 0)), np.array([[1.0], [2.0]]))
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "k,y_1"
        back = trajectory_from_csv(text)
        assert back.inputs.shape == (2, 0)

    def test_spaces_in_headers_are_tolerated(self):
        back = trajectory_from_csv("k, u_1, y_1\n0, 0.5, 1.5\n")
        assert back.inputs[0, 0] == 0.5 and back.outputs[0, 0] == 1.5

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(FileFormatError, match="start with the k column"):
            trajectory_from_csv("u_1,y_1\n0.0,0.0\n")
        with pytest.raises(FileFormatError, match="column name"):
            trajectory_from_csv("k,y_1,z_1\n0,0.0,0.0\n")
        with pytest.raises(FileFormatError, match="before y"):
            trajectory_from_csv("k,y_1,u_1\n0,0.0,0.0\n")
        with pytest.raises(FileFormatError, match="in order"):
            trajectory_from_csv("k,y_2\n0,0.0\n")
        with pytest.raises(FileFormatError, match="output column"):
            trajectory_from_csv("k,u_1\n0,0.0\n")
        with pytest.raises(FileFormatError, match="expected 3 cells"):
            trajectory_from_csv("k,u_1,y_1\n0,1.0\n")
        with pytest.raises(FileFormatError, match="out of order"):
            trajectory_from_csv("k,y_1\n1,0.0\n")
        with pytest.raises(FileFormatError, match="sample row"):
            trajectory_from_csv("k,y_1\n")
        with pytest.raises(FileFormatError):
            trajectory_from_csv("k,y_1\n0,twelve\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(FileFormatError,
                           match="row 1: non-finite value .* in column y_2"):
            trajectory_from_csv(f"k,u_1,y_1,y_2\n0,0,1,2\n1,0,1,{bad}\n")


class TestIndicatorFiles:
    @pytest.mark.parametrize("indicator", [
        ExplicitWords([(1, 2, 1), (2, 2, 2)]),
        StructuredTuple([3, 4], 1, 1, "="),
        CountBand([2], 5, 1, 3),
    ])
    def test_round_trip(self, tmp_path, indicator):
        path = tmp_path / "indicator.json"
        save_indicator(indicator, path)
        assert load_indicator(path) == indicator

    def test_documents_hold_exactly_one_kind(self):
        with pytest.raises(FileFormatError, match="exactly one"):
            indicator_from_dict({"words": [[1]], "tuple": {}})
        with pytest.raises(FileFormatError, match="exactly one"):
            indicator_from_dict({})
        with pytest.raises(FileFormatError, match="unknown indicator kind"):
            indicator_from_dict({"mystery": 1})

    def test_structural_errors_are_wrapped(self):
        with pytest.raises(FileFormatError):
            indicator_from_dict({"tuple": {"S": [], "W": 1, "m": 1, "O": "="}})
        with pytest.raises(FileFormatError):
            indicator_from_dict({"tuple": {"S": [1], "W": 1, "m": 5, "O": "="}})
        with pytest.raises(FileFormatError):
            indicator_from_dict({"words": [[1], [2, 2]]})

    def test_inline_tuple_syntax(self):
        parsed = parse_tuple_string("S=3,4;W=1;m=1;O==")
        assert parsed == StructuredTuple((3, 4), 1, 1, "=")
        assert parse_tuple_string("S=2;W=5;m=2;O=>") == \
            StructuredTuple((2,), 5, 2, ">")

    def test_inline_tuple_errors(self):
        for bad in ("S=1;W=1;m=1", "S=1;W=1;m=1;O==;Q=2", "S=1;S=2;W=1;m=1;O==",
                    "nonsense", "S=a;W=1;m=1;O==", "S=1;W=1;m=1;O=!"):
            with pytest.raises(FileFormatError):
                parse_tuple_string(bad)

    def test_indicator_arg_dispatch(self, tmp_path):
        path = tmp_path / "ind.json"
        save_indicator(ExplicitWords([(1,)]), path)
        assert parse_indicator_arg(str(path)) == ExplicitWords([(1,)])
        assert parse_indicator_arg("S=1;W=2;m=1;O=<") == \
            StructuredTuple((1,), 2, 1, "<")
        with pytest.raises(FileFormatError, match="neither"):
            parse_indicator_arg("no-such-file.json")
