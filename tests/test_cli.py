"""Golden tests of the command-line front end.

Every subcommand runs in process through ``cli.main`` on bundled models and
seeded data; exit codes and stdout are compared byte for byte.  LP exports
are compared by SHA-256 digest.  The only wall-clock columns
(``solve_ms`` of ``detect``, ``solve_s`` of ``bench``) are masked.
"""

import hashlib
import io
import json

import pytest

from swainval import cli
from swainval.examples import asset_path, numeric_system
from swainval.fileio import save_trajectory
from swainval.model import HyperRectangle, RandomPolicy, simulate_random

FAULTY_CSV = """\
k,y_1,y_2,y_3,y_4,y_5,y_6
0,17.003558291058106,18.834403566643097,15.543089177525946,18.782112488198642,16.22899962469764,16.71243949941808
1,17.415242829285326,17.92615351084759,16.96300388159891,17.404628651092505,16.939433924906023,17.337347084329252
2,17.48858421459532,17.68041195446751,17.07300956788592,17.178878266820753,17.12567334722585,17.205088424089485
3,17.53920935851157,17.536910346490593,17.189658862689196,17.18927772824425,17.16168707906776,17.207603709091558
4,17.13091100898564,17.435048622864244,16.953296849633738,17.06303207887244,17.003998537884804,17.046489275381127
5,17.477188861627265,17.40364018047987,17.02511636573565,17.005148569587934,16.969088899344307,17.01346190812522
6,17.016341143367516,17.3690922291414,16.86207197327739,16.943371779359527,16.868280694860616,16.911352547245144
7,17.440128819693726,17.310586225203753,16.92684841640213,16.961475380429118,16.905921297795157,16.980738264902488
8,16.9343821140252,17.349743571203657,16.782645863477647,16.864588480719203,16.840202557030008,16.932982392067224
9,16.729099910021386,17.269394182749714,16.663574797505078,16.76947415414861,16.63401625391253,16.862348439134145
"""

# numeric6 admits inputs in [-1000, 1000]; sample 1 is far outside
OFF_INPUT_CSV = "k,u_1,y_1\n0,0.5,-12.0\n1,5000.0,-13.0\n2,0.5,-9.0\n"

REPORT_JSON = """\
{
  "horizon": 1,
  "monotonicity_recheck": "infeasible",
  "notes": [],
  "per_t_status": {
    "1": "infeasible",
    "2": "infeasible"
  },
  "searched_from": 1,
  "searched_up_to": 1,
  "undecided_at": null,
  "verdict": "yes"
}
"""

SENSOR_PAIR = ["--model", "sensorScenario1", "--fault", "sensorScenario1Fault",
               "--no-uncertainty"]
PAIR_LP_SHA256 = "1674c5348178dac2b09efd3dcf4871a98c83dc8dfb2b96efd2987ad90615581b"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mask_column(csv_text: str, column: int) -> str:
    lines = csv_text.splitlines(keepends=True)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.rstrip("\n").split(",")
        cells[column] = "*"
        out.append(",".join(cells) + "\n")
    return "".join(out)


@pytest.fixture(autouse=True)
def bundled_solver(monkeypatch):
    monkeypatch.delenv("SWAINVAL_EXTERNAL_SOLVER", raising=False)


@pytest.fixture()
def run(capsys):
    def run(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.fixture()
def data(tmp_path):
    """The faulty radiant trace (onset 3) and a hand-made off-input window."""
    faulty = tmp_path / "faulty.csv"
    faulty.write_text(FAULTY_CSV)
    off_input = tmp_path / "off_input.csv"
    off_input.write_text(OFF_INPUT_CSV)
    return faulty, off_input


def drift_document(hatf: float, lower: float = -0.5,
                   upper: float = 0.5) -> dict:
    """The model document of x+ = x + hatf Df, y = x, with x in
    [lower, upper], no noise and no input."""
    return {"n": 1, "n_u": 0, "n_y": 1,
            "modes": [{"A": [1.0], "B": [], "C": [1.0], "f": [0.0],
                       "hatf": [hatf]}],
            "state_bounds": {"lower": [lower], "upper": [upper]},
            "noise_bounds": {"lower": [0.0], "upper": [0.0]},
            "input_bounds": {"lower": [], "upper": []}}


@pytest.fixture()
def bad_model(tmp_path):
    """A negative radius and an empty state set."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(drift_document(-0.5, lower=0.5, upper=-0.5)))
    return path


class TestGolden:
    def test_validate(self, run):
        assert run("validate", "--model", "radiant") == (
            0, "VALID  name=radiant modes=4 n=6 n_u=0 n_y=6\n", "")

    def test_simulate_with_fault(self, run):
        assert run("simulate", "--model", "radiant", "--fault", "radiantFault",
                   "--onset", "3", "--steps", "10", "--seed", "1") == (
            0, FAULTY_CSV, "")

    def test_invalidate_consistent(self, run, tmp_path):
        healthy = tmp_path / "healthy.csv"
        assert run("simulate", "--model", "radiant", "--steps", "10",
                   "--seed", "1", "--out", healthy) == (
            0, f"wrote 10 samples to {healthy}\n", "")
        assert run("invalidate", "--model", "radiant", "--trajectory", healthy,
                   "--window", "3") == (
            0, "CONSISTENT  nodes=1 lp_iterations=47\n", "")

    def test_invalidate_invalidated(self, run, data):
        faulty, _ = data
        assert run("invalidate", "--model", "radiant",
                   "--trajectory", faulty) == (
            2, "INVALIDATED  nodes=1 lp_iterations=78\n", "")

    def test_invalidate_input_outside_the_input_set(self, run, data):
        _, off_input = data
        assert run("invalidate", "--model", "numeric6",
                   "--trajectory", off_input) == (
            2, "INVALIDATED  input sample 1 outside the admissible input set\n",
            "")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_invalidate_rejects_non_finite_data(self, run, tmp_path, bad):
        trace = tmp_path / "bad.csv"
        trace.write_text(FAULTY_CSV.replace("17.415242829285326", bad))
        assert run("invalidate", "--model", "radiant",
                   "--trajectory", trace) == (
            1, "", f"error: {trace}: row 1: non-finite value {bad} "
                   "in column y_1\n")

    def test_invalidate_rejects_a_model_file_with_an_infinite_matrix(
            self, run, tmp_path):
        window = tmp_path / "window.csv"
        save_trajectory(simulate_random(
            numeric_system(), seed=3, steps=4,
            policy=RandomPolicy(input_box=HyperRectangle([-1.0], [1.0])))[0],
            window)
        assert run("invalidate", "--model", "numeric6",
                   "--trajectory", window)[0] == 0
        doc = json.loads(asset_path("numeric6").read_text())
        doc["modes"][0]["A"][0] = "inf"
        model = tmp_path / "numeric6.json"
        model.write_text(json.dumps(doc))
        assert run("invalidate", "--model", model, "--trajectory", window) == (
            1, "", "error: mode 1 field A: entries must be finite\n")

    def test_invalidate_rejects_a_model_file_with_nan_bounds(
            self, run, tmp_path, data):
        _, off_input = data
        doc = json.loads(asset_path("numeric6").read_text())
        doc["noise_bounds"]["upper"][0] = float("nan")
        model = tmp_path / "numeric6.json"
        model.write_text(json.dumps(doc))
        assert run("invalidate", "--model", model,
                   "--trajectory", off_input) == (
            1, "", "error: noise_bounds: bounds must not be NaN\n")

    def test_invalidate_bad_window(self, run, data):
        faulty, _ = data
        assert run("invalidate", "--model", "radiant", "--trajectory", faulty,
                   "--window", "30") == (
            1, "", "error: --window 30 does not fit a trajectory of 10 samples\n")

    def test_invalidate_out_of_budget(self, run, data):
        faulty, _ = data
        assert run("invalidate", "--model", "radiant", "--trajectory", faulty,
                   "--window", "3", "--node-limit", "0") == (
            1, "", "UNDECIDED  solver budget exhausted (stopped after 0 nodes)\n")

    def test_invalidate_export(self, run, data, tmp_path):
        faulty, _ = data
        code, out, err = run("invalidate", "--model", "radiant",
                             "--trajectory", faulty, "--window", "1",
                             "--export", "-")
        assert (code, err) == (0, "")
        assert sha256(out) == \
            "c9a08315085bf09feef8934978b663e76b54152837ed44e85092df302eee7bf4"
        lp = tmp_path / "window.lp"
        assert run("invalidate", "--model", "radiant", "--trajectory", faulty,
                   "--window", "1", "--export", lp) == (
            0, f"exported 52 variables / 61 rows to {lp}\n", "")
        assert lp.read_text() == out

    def test_find_t_then_report(self, run, tmp_path):
        report = tmp_path / "report.json"
        assert run("find-t", *SENSOR_PAIR, "--tmax", "5",
                   "--export", report) == (
            0, "T=1\n  T=1: infeasible\n  T=2: infeasible\n"
               "  recheck at T=2: infeasible\n", "")
        assert report.read_text() == REPORT_JSON
        assert run("report", "--input", report) == (
            0, "detectable: smallest horizon T=1\n  T=1: infeasible\n"
               "  T=2: infeasible\n"
               "  confirmation one step past the answer: infeasible\n", "")

    def test_find_t_rejects_an_empty_counting_indicator(self, run):
        # "fewer than 0 hits" admits no mode word
        assert run("find-t", "--model", "radiant", "--fault",
                   "radiantWeakFault", "--no-uncertainty", "--indicator",
                   "S=3,4;W=1;m=0;O=<", "--tmax", "3") == (
            1, "", "error: bad inline indicator 'S=3,4;W=1;m=0;O=<': no mode "
                   "word has fewer than 0 hits (m = 0 with O = '<')\n")

    def test_find_t_on_model_files_strips_their_uncertainty(self, run):
        files = ["--model", asset_path("sensorScenario1"),
                 "--fault", asset_path("sensorScenario1Fault"), "--no-uncertainty"]
        assert run("find-t", *files, "--tmax", "5") == \
            run("find-t", *SENSOR_PAIR, "--tmax", "5") == (
            0, "T=1\n  T=1: infeasible\n  T=2: infeasible\n"
               "  recheck at T=2: infeasible\n", "")

    def test_export_milp_strips_a_model_file_like_its_bundled_name(self, run):
        files = ["--model", asset_path("sensorScenario1"),
                 "--fault", asset_path("sensorScenario1Fault"), "--no-uncertainty"]
        bundled = run("export-milp", *SENSOR_PAIR, "--window", "1")
        assert run("export-milp", *files, "--window", "1") == bundled
        assert sha256(bundled[1]) == PAIR_LP_SHA256

    @pytest.mark.parametrize("verdict, argv, code, text", [
        ("notUpTo", ["--tmax", "1"], 0,
         "not detectable up to T=1\n  T=1: feasible\n"),
        ("undecided", ["--node-limit", "0"], 1,
         "undecided at T=1 (solver budget)\n  T=1: budget_exceeded\n")])
    def test_report_renders_every_verdict(self, run, tmp_path, verdict, argv,
                                          code, text):
        report = tmp_path / "report.json"
        code_found, _, err = run("find-t", "--model", "radiant", "--fault",
                                 "radiantFault", *argv, "--export", report)
        assert (code_found, err) == (code, "")
        assert json.loads(report.read_text())["verdict"] == verdict
        assert run("report", "--input", report) == (0, text, "")

    @pytest.mark.parametrize("modes, code, out, err", [
        ("1..3", 0, "VALID  name=numeric6[1..3] modes=3 n=3 n_u=1 n_y=1\n", ""),
        ("1-3", 1, "", "error: --modes expects a..b, got '1-3'\n"),
        ("a..3", 1, "", "error: --modes expects integers a..b, got 'a..3'\n")])
    def test_modes(self, run, modes, code, out, err):
        assert run("validate", "--model", "numeric6", "--modes", modes) == (
            code, out, err)

    def test_detect_out_prints_a_summary(self, run, data, tmp_path):
        faulty, _ = data
        alarms = tmp_path / "alarms.csv"
        code, out, err = run("detect", "--model", "radiant",
                             "--trajectory", faulty, "--window", "3",
                             "--out", alarms)
        assert (code, out, err) == (
            0, "first alarm k=3  (7 windows, T=3)\n", "")
        assert alarms.read_text().startswith("k,verdict,solve_ms,nodes\n3,")

    def test_detect(self, run, data):
        faulty, _ = data
        code, out, err = run("detect", "--model", "radiant",
                             "--trajectory", faulty, "--window", "3")
        assert (code, err) == (0, "")
        assert mask_column(out, 2) == (
            "k,verdict,solve_ms,nodes\n"
            "3,invalidated,*,1\n4,invalidated,*,1\n5,invalidated,*,1\n"
            "6,invalidated,*,1\n7,invalidated,*,1\n8,invalidated,*,1\n"
            "9,invalidated,*,1\n")

    def test_detect_stdin_stream_rejects_a_misfit_sample(self, run, monkeypatch):
        # radiant has 6 outputs; a seventh column is one too many
        seven = "".join(line + ",0.0\n" if k else line + ",y_7\n"
                        for k, line in enumerate(FAULTY_CSV.splitlines()))
        monkeypatch.setattr("sys.stdin", io.StringIO(seven))
        assert run("detect", "--model", "radiant", "--stdin-stream",
                   "--window", "2") == (
            1, "", "error: sample 0 has 7 output columns, model expects 6\n")

    def test_bench(self, run):
        code, out, err = run("bench", "--model", "radiant", "--t0", "1",
                             "--tmax", "2", "--seeds", "2")
        assert (code, err) == (0, "")
        assert mask_column(out, 5) == (
            "horizon,seed,verdict,nodes,lp_iterations,solve_s\n"
            "1,0,consistent,1,18,*\n1,1,consistent,1,18,*\n"
            "2,0,consistent,1,32,*\n2,1,consistent,1,30,*\n")

    def test_export_milp_consistency_problem(self, run, tmp_path):
        window = tmp_path / "window.csv"
        assert run("simulate", "--model", "radiant", "--steps", "3",
                   "--seed", "2", "--out", window) == (
            0, f"wrote 3 samples to {window}\n", "")
        code, out, err = run("export-milp", "--model", "radiant",
                             "--trajectory", window)
        assert (code, err) == (0, "")
        assert sha256(out) == \
            "08b7ad77417514093aeeada7076b3f423486e5616a9641f6662c264d07b54e16"

    def test_export_milp_pair_problem(self, run, tmp_path):
        code, out, err = run("export-milp", *SENSOR_PAIR, "--window", "1")
        assert (code, err) == (0, "")
        assert sha256(out) == PAIR_LP_SHA256
        lp = tmp_path / "pair.lp"
        code, out, err = run("export-milp", *SENSOR_PAIR, "--window", "1",
                             "--export", lp)
        assert (code, out, err) == (
            0, f"exported 56 variables / 85 rows to {lp}\n", "")
        assert sha256(lp.read_text()) == PAIR_LP_SHA256

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bogus"])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "swainval: error: argument command: invalid choice: 'bogus'")


class TestLibraryErrors:
    """A library error ends the run with exit 1 and one ``error:`` line."""

    def test_failing_external_solver(self, run, data, monkeypatch):
        faulty, _ = data
        monkeypatch.setenv("SWAINVAL_EXTERNAL_SOLVER", "false")
        code, out, err = run("invalidate", "--model", "radiant",
                             "--trajectory", faulty, "--window", "1")
        assert (code, out) == (1, "")
        assert err == "error: external solver exited with 1: \n"

    @pytest.mark.parametrize("command", [["invalidate"],
                                         ["detect", "--window", "1"]])
    def test_a_model_that_fails_validation(self, run, tmp_path, command):
        # x+ = x + hatf Df with a negative radius; Df = 0.5 explains the
        # window below, yet an encoding of this model would invalidate it
        model = tmp_path / "drift.json"
        model.write_text(json.dumps(drift_document(hatf=-0.5)))
        trace = tmp_path / "drift.csv"
        trace.write_text("k,y_1\n0,0.5\n1,0.25\n")
        assert run(*command, "--model", model, "--trajectory", trace) == (
            1, "", "error: invalid model: mode 1: hatf has negative entries\n")

    def test_validate_lists_every_issue_of_an_invalid_model(self, run,
                                                             bad_model):
        assert run("validate", "--model", bad_model) == (
            1, "INVALID\n  mode 1: hatf has negative entries\n"
               "  state_set: empty (some lower bound exceeds upper)\n", "")

    def test_find_t_names_every_issue_of_an_invalid_model(self, run,
                                                          bad_model):
        assert run("find-t", "--model", bad_model, "--fault", bad_model) == (
            1, "", "error: invalid model: mode 1: hatf has negative entries; "
                   "state_set: empty (some lower bound exceeds upper)\n")

    @pytest.mark.parametrize("error", [
        "SolverNumericalError", "MonotonicityViolation",
        "ConversePathsDisagree", "ExternalSolverError"])
    def test_runtime_errors_map_to_exit_1(self, run, monkeypatch, error):
        def fail(*args, **kwargs):
            raise getattr(cli, error)("the solve went wrong")
        monkeypatch.setattr(cli, "find_T", fail)
        assert run("find-t", *SENSOR_PAIR) == (
            1, "", "error: the solve went wrong\n")
