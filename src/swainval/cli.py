"""Command-line front end tying the pipeline together.

Subcommands: ``validate`` (model sanity), ``simulate`` (seeded admissible
trajectories, optionally stitched with a persistent fault), ``invalidate``
(consistency of one data window; exit 0 = consistent, 2 = invalidated,
1 = error), ``find-t`` (minimal detectable horizon search, optionally
indicator-restricted), ``detect`` (receding-horizon monitoring producing an
alarm CSV), ``export-milp`` (write the feasibility problem in LP format
instead of solving), ``bench`` (horizon sweep emitting a plot-ready CSV)
and ``report`` (render a saved search report).

Model arguments accept either a file path or a bundled model name.  All
randomness is seeded (``--seed``, default 0); identical inputs and seed
reproduce identical outputs byte for byte, except for the explicitly
documented wall-clock columns (``solve_ms`` in alarm CSVs, ``solve_s`` in
bench CSVs).  The environment variable ``SWAINVAL_EXTERNAL_SOLVER`` names
an external command consuming an LP file and printing a witness protocol
(see :mod:`swainval.external`); when set, every subcommand that solves
(``invalidate``, ``find-t``, ``detect`` and ``bench``) passes it on as
``SolverConfig.external_command``, so ``solve_milp`` routes the solves
through it.  The subcommands only call library functions; a library error
(bad input, a numerical failure, a failing external solver) ends the run
with exit code 1 and a one-line ``error:`` message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .detectability import (NOT_UP_TO, UNDECIDED as SEARCH_UNDECIDED, YES,
                            ConversePathsDisagree, DetectabilityReport,
                            MonotonicityViolation, find_T)
from .detector import (default_window_config, inject_persistent_fault,
                       run_receding, run_streaming)
from .encoder import (CONSISTENT, INVALIDATED, InputOutsideAdmissibleSet,
                      check_invalidation, encode_invalidation,
                      encode_t_detectability)
from .examples import BUILTIN_NAMES, UnknownName, load_builtin
from .external import ExternalSolverError, external_command_from_env
from .fileio import (FileFormatError, load_model, load_trajectory,
                     parse_indicator_arg, save_trajectory, trajectory_from_csv,
                     trajectory_to_csv)
from .milp import UnboundedSet, export_lp
from .model import (DimensionError, NoAdmissibleDraw, RandomPolicy,
                    SwitchedAffineModel, simulate_random, strip_uncertainty,
                    submodel)
from .solver import SolverConfig, SolverNumericalError

__all__ = ["main", "build_parser", "CliError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALIDATED = 2


class CliError(Exception):
    """A user-facing command-line problem (bad flags, bad files)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; that code is reserved for
    the invalidated verdict, so route them through the error exit."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# -- argument helpers ---------------------------------------------------------


def _load_model_arg(value: str, *, uncertainty: bool = True) -> SwitchedAffineModel:
    """A bundled model by name, or a model file; without ``uncertainty``
    both are stripped the same way."""
    if value in BUILTIN_NAMES:
        model = load_builtin(value)
    elif Path(value).exists():
        model = load_model(Path(value))
    else:
        raise CliError(f"model {value!r} is neither a bundled name nor a file"
                       f" (bundled: {', '.join(BUILTIN_NAMES)})")
    return model if uncertainty else strip_uncertainty(model)


def _parse_mode_range(value: str) -> tuple[int, int]:
    parts = value.split("..")
    if len(parts) != 2:
        raise CliError(f"--modes expects a..b, got {value!r}")
    try:
        first, last = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"--modes expects integers a..b, got {value!r}") from None
    return first, last


def _resolve_model(args, attr: str = "model") -> SwitchedAffineModel:
    model = _load_model_arg(getattr(args, attr),
                            uncertainty=not getattr(args, "no_uncertainty", False))
    modes = getattr(args, "modes", None)
    if modes is not None and attr == "model":
        first, last = _parse_mode_range(modes)
        model = submodel(model, first, last)
    return model


def _solver_config(args, base: SolverConfig = SolverConfig()) -> SolverConfig:
    """``base`` with the budget flags and the external solver applied."""
    cfg = replace(base, external_command=external_command_from_env())
    if args.time_limit is not None:
        cfg = replace(cfg, time_limit=float(args.time_limit))
    if args.node_limit is not None:
        cfg = replace(cfg, node_limit=int(args.node_limit))
    return cfg


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _export(problem, path: str | None) -> None:
    """Write the problem in LP format and, for a file, say what it holds."""
    _write_text(path, export_lp(problem.seal()))
    if path and path != "-":
        print(f"exported {problem.n_vars} variables / "
              f"{problem.n_rows} rows to {path}")


# -- subcommand bodies --------------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        model = _resolve_model(args)
    except DimensionError as err:
        if not err.issues:
            raise
        print("INVALID")
        for issue in err.issues:
            print(f"  {issue}")
        return EXIT_ERROR
    print(f"VALID  name={model.name or '-'} modes={model.s} "
          f"n={model.n} n_u={model.n_u} n_y={model.n_y}")
    return EXIT_OK


def _sampling_policy(model: SwitchedAffineModel, input_scale: float,
                     state_dilation: float) -> RandomPolicy | None:
    """Build the draw policy for ``simulate`` from its shaping flags.

    ``--input-scale`` samples inputs from the admissible box shrunk toward
    its center: models whose input set dwarfs the state set (for example
    inputs up to +-1000 against states within +-11) admit almost no
    trajectory under full-box input sampling.  ``--state-dilation`` keeps
    the initial state inside the original operating box even though the
    simulation box has been enlarged.
    """
    kwargs = {}
    if input_scale != 1.0 and model.n_u:
        if not 0.0 <= input_scale <= 1.0:
            raise CliError("--input-scale must lie in [0, 1]")
        if not model.input_set.is_bounded:
            raise CliError("--input-scale needs a bounded input set")
        kwargs["input_box"] = model.input_set.dilate(input_scale)
    if state_dilation != 1.0:
        kwargs["initial_box"] = model.state_set
    return RandomPolicy(**kwargs) if kwargs else None


def _dilate_states(model: SwitchedAffineModel,
                   factor: float) -> SwitchedAffineModel:
    """Enlarge the state box used for simulation admissibility checks.

    Some fault models have no fixed point inside the nominal operating
    box, so every faulty run eventually leaves it; enlarging the box for
    data generation lets such runs be recorded.  Consistency checks
    against a monitor model are unaffected: they constrain only the
    monitor's own explanation states.
    """
    if factor == 1.0:
        return model
    if factor < 1.0:
        raise CliError("--state-dilation must be >= 1")
    if not model.state_set.is_bounded:
        raise CliError("--state-dilation needs a bounded state set")
    return replace(model, state_set=model.state_set.dilate(factor))


def _cmd_simulate(args) -> int:
    model = _resolve_model(args)
    policy = _sampling_policy(model, args.input_scale, args.state_dilation)
    run_model = _dilate_states(model, args.state_dilation)
    if args.fault is not None:
        if args.onset is None:
            raise CliError("--fault needs --onset (first faulty sample)")
        fault = _load_model_arg(args.fault,
                                uncertainty=not args.no_uncertainty)
        run_fault = _dilate_states(fault, args.state_dilation)
        traj = inject_persistent_fault(run_model, run_fault, onset=args.onset,
                                       total=args.steps, seed=args.seed,
                                       policy=policy)
    else:
        if args.onset is not None:
            raise CliError("--onset needs --fault")
        traj, _ = simulate_random(run_model, seed=args.seed, steps=args.steps,
                                  policy=policy)
    if args.out:
        save_trajectory(traj, args.out)
        print(f"wrote {len(traj)} samples to {args.out}")
    else:
        sys.stdout.write(trajectory_to_csv(traj))
    return EXIT_OK


def _cmd_invalidate(args) -> int:
    model = _resolve_model(args)
    traj = load_trajectory(args.trajectory)
    if args.window is not None:
        if not 1 <= args.window + 1 <= len(traj):
            raise CliError(f"--window {args.window} does not fit a trajectory "
                           f"of {len(traj)} samples")
        traj = traj.window(len(traj) - args.window - 1, len(traj))
    if args.export:
        try:
            problem = encode_invalidation(model, traj).problem
        except InputOutsideAdmissibleSet as err:
            raise CliError("cannot export: an observed input already lies "
                           "outside the admissible input set") from err
        _export(problem, args.export)
        return EXIT_OK
    res = check_invalidation(model, traj, config=_solver_config(args))
    detail = res.reason if res.solve is None else \
        f"nodes={res.solve.nodes} lp_iterations={res.solve.lp_iterations}"
    if res.verdict == CONSISTENT:
        print(f"CONSISTENT  {detail}")
        return EXIT_OK
    if res.verdict == INVALIDATED:
        print(f"INVALIDATED  {detail}")
        return EXIT_INVALIDATED
    print(f"UNDECIDED  {res.reason}", file=sys.stderr)
    return EXIT_ERROR


def _report_to_jsonable(report: DetectabilityReport) -> dict:
    doc = report.to_json_dict()
    # Wall-clock figures are not reproducible; keep report files byte-stable.
    doc.pop("wall_times", None)
    return doc


def _cmd_find_t(args) -> int:
    system = _resolve_model(args)
    fault = _load_model_arg(args.fault, uncertainty=not args.no_uncertainty)
    indicator = parse_indicator_arg(args.indicator) if args.indicator else None
    report = find_T(system, fault, indicator=indicator, t0=args.t0,
                    t_max=args.tmax, config=_solver_config(args))
    print(report.to_text())
    if args.export:
        _write_text(args.export,
                    json.dumps(_report_to_jsonable(report), indent=2,
                               sort_keys=True) + "\n")
    return EXIT_OK if report.verdict != SEARCH_UNDECIDED else EXIT_ERROR


def _cmd_detect(args) -> int:
    model = _resolve_model(args)
    cfg = _solver_config(args, default_window_config())
    if args.stdin_stream:
        traj = trajectory_from_csv(sys.stdin.read())
        samples = ((traj.inputs[k], traj.outputs[k]) for k in range(len(traj)))
        report = run_streaming(model, samples, args.window, config=cfg,
                               halt_on_first_alarm=args.halt_on_first_alarm)
    else:
        if not args.trajectory:
            raise CliError("detect needs --trajectory or --stdin-stream")
        traj = load_trajectory(args.trajectory)
        report = run_receding(model, traj, args.window, config=cfg,
                              halt_on_first_alarm=args.halt_on_first_alarm)
    if args.out:
        _write_text(args.out, report.to_csv())
        first = report.first_alarm
        summary = "no alarms" if first is None else f"first alarm k={first}"
        if report.undecided:
            summary += f"  UNDECIDED windows: {list(report.undecided)}"
        print(f"{summary}  ({len(report.results)} windows, T={args.window})")
    else:
        sys.stdout.write(report.to_csv())
    if report.undecided:
        print("warning: some windows exhausted the solver budget; their "
              "verdicts are undecided and the alarm guarantee does not "
              "cover them", file=sys.stderr)
    return EXIT_OK


def _cmd_export_milp(args) -> int:
    model = _resolve_model(args)
    if (args.trajectory is None) == (args.fault is None):
        raise CliError("export-milp needs exactly one of --trajectory "
                       "(consistency problem) or --fault (pair problem)")
    if args.trajectory is not None:
        problem = encode_invalidation(model,
                                      load_trajectory(args.trajectory)).problem
    else:
        fault = _load_model_arg(args.fault,
                                uncertainty=not args.no_uncertainty)
        indicator = parse_indicator_arg(args.indicator) if args.indicator else None
        if args.window is None:
            raise CliError("the pair problem needs --window (transitions)")
        problem = encode_t_detectability(model, fault, args.window,
                                         indicator=indicator).problem
    _export(problem, args.export)
    return EXIT_OK


def _bench_case(model, data_model, horizon: int, seed: int, cfg):
    """One (horizon, seed) cell: simulate data, time the consistency check."""
    traj, _ = simulate_random(data_model, seed=seed, steps=horizon + 1)
    start = time.perf_counter()
    res = check_invalidation(model, traj, config=cfg)
    elapsed = time.perf_counter() - start
    solve = res.solve
    return (horizon, seed, res.verdict, solve.nodes if solve else 0,
            solve.lp_iterations if solve else 0, elapsed)


def _cmd_bench(args) -> int:
    model = _resolve_model(args)
    data_model = (_load_model_arg(args.fault,
                                  uncertainty=not args.no_uncertainty)
                  if args.fault else model)
    if args.t0 < 1 or args.tmax < args.t0:
        raise CliError("bench needs 1 <= --t0 <= --tmax")
    cfg = _solver_config(args)
    rows = [_bench_case(model, data_model, horizon, args.seed + s, cfg)
            for horizon in range(args.t0, args.tmax + 1)
            for s in range(args.seeds)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["horizon", "seed", "verdict", "nodes",
                     "lp_iterations", "solve_s"])
    for horizon, seed, verdict, nodes, iters, elapsed in rows:
        writer.writerow([horizon, seed, verdict, nodes, iters,
                         f"{elapsed:.6f}"])
    _write_text(args.out, buf.getvalue())
    if args.out and args.out != "-":
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read report {args.input!r}: {err}") from err
    verdict = doc.get("verdict")
    if verdict == YES:
        print(f"detectable: smallest horizon T={doc.get('horizon')}")
    elif verdict == NOT_UP_TO:
        print(f"not detectable up to T={doc.get('searched_up_to')}")
    elif verdict == SEARCH_UNDECIDED:
        print(f"undecided at T={doc.get('undecided_at')} (solver budget)")
    else:
        raise CliError(f"not a search report: verdict {verdict!r}")
    per_t = doc.get("per_t_status", {})
    for T in sorted(per_t, key=int):
        print(f"  T={T}: {per_t[T]}")
    recheck = doc.get("monotonicity_recheck")
    if recheck is not None:
        print(f"  confirmation one step past the answer: {recheck}")
    for note in doc.get("notes", []):
        print(f"  note: {note}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_model_flags(sub, *, fault=False, modes=True) -> None:
    sub.add_argument("--model", required=True,
                     help="model file or bundled name")
    if fault:
        sub.add_argument("--fault", required=False,
                         help="second model file or bundled name")
    if modes:
        sub.add_argument("--modes", default=None, metavar="a..b",
                         help="restrict --model to modes a..b (1-based)")
    sub.add_argument("--no-uncertainty", action="store_true",
                     help="zero all uncertainty radii and pin noise to 0")


def _add_budget_flags(sub, time_help="solver wall-clock budget in seconds"
                      ) -> None:
    sub.add_argument("--time-limit", type=float, default=None, help=time_help)
    sub.add_argument("--node-limit", type=int, default=None,
                     help="branch-and-bound node budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swainval",
                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")

    sub = commands.add_parser("validate", parents=[], help="check a model file")
    _add_model_flags(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser(
        "simulate", help="draw a seeded admissible trajectory as CSV")
    _add_model_flags(sub, fault=True)
    sub.add_argument("--steps", type=int, default=50,
                     help="number of samples (default 50)")
    sub.add_argument("--onset", type=int, default=None,
                     help="with --fault: first sample generated by the fault")
    sub.add_argument("--input-scale", type=float, default=1.0,
                     help="shrink the input sampling box toward its center "
                          "by this factor (drawn inputs stay admissible)")
    sub.add_argument("--state-dilation", type=float, default=1.0,
                     help="enlarge the state box used for admissibility by "
                          "this factor (initial state still drawn from the "
                          "original box); lets runs of models with no "
                          "equilibrium inside the operating box be recorded")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output CSV (default stdout)")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser(
        "invalidate",
        help="consistency of a data window (exit 0 consistent, 2 invalidated)")
    _add_model_flags(sub)
    sub.add_argument("--trajectory", required=True, help="data window CSV")
    sub.add_argument("--window", type=int, default=None,
                     help="check only the last WINDOW transitions")
    sub.add_argument("--export", default=None, metavar="LP",
                     help="write the LP file instead of solving")
    _add_budget_flags(sub)
    sub.set_defaults(func=_cmd_invalidate)

    sub = commands.add_parser(
        "find-t", help="search the smallest detectable horizon")
    _add_model_flags(sub, fault=True)
    sub.add_argument("--t0", type=int, default=1, help="first horizon tried")
    sub.add_argument("--tmax", type=int, default=100,
                     help="largest horizon tried (default 100)")
    sub.add_argument("--indicator", default=None,
                     help="indicator file or inline tuple S=3,4;W=1;m=1;O==")
    sub.add_argument("--export", default=None, metavar="JSON",
                     help="also write the search report as JSON")
    _add_budget_flags(sub, time_help="wall-clock budget in seconds for the "
                                     "whole search; each probe gets the time left")
    sub.set_defaults(func=_cmd_find_t)

    sub = commands.add_parser(
        "detect", help="receding-horizon monitoring; emits the alarm CSV")
    _add_model_flags(sub)
    sub.add_argument("--trajectory", default=None, help="data CSV")
    sub.add_argument("--stdin-stream", action="store_true",
                     help="read trajectory CSV records from stdin")
    sub.add_argument("--window", type=int, required=True,
                     help="window length in transitions")
    sub.add_argument("--halt-on-first-alarm", action="store_true",
                     help="stop at the first invalidated window")
    sub.add_argument("--out", default=None,
                     help="alarm CSV path (default stdout)")
    _add_budget_flags(sub)
    sub.set_defaults(func=_cmd_detect)

    sub = commands.add_parser(
        "export-milp", help="write a feasibility problem in LP format")
    _add_model_flags(sub, fault=True)
    sub.add_argument("--trajectory", default=None,
                     help="data CSV for the consistency problem")
    sub.add_argument("--window", type=int, default=None,
                     help="pair-problem horizon in transitions")
    sub.add_argument("--indicator", default=None,
                     help="indicator file or inline tuple (pair problem)")
    sub.add_argument("--export", default="-", metavar="LP",
                     help="output path (default stdout)")
    sub.set_defaults(func=_cmd_export_milp)

    sub = commands.add_parser(
        "bench", help="sweep window horizons; emit a run-time CSV")
    _add_model_flags(sub, fault=True)
    sub.add_argument("--t0", type=int, default=1)
    sub.add_argument("--tmax", type=int, default=10)
    sub.add_argument("--seeds", type=int, default=5,
                     help="seeds per horizon (default 5)")
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--out", default="-", help="CSV path (default stdout)")
    _add_budget_flags(sub)
    sub.set_defaults(func=_cmd_bench)

    sub = commands.add_parser(
        "report", help="render a JSON search report as text")
    sub.add_argument("--input", required=True, help="report JSON from find-t")
    sub.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FileFormatError, DimensionError, UnknownName, UnboundedSet,
            NoAdmissibleDraw, IndexError, ValueError, OSError,
            SolverNumericalError, MonotonicityViolation,
            ConversePathsDisagree, ExternalSolverError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
