"""The benchmark's workloads: inputs made from a seed, one timed pass over a
fixed list of ops, and the correctness gate that runs after the timing.

Every op is one call of the public API (``check_invalidation``,
``run_receding``, ``find_T``) made in a closed loop, one at a time, in one
process.  An op that raises one of the library's own run-time errors is
counted as failed instead of stopping the run; so is an op whose verdict is
undecided.
"""

from __future__ import annotations

import functools
import random
import time

import swainval as sv

from spans import SolveLog

LIBRARY_ERRORS = (sv.SolverNumericalError, sv.MonotonicityViolation,
                  sv.ConversePathsDisagree, sv.ExternalSolverError)
FAILED_VERDICTS = ("error", sv.UNDECIDED)
HIGHS_TIME_LIMIT_S = 60.0


def _call(log: SolveLog, call) -> tuple[object, str | None, float, list]:
    """Run one public call: (result or None, error or None, ms, its solves)."""
    error = None
    start = time.perf_counter()
    try:
        result = call()
    except LIBRARY_ERRORS as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    ms = 1e3 * (time.perf_counter() - start)
    return result, error, ms, log.take()


def _record(op: str, ms: float, solves: list, verdict: str,
            error: str | None = None, **extra) -> dict:
    record = {"op": op, "verdict": "error" if error else verdict, "ms": ms,
              "nodes": sum(r.nodes for r in solves),
              "lp_iterations": sum(r.lp_iterations for r in solves), **extra}
    if error:
        record["error"] = error
    return record


class Gate:
    """Collects contradictions (which fail the run) and notes (which do not)."""

    def __init__(self):
        self.problems: list[str] = []
        self.notes: list[str] = []

    def cross_check(self, what: str, refuted: bool, problem) -> None:
        """Re-solve with HiGHS; an infeasibility it contradicts is a failure.

        HiGHS's witness is accepted by the bridge at 10 x FEAS_TOL, but the
        bundled solver proves infeasibility at FEAS_TOL; a HiGHS point that
        only fits in between contradicts nothing and earns a note.  HiGHS
        rejecting a verdict backed by a re-verified witness also only earns
        a note, since the witness itself proves feasibility."""
        try:
            res = sv.external.solve_lp_problem_with_scipy(
                problem.seal(), time_limit=HIGHS_TIME_LIMIT_S)
        except sv.ExternalSolverError as exc:
            self.notes.append(f"{what}: HiGHS failed: {exc}")
            return
        status = res.status
        if refuted and status == sv.FEASIBLE:
            ok, violations = sv.verify(problem, res.witness, tol=sv.milp.FEAS_TOL)
            if ok:
                self.problems.append(f"{what}: proved infeasible, but HiGHS "
                                     f"found a solution within FEAS_TOL")
            else:
                self.notes.append(f"{what}: HiGHS point misses FEAS_TOL "
                                  f"({violations[0]})")
        elif not refuted and status == sv.INFEASIBLE:
            self.notes.append(f"{what}: HiGHS finds no solution for a verified witness")
        elif status not in (sv.FEASIBLE, sv.INFEASIBLE):
            self.notes.append(f"{what}: HiGHS undecided within {HIGHS_TIME_LIMIT_S} s")


class Workload:
    """``setup(seed)`` builds models and data and warms up; ``run`` makes one
    pass and returns one record per op; ``check`` is the correctness gate.
    With ``reference`` the gate also re-solves the feasible ops with HiGHS,
    so that the traced run times HiGHS on the whole pass."""

    name = ""

    def alarm_delay(self, records: list[dict]) -> float:
        return 0.0


class NumericInvalidate(Workload):
    """check_invalidation(numeric3, window) on independent 6-sample windows.

    Even windows are drawn from numeric3 itself and must not be
    invalidated; odd ones from numeric6, whose extra modes usually leave
    numeric3 without an explanation.  Off-model data comes from numeric6
    because numericFault admits no 6-sample draw (NoAdmissibleDraw).

    A window takes 15 to 430 branch-and-bound nodes depending on the draw,
    so twelve fresh windows per seed made one pass take anywhere from 20 s
    to 39 s, a spread far beyond any useful bound.  The window set is
    therefore drawn once from ``data_seed`` and the run's seed only orders
    it."""

    name = "numeric-invalidate"
    windows = 12
    samples = 6
    data_seed = 0

    def setup(self, seed: int):
        model = sv.numeric_family(3)
        off_model = sv.numeric_system()
        policy = sv.RandomPolicy(input_box=sv.HyperRectangle([-1.0], [1.0]))
        rng = random.Random(self.data_seed)
        data = []
        for i in range(self.windows):
            source = model if i % 2 == 0 else off_model
            window, _ = sv.simulate_random(source, seed=rng.randrange(2**31),
                                           steps=self.samples, policy=policy)
            data.append((f"window{i}", source is model, window))
        random.Random(seed).shuffle(data)
        sv.check_invalidation(model, data[0][2].window(0, 2))
        return model, data

    def run(self, state, log: SolveLog) -> list[dict]:
        model, data = state
        records = []
        for name, _, window in data:
            res, error, ms, solves = _call(
                log, functools.partial(sv.check_invalidation, model, window))
            records.append(_record(name, ms, solves, res and res.verdict, error))
        return records

    def check(self, state, records: list[dict], reference: bool) -> Gate:
        model, data = state
        gate = Gate()
        for (_, healthy, window), rec in zip(data, records):
            verdict = rec["verdict"]
            if healthy and verdict == sv.INVALIDATED:
                gate.problems.append(
                    f"{rec['op']}: drawn from numeric3 but INVALIDATED")
            if verdict == sv.INVALIDATED or (reference and verdict == sv.CONSISTENT):
                try:
                    enc = sv.encode_invalidation(model, window)
                except sv.InputOutsideAdmissibleSet:
                    continue
                gate.cross_check(rec["op"], verdict == sv.INVALIDATED, enc.problem)
        return gate


class RadiantMonitor(Workload):
    """run_receding(radiant, trace, horizon=3) over a trace that turns faulty.

    The trace follows radiant for samples 0..onset-1 and radiantFault from
    the transition into ``onset`` on.  The pass is one run_receding call and
    each of its windows is one op: 40 windows, so 10 lie beyond the p75.

    Most invalidated windows close at the root LP in about 0.6 s, but
    between 2 and 10 of the 27 take 5 nodes and over 2 s, depending on the
    draw; over five seeds the quartile spread was 0.20 of the median for
    pass_s and 0.53 for op_ms_p75.  The trace is therefore drawn once from
    ``data_seed``; a monitor's windows have a fixed order, so the run's
    seed changes nothing here."""

    name = "radiant-monitor"
    onset = 15
    samples = 43
    horizon = 3
    data_seed = 0

    def setup(self, seed: int):
        system, fault = sv.builtin_pair("radiant")
        trace = sv.inject_persistent_fault(system, fault, onset=self.onset,
                                           total=self.samples,
                                           seed=self.data_seed)
        sv.check_invalidation(system, trace.window(0, 2))
        return system, trace

    def run(self, state, log: SolveLog) -> list[dict]:
        system, trace = state
        report, error, ms, solves = _call(
            log, functools.partial(sv.run_receding, system, trace, self.horizon))
        if error:
            return [_record(f"k={k}", ms, [], "", error)
                    for k in range(self.horizon, len(trace))]
        if len(solves) != len(report.results):
            raise RuntimeError("a window was decided without a solve, so "
                               "per-window counts cannot be matched")
        return [dict(_record(f"k={w.k}", w.solve_ms, [s], w.verdict), k=w.k)
                for w, s in zip(report.results, solves)]

    def check(self, state, records: list[dict], reference: bool) -> Gate:
        system, trace = state
        gate = Gate()
        for rec in records:
            verdict, k = rec["verdict"], rec.get("k")
            if k is None:
                continue
            if k < self.onset and verdict == sv.INVALIDATED:
                gate.problems.append(
                    f"{rec['op']}: window of healthy data INVALIDATED")
            if verdict == sv.INVALIDATED or (reference and verdict == sv.CONSISTENT):
                window = trace.window(k - self.horizon, k + 1)
                try:
                    enc = sv.encode_invalidation(system, window)
                except sv.InputOutsideAdmissibleSet:
                    continue
                gate.cross_check(rec["op"], verdict == sv.INVALIDATED, enc.problem)
        return gate

    def alarm_delay(self, records: list[dict]) -> float:
        """first alarm - onset; the trace length - onset when none rang."""
        alarms = [r["k"] for r in records if r["verdict"] == sv.INVALIDATED]
        return float((alarms[0] if alarms else self.samples) - self.onset)


class DetectFindT(Workload):
    """find_T on the ideal sensor scenarios 1-4 and on radiant up to T=4.

    The sensor pairs are mostly infeasibility proofs plus find_T's
    monotonicity re-check; radiant adds feasible probes (witness diving and
    the rounding heuristic).  The models are fixed, so the seed only sets
    the order of the calls."""

    name = "detect-findT"
    sensors = (1, 2, 3, 4)
    radiant_t_max = 4

    def setup(self, seed: int):
        specs = {s.name: s for s in sv.scenario_specs()}
        ops = []
        for i in self.sensors:
            spec = specs[f"sensor-scenario-{i}"]
            system, fault = sv.builtin_pair(f"sensorScenario{i}",
                                            uncertainty=spec.uncertainty)
            ops.append((f"sensorScenario{i}", system, fault, {},
                        int(spec.expected.removeprefix("T="))))
        system, fault = sv.builtin_pair("radiant")
        ops.append(("radiant", system, fault,
                    {"t_max": self.radiant_t_max}, None))
        random.Random(seed).shuffle(ops)
        sv.check_t_detectability(ops[0][1], ops[0][2], 1)
        return ops

    def run(self, state, log: SolveLog) -> list[dict]:
        records = []
        for name, system, fault, kwargs, _ in state:
            rep, error, ms, solves = _call(
                log, functools.partial(sv.find_T, system, fault, **kwargs))
            extra = {} if error else {"horizon": rep.horizon,
                                      "per_t": rep.per_t_status}
            records.append(_record(name, ms, solves, rep and rep.verdict,
                                   error, **extra))
        return records

    def check(self, state, records: list[dict], reference: bool) -> Gate:
        gate = Gate()
        for (name, system, fault, _, expected), rec in zip(state, records):
            if "per_t" not in rec:
                continue
            decided = rec["verdict"] != sv.detectability.UNDECIDED
            if expected is not None and decided and (
                    rec["verdict"] != sv.detectability.YES
                    or rec["horizon"] != expected):
                gate.problems.append(
                    f"{name}: find_T gave {rec['verdict']} T={rec['horizon']},"
                    f" scenario_specs() states T={expected}")
            for T, status in sorted(rec["per_t"].items()):
                if expected is None and status == sv.INFEASIBLE:
                    gate.problems.append(
                        f"{name}: infeasible at T={T}, below the paper's T=8")
                if status == sv.INFEASIBLE or (reference and status == sv.FEASIBLE):
                    try:
                        enc = sv.encode_t_detectability(system, fault, T)
                    except sv.EmptyInputIntersection:
                        continue
                    gate.cross_check(f"{name} T={T}", status == sv.INFEASIBLE,
                                     enc.problem)
        return gate


WORKLOADS = {w.name: w for w in (NumericInvalidate(), RadiantMonitor(),
                                 DetectFindT())}
