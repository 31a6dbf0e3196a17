"""In-memory spans around swainval's layer boundaries, installed from outside.

A wrapper replaces a function on the module (or class) attribute that the
layer above looks up at call time -- ``encoder.solve_milp`` for the solver
as check_invalidation sees it, ``detector.check_invalidation`` for the
encoder as the monitor sees it, and so on -- so the package itself stays
untouched.  Every span records its name (``<layer>.<function>``), its parent
span, start and end; a span's self time is its duration minus the time its
child spans cover.  Spans stay in memory until the run writes them out.

``SolveLog`` is the lighter hook that every run keeps, traced or not: it
only collects the SolveResult of every solve, so each op can report its node
and LP-iteration counts.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import fmean


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start_ms": 1e3 * (self.start - origin),
                "dur_ms": 1e3 * self.duration, "self_ms": 1e3 * self.self_s,
                **self.attrs}


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SolveLog:
    """Collects every SolveResult returned through the two solver import sites."""

    def __init__(self, sv):
        self.results: list = []
        self._patches = _Patches()
        for module in (sv.encoder, sv.detectability):
            self._patches.replace(module, "solve_milp", self._recording)

    def _recording(self, original):
        @functools.wraps(original)
        def solve_milp(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result
        return solve_milp

    def take(self) -> list:
        """The results logged since the previous call."""
        taken, self.results = self.results, []
        return taken

    def close(self) -> None:
        self._patches.restore()


class Tracer:
    """Single-threaded span recorder with wrappers at layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches = _Patches()
        self.origin = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``annotate(span, args, result)`` may add attributes after a call that
        returned; a call that raised records the exception's class name."""
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    span.attrs["error"] = type(exc).__name__
                    raise
                finally:
                    self._exit(span)
                if annotate is not None:
                    annotate(span, args, result)
                return result
            return traced
        self._patches.replace(owner, attr, make)

    def _enter(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def close(self) -> None:
        self._patches.restore()


def _solve_attrs(span: Span, args, result) -> None:
    problem = args[0]
    span.attrs.update(
        status=result.status, nodes=result.nodes,
        lp_iterations=result.lp_iterations, vars=problem.n_vars,
        rows=problem.n_rows, binaries=len(problem.binary_vars),
        heuristic=result.message == "rounding heuristic",
        certificate=result.certificate is not None)


def _status_attr(span: Span, args, result) -> None:
    span.attrs["status"] = result.status


def install_layer_spans(tracer: Tracer, sv) -> None:
    """Wrap the public calls at the import sites each layer's caller uses.

    The benchmark itself reaches the package through the ``swainval``
    namespace, so its public calls are wrapped there."""
    enc, det, dtc = sv.encoder, sv.detectability, sv.detector
    for public, layer in (("check_invalidation", "encoder"),
                          ("run_receding", "detector"),
                          ("find_T", "detectability"),
                          ("simulate_random", "model"),
                          ("numeric_family", "examples"),
                          ("numeric_system", "examples"),
                          ("builtin_pair", "examples")):
        tracer.wrap(sv, public, f"{layer}.{public}")
    tracer.wrap(dtc, "simulate_random", "model.simulate_random")
    tracer.wrap(dtc, "check_invalidation", "encoder.check_invalidation")
    tracer.wrap(det, "check_t_detectability",
                "detectability.check_t_detectability", _status_attr)
    tracer.wrap(enc, "encode_invalidation", "encoder.encode_invalidation")
    tracer.wrap(det, "encode_t_detectability", "encoder.encode_t_detectability")
    tracer.wrap(enc, "decode_invalidation_witness",
                "encoder.decode_invalidation_witness")
    tracer.wrap(det, "decode_pair_witness", "encoder.decode_pair_witness")
    for module in (enc, det):
        tracer.wrap(module, "solve_milp", "solver.solve_milp", _solve_attrs)
    tracer.wrap(sv.milp.MilpProblem, "seal", "milp.seal")
    tracer.wrap(sv.milp.MilpProblem, "to_arrays", "milp.to_arrays")
    tracer.wrap(sv.solver, "verify", "milp.verify")
    tracer.wrap(sv.external, "solve_lp_problem_with_scipy",
                "external.solve_lp_problem_with_scipy", _status_attr)


def _ms(spans) -> float:
    return 1e3 * sum(s.duration for s in spans)


def _share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _recheck_probes(probes: list[Span]) -> list[Span]:
    """Probes that find_T ran right after an infeasible one: its re-check."""
    children = defaultdict(list)
    for probe in probes:
        children[probe.parent].append(probe)
    rechecks = []
    for siblings in children.values():
        rechecks += [b for a, b in zip(siblings, siblings[1:])
                     if a.attrs.get("status") == "infeasible"]
    return rechecks


def layer_metrics(setup: list[Span], run: list[Span], gate: list[Span],
                  alarm_delay: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (plus its set-up and gate)."""
    by_name = defaultdict(list)
    self_ms = defaultdict(float)
    for span in run:
        by_name[span.name].append(span)
        self_ms[span.layer] += 1e3 * span.self_s

    solves = by_name["solver.solve_milp"]
    returned = [s for s in solves if "error" not in s.attrs]
    nodes = sum(s.attrs["nodes"] for s in returned)
    iters = sum(s.attrs["lp_iterations"] for s in returned)
    solve_ms = _ms(solves)
    feasible = [s for s in returned if s.attrs["status"] == "feasible"]
    infeasible = [s for s in returned if s.attrs["status"] == "infeasible"]

    probes = by_name["detectability.check_t_detectability"]
    monitors = by_name["detector.run_receding"]
    monitor_ids = {m.id for m in monitors}
    windows = [s for s in by_name["encoder.check_invalidation"]
               if s.parent in monitor_ids]
    setup_by = defaultdict(list)
    for span in setup:
        setup_by[span.layer].append(span)

    def size(key: str) -> float:
        return fmean(s.attrs[key] for s in returned) if returned else 0.0

    return {
        "solver.calls": len(solves),
        "solver.nodes": nodes,
        "solver.lp_iters_per_node": iters / nodes if nodes else 0.0,
        "solver.ms_per_node": solve_ms / nodes if nodes else 0.0,
        "solver.solve_ms": solve_ms,
        "solver.self_ms": self_ms["solver"],
        "solver.heuristic_share": _share(
            sum(s.attrs["heuristic"] for s in feasible), len(feasible)),
        "solver.certificate_share": _share(
            sum(s.attrs["certificate"] for s in infeasible), len(infeasible)),
        "encoder.encode_ms": _ms(by_name["encoder.encode_invalidation"]
                                 + by_name["encoder.encode_t_detectability"]),
        "encoder.decode_ms": _ms(by_name["encoder.decode_invalidation_witness"]
                                 + by_name["encoder.decode_pair_witness"]),
        "encoder.self_ms": self_ms["encoder"],
        "encoder.vars": size("vars"),
        "encoder.rows": size("rows"),
        "encoder.binaries": size("binaries"),
        "milp.seal_ms": _ms(by_name["milp.seal"]),
        "milp.to_arrays_ms": _ms(by_name["milp.to_arrays"]),
        "milp.verify_ms": _ms(by_name["milp.verify"]),
        "detectability.probes": len(probes),
        "detectability.probe_ms": _ms(probes),
        "detectability.recheck_share": _share(
            _ms(_recheck_probes(probes)), _ms(probes)),
        "detectability.self_ms": self_ms["detectability"],
        "detector.windows": len(windows),
        "detector.overhead_ms": _ms(monitors) - _ms(windows),
        "detector.alarm_delay_samples": alarm_delay,
        "model.simulate_ms": _ms(setup_by["model"]),
        "examples.build_ms": _ms(setup_by["examples"]),
        "external.highs_ms": _ms(s for s in gate if s.layer == "external"),
    }
