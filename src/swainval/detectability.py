"""Minimal-horizon detectability search.

A change model is *T-detectable* against a system when no input-output
window of T transitions lies in both behaviours; the receding-horizon
monitor then flags any persistent change within T steps.  ``find_T``
searches the smallest such horizon by solving one coupled feasibility
problem per candidate and certifying the first infeasible one (plus a
re-check one step later, since detectability is monotone in the horizon).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace

from .encoder import (CommonBehavior, EmptyInputIntersection, Indicator,
                      decode_pair_witness, encode_t_detectability,
                      prefix_indicator)
from .model import SwitchedAffineModel
from .solver import (BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE, SolveResult,
                     SolverConfig, solve_milp)

__all__ = [
    "YES", "NOT_UP_TO", "UNDECIDED",
    "MonotonicityViolation", "ConversePathsDisagree",
    "TDetectabilityResult", "check_t_detectability",
    "DetectabilityReport", "find_T",
]

_log = logging.getLogger(__name__)

YES = "yes"
NOT_UP_TO = "notUpTo"
UNDECIDED = "undecided"


class MonotonicityViolation(RuntimeError):
    """A horizon was decided infeasible but a longer one came back feasible.

    Mathematically impossible (a longer shared behaviour restricts to a
    shorter one), so this always signals a solver failure and is raised
    rather than folded into a report."""


class ConversePathsDisagree(RuntimeError):
    """No code raises this any more: the closed-form never-detectable test
    that did is gone.  It stays only because ``perfbench/workloads.py``
    names it among the library errors an op may raise; it goes once the
    benchmark drops it."""


@dataclass(frozen=True)
class TDetectabilityResult:
    """Outcome of one coupled feasibility check at a fixed horizon.

    ``status`` is the raw solve status; ``detectable`` translates it
    (infeasible means every shared window is impossible, hence detectable)
    and stays None when the solver ran out of budget."""

    horizon: int
    status: str
    solve: SolveResult | None
    behavior: CommonBehavior | None
    wall_time: float
    note: str = ""

    @property
    def detectable(self) -> bool | None:
        if self.status == INFEASIBLE:
            return True
        if self.status == FEASIBLE:
            return False
        return None


def check_t_detectability(system: SwitchedAffineModel,
                          fault: SwitchedAffineModel, horizon: int, *,
                          indicator: Indicator | None = None,
                          config: SolverConfig | None = None,
                          ) -> TDetectabilityResult:
    """Decide whether a shared behaviour of ``horizon`` transitions exists.

    Feasibility produces a shared behaviour whose prefixes defeat every
    shorter horizon as well (monotonicity), so a feasible answer at a cap
    shows the pair is not detectable at any horizon up to it; infeasibility
    certifies detectability at ``horizon``.  The solve runs on the backend
    ``config`` names (see :func:`solve_milp`).
    """
    start = time.perf_counter()
    try:
        enc = encode_t_detectability(system, fault, horizon,
                                     indicator=indicator)
    except EmptyInputIntersection:
        return TDetectabilityResult(
            horizon, INFEASIBLE, None, None, time.perf_counter() - start,
            note="the admissible input sets do not intersect")
    res = solve_milp(enc.problem, config)
    behavior = (decode_pair_witness(enc, res.witness)
                if res.status == FEASIBLE else None)
    return TDetectabilityResult(horizon, res.status, res, behavior,
                                time.perf_counter() - start)


@dataclass(frozen=True)
class DetectabilityReport:
    """Result of the minimal-horizon search.

    ``verdict`` is ``"yes"`` (with ``horizon`` set to the smallest
    detectable T), ``"notUpTo"`` (every horizon up to ``searched_up_to``
    still admits a shared behaviour) or ``"undecided"`` (a solve hit its
    budget at ``undecided_at``).  ``per_t_status`` and ``wall_times`` keep
    the full trail; for a ``"yes"`` the trail shows feasible at every
    shorter horizon and ``monotonicity_recheck`` records the confirming
    status one step past the answer."""

    verdict: str
    horizon: int | None
    searched_from: int
    searched_up_to: int
    per_t_status: dict[int, str]
    wall_times: dict[int, float]
    witness_at_last_feasible: CommonBehavior | None = field(repr=False, default=None)
    monotonicity_recheck: str | None = None
    undecided_at: int | None = None
    indicator: Indicator | None = None
    notes: tuple[str, ...] = ()

    @property
    def detectable(self) -> bool | None:
        return {YES: True, NOT_UP_TO: False}.get(self.verdict)

    def to_text(self) -> str:
        if self.verdict == YES:
            head = f"T={self.horizon}"
        elif self.verdict == NOT_UP_TO:
            head = f"NOT DETECTABLE up to {self.searched_up_to}"
        else:
            head = f"UNDECIDED at T={self.undecided_at}"
        lines = [head]
        for T in sorted(self.per_t_status):
            lines.append(f"  T={T}: {self.per_t_status[T]}")
        if self.monotonicity_recheck is not None:
            lines.append(f"  recheck at T={(self.horizon or 0) + 1}:"
                         f" {self.monotonicity_recheck}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "horizon": self.horizon,
            "searched_from": self.searched_from,
            "searched_up_to": self.searched_up_to,
            "per_t_status": {str(k): v for k, v in self.per_t_status.items()},
            "wall_times": {str(k): v for k, v in self.wall_times.items()},
            "monotonicity_recheck": self.monotonicity_recheck,
            "undecided_at": self.undecided_at,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def __str__(self) -> str:
        return self.to_text()


def find_T(system: SwitchedAffineModel, fault: SwitchedAffineModel, *,
           indicator: Indicator | None = None, t0: int = 1, t_max: int = 100,
           config: SolverConfig | None = None) -> DetectabilityReport:
    """Search the smallest horizon at which the pair becomes detectable.

    Feasibility is monotone (a longer shared behaviour restricts to a
    shorter one), so the first infeasible horizon is the answer; it is
    reconfirmed one step later and a violation raises
    MonotonicityViolation.  An indicator restricts the change model's early
    mode choices; at horizons shorter than its window the restriction is
    weakened to what it implies about length-T mode-word prefixes
    (:func:`~swainval.encoder.prefix_indicator`).

    ``config.time_limit`` bounds the whole search: each probe gets the time
    left.  ``config.node_limit`` bounds each probe.  A probe that runs out
    of either ends the search UNDECIDED.  Without a time limit the probes
    go on until one is infeasible or ``t_max`` is reached.  A probe's cost
    grows with T (its problem grows linearly in T and its branch tree can
    grow exponentially), so a pair that stays feasible can then run for a
    long time.  Every probe logs one INFO
    record on the ``swainval.detectability`` logger with T, the status, the
    node count and the wall time.
    """
    if t0 < 1:
        raise ValueError("the search must start at a horizon >= 1")
    if t_max < t0:
        raise ValueError("t_max must be >= t0")
    per_t: dict[int, str] = {}
    walls: dict[int, float] = {}
    last_witness: CommonBehavior | None = None
    notes: list[str] = []
    deadline = (None if config is None or config.time_limit is None
                else time.perf_counter() + config.time_limit)

    def probe(T: int) -> TDetectabilityResult:
        ind_T = prefix_indicator(indicator, T) if indicator is not None else None
        cfg = config if deadline is None else replace(
            config, time_limit=max(deadline - time.perf_counter(), 0.0))
        r = check_t_detectability(system, fault, T, indicator=ind_T, config=cfg)
        per_t[T] = r.status
        walls[T] = r.wall_time
        _log.info("find_T probe T=%d: %s, %d nodes, %.3f s", T, r.status,
                  r.solve.nodes if r.solve else 0, r.wall_time)
        if r.note:
            notes.append(f"T={T}: {r.note}")
        return r

    for T in range(t0, t_max + 1):
        r = probe(T)
        if r.status == BUDGET_EXCEEDED:
            return DetectabilityReport(UNDECIDED, None, t0, T, per_t, walls,
                                       last_witness, None, T, indicator,
                                       tuple(notes))
        if r.status == FEASIBLE:
            last_witness = r.behavior
            continue
        confirm = probe(T + 1)  # the confirmation step may exceed t_max
        if confirm.status == FEASIBLE:
            raise MonotonicityViolation(
                f"infeasible at T={T} but feasible at T={T + 1}")
        return DetectabilityReport(YES, T, t0, T, per_t, walls, last_witness,
                                   confirm.status, None, indicator,
                                   tuple(notes))
    return DetectabilityReport(NOT_UP_TO, None, t0, t_max, per_t, walls,
                               last_witness, None, None, indicator,
                               tuple(notes))

