"""Minimal-horizon detectability search and never-detectable certificates.

A change model is *T-detectable* against a system when no input-output
window of T transitions lies in both behaviours; the receding-horizon
monitor then flags any persistent change within T steps.  ``find_T``
searches the smallest such horizon by solving one coupled feasibility
problem per candidate and certifying the first infeasible one (plus a
re-check one step later, since detectability is monotone in the horizon).

The module also hosts the converse tools: mode-sequence observability
matrices, the concatenated difference system whose unobservable directions
are exactly the indistinguishable initial conditions, and a closed-form
never-detectable test for affine (single-mode) pairs that is cross-checked
against the feasibility encoding.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import (CommonBehavior, EmptyInputIntersection, Indicator,
                      decode_pair_witness, encode_t_detectability,
                      prefix_indicator)
from .model import (AffineMode, HyperRectangle, SwitchedAffineModel)
from .solver import (BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE, SolveResult,
                     SolverConfig, solve_milp)

__all__ = [
    "YES", "NOT_UP_TO", "UNDECIDED",
    "MonotonicityViolation", "ConversePathsDisagree",
    "TDetectabilityResult", "check_t_detectability",
    "DetectabilityReport", "find_T",
    "observability_matrix", "matrix_rank_scaled", "is_observable",
    "concatenated_system", "AffineConverseReport", "affine_never_detectable",
]

_log = logging.getLogger(__name__)

YES = "yes"
NOT_UP_TO = "notUpTo"
UNDECIDED = "undecided"

_RANK_REL_TOL = 1e-9


class MonotonicityViolation(RuntimeError):
    """A horizon was decided infeasible but a longer one came back feasible.

    Mathematically impossible (a longer shared behaviour restricts to a
    shorter one), so this always signals a solver failure and is raised
    rather than folded into a report."""


class ConversePathsDisagree(RuntimeError):
    """The closed-form and feasibility-based never-detectable tests split."""


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
    enc.problem.seal()
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


# -- observability and converse results --------------------------------------


def observability_matrix(model: SwitchedAffineModel,
                         mode_sequence) -> np.ndarray:
    """Stack C_{s_k} A_{s_{k-1}} ... A_{s_0} blocks along a mode sequence.

    The null space of the stack is exactly the set of initial-state
    differences invisible in the outputs along that switching path."""
    seq = [int(i) for i in mode_sequence]
    if not seq:
        raise ValueError("the mode sequence must contain at least one mode")
    if any(not 0 <= i < model.s for i in seq):
        raise ValueError("mode indices must lie in 0..s-1")
    prod = np.eye(model.n)
    blocks = []
    for k, i in enumerate(seq):
        if k:
            prod = model.modes[seq[k - 1]].A @ prod
        blocks.append(model.modes[i].C @ prod)
    return np.vstack(blocks)


def matrix_rank_scaled(mat: np.ndarray) -> int:
    """Rank with the tolerance scaled to the largest matrix entry."""
    if mat.size == 0:
        return 0
    biggest = float(np.max(np.abs(mat)))
    if biggest == 0.0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > _RANK_REL_TOL * biggest))


def is_observable(model: SwitchedAffineModel, mode_sequence) -> bool:
    return matrix_rank_scaled(observability_matrix(model, mode_sequence)) == model.n


def _augmented(mode: AffineMode) -> np.ndarray:
    """The (n+1)-dimensional lift carrying the affine offset as a state."""
    n = mode.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = mode.A
    aug[:n, n] = mode.f
    aug[n, n] = 1.0
    return aug


def concatenated_system(system: SwitchedAffineModel,
                        fault: SwitchedAffineModel) -> SwitchedAffineModel:
    """The autonomous difference system on (x, phi, xbar, phibar).

    One mode per mode pair; the output is y - ybar, so a trajectory with
    identically zero output started at phi = phibar = 1 is exactly a pair
    of behaviours the two models share without noise.  State and noise
    carry no box restrictions (the construction serves the unrestricted
    converse analysis)."""
    if system.n_y != fault.n_y:
        raise ValueError("the two models must share the output dimension")
    n1, n2, n_y = system.n, fault.n, system.n_y
    dim = n1 + 1 + n2 + 1
    modes = []
    for m1 in system.modes:
        for m2 in fault.modes:
            A = np.zeros((dim, dim))
            A[:n1 + 1, :n1 + 1] = _augmented(m1)
            A[n1 + 1:, n1 + 1:] = _augmented(m2)
            C = np.zeros((n_y, dim))
            C[:, :n1] = m1.C
            C[:, n1 + 1:n1 + 1 + n2] = -m2.C
            modes.append(AffineMode.certain(A=A, B=np.zeros((dim, 0)), C=C,
                                            f=np.zeros(dim)))
    free = HyperRectangle([-np.inf] * dim, [np.inf] * dim)
    return SwitchedAffineModel(modes, state_set=free,
                               noise_set=HyperRectangle.point([0.0] * n_y),
                               input_set=HyperRectangle([], []),
                               name="difference")


@dataclass(frozen=True)
class AffineConverseReport:
    """Outcome of the affine never-detectable test.

    ``never_detectable`` comes from the closed-form path: the stacked
    matching equations along the two affine orbits admit an initial pair
    iff the residual vanishes.  ``milp_status`` records the cross-check
    (a feasibility encoding at the saturation horizon 2n+1 with zero
    noise); the two must agree by construction."""

    never_detectable: bool
    initial_states: tuple[np.ndarray, np.ndarray] | None
    residual: float
    horizon_checked: int
    milp_status: str


def _zero_noise_copy(model: SwitchedAffineModel,
                     state_box: HyperRectangle) -> SwitchedAffineModel:
    return SwitchedAffineModel(model.modes, state_set=state_box,
                               noise_set=HyperRectangle.point([0.0] * model.n_y),
                               input_set=model.input_set, name=model.name)


def affine_never_detectable(system: SwitchedAffineModel,
                            fault: SwitchedAffineModel, *,
                            config: SolverConfig | None = None) -> AffineConverseReport:
    """Exact never-detectable test for a pair of affine (single-mode) models.

    Both models must be single-mode, autonomous and without structured
    uncertainty; noise is ignored (the question is exact output matching,
    which is what staying undetectable at *every* horizon means).  The
    closed-form path solves the stacked matching equations over the first
    2n+2 samples — past the point where new samples stop adding rank — and
    the feasibility path re-asks the same question as a coupled encoding at
    horizon 2n+1 over a box padded around the candidate orbit.  Raises
    ConversePathsDisagree if they ever split.
    """
    for name, model in (("system", system), ("fault", fault)):
        if model.s != 1:
            raise ValueError(f"the {name} must be single-mode (affine)")
        if model.has_uncertainty:
            raise ValueError(f"the {name} must carry no structured uncertainty")
        if model.n_u:
            raise ValueError("the affine test covers autonomous models")
    if system.n_y != fault.n_y:
        raise ValueError("the two models must share the output dimension")
    n1, n2, n_y = system.n, fault.n, system.n_y
    n = max(n1, n2)
    horizon = 2 * n + 1
    samples = horizon + 1

    aug1, aug2 = _augmented(system.modes[0]), _augmented(fault.modes[0])
    C1, C2 = system.modes[0].C, fault.modes[0].C
    rows, rhs = [], []
    P1, P2 = np.eye(n1 + 1), np.eye(n2 + 1)
    for _k in range(samples):
        row = np.zeros((n_y, n1 + n2))
        row[:, :n1] = C1 @ P1[:n1, :n1]
        row[:, n1:] = -(C2 @ P2[:n2, :n2])
        rows.append(row)
        rhs.append(-(C1 @ P1[:n1, n1]) + C2 @ P2[:n2, n2])
        P1, P2 = aug1 @ P1, aug2 @ P2
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ w - b), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(A), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    never = residual <= 1e-9 * scale
    x0, xb0 = w[:n1], w[n1:]

    # cross-check: the same question as a coupled feasibility problem over
    # a box padded around the candidate orbit
    orbit_max = 1.0
    x, xb = x0.copy(), xb0.copy()
    for _k in range(samples):
        orbit_max = max(orbit_max, float(np.max(np.abs(x), initial=0.0)),
                        float(np.max(np.abs(xb), initial=0.0)))
        x = system.modes[0].A @ x + system.modes[0].f
        xb = fault.modes[0].A @ xb + fault.modes[0].f
    radius = 10.0 * (1.0 + orbit_max)
    boxed_system = _zero_noise_copy(system, HyperRectangle.ball(radius, n1))
    boxed_fault = _zero_noise_copy(fault, HyperRectangle.ball(radius, n2))
    milp = check_t_detectability(boxed_system, boxed_fault, horizon,
                                 config=config)
    if milp.status in (FEASIBLE, INFEASIBLE):
        milp_never = milp.status == FEASIBLE
        if milp_never != never:
            raise ConversePathsDisagree(
                f"closed form says never_detectable={never} "
                f"(residual {residual:.3e}) but the feasibility check "
                f"returned {milp.status} at T={horizon}")
    return AffineConverseReport(never, (x0, xb0) if never else None,
                                residual, horizon, milp.status)
