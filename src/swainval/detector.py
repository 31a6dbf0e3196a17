"""Receding-horizon monitoring built on windowed consistency checks.

The monitor slides a window of ``horizon`` transitions (``horizon + 1``
output samples) over the data and checks each window against the healthy
model; a window with no admissible explanation raises an alarm at its end
index.  When the pair (healthy, change) is detectable at ``horizon`` — see
``find_T`` — a persistent change whose dynamics take over with the
transition into sample ``onset`` is flagged no later than
``onset + horizon - 1``: the window ending there consists of the junction
state plus ``horizon`` changed transitions, which the healthy model cannot
explain.  Windows that end before ``onset`` contain only healthy data and
never alarm, so the monitor is sound.

Each window gets its own solver budget (10 s and one million nodes by
default); a window the solver cannot decide within budget is reported as
``undecided`` and surfaced in the report rather than silently counted as
either verdict.

A window costs one encoding and one solve.  Windows of one model, one
length and the same inputs (every window, for a model without inputs)
share one cached encoding template (``encoder._WindowTemplate``), so after
the first such window the encoding only writes the window's outputs.  A
detector's windows share one ``SolverSession``, so a window whose matrix
equals the last one's starts its first LP from the basis the last window
ended in.  On the radiant trace a window takes 1.2 ms at horizon 3 and
8.0 ms at horizon 8 (3.0 and 19 ms with a fresh session per window), of
which the encoding takes 0.08 and 0.14 ms; the rest is the solve, mostly
its root LP (``scripts/bench_monitor.py``, a 2-vCPU x86 machine, one BLAS
thread).
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .encoder import CONSISTENT, INVALIDATED, UNDECIDED, check_invalidation
from .model import (DimensionError, RandomPolicy, SwitchedAffineModel,
                    Trajectory, _require_valid, require_finite,
                    simulate_random)
from .solver import SolverConfig, SolverSession

__all__ = [
    "WindowVerdict", "DetectionReport", "default_window_config",
    "run_receding", "StreamingDetector", "run_streaming",
    "inject_persistent_fault",
]


def default_window_config() -> SolverConfig:
    return SolverConfig(time_limit=10.0, node_limit=1_000_000)


@dataclass(frozen=True)
class WindowVerdict:
    """Outcome of one window check; ``k`` is the window's end sample."""

    k: int
    verdict: str
    solve_ms: float
    nodes: int


@dataclass(frozen=True)
class DetectionReport:
    """All window verdicts of one monitoring run.

    ``halted`` marks a run stopped at its first alarm instead of auditing
    every window.  ``undecided`` lists windows whose solver budget ran out;
    they are neither alarms nor clearances."""

    horizon: int
    results: tuple[WindowVerdict, ...]
    halted: bool = False
    notes: tuple[str, ...] = ()

    @property
    def alarms(self) -> tuple[int, ...]:
        return tuple(r.k for r in self.results if r.verdict == INVALIDATED)

    @property
    def first_alarm(self) -> int | None:
        return self.alarms[0] if self.alarms else None

    @property
    def undecided(self) -> tuple[int, ...]:
        return tuple(r.k for r in self.results if r.verdict == UNDECIDED)

    @property
    def all_clear(self) -> bool:
        return not self.alarms and not self.undecided

    def to_csv(self) -> str:
        lines = ["k,verdict,solve_ms,nodes"]
        lines += [f"{r.k},{r.verdict},{r.solve_ms:.3f},{r.nodes}"
                  for r in self.results]
        return "\n".join(lines) + "\n"


def _check_window(model: SwitchedAffineModel, window: Trajectory, k: int,
                  config: SolverConfig, session: SolverSession) -> WindowVerdict:
    start = time.perf_counter()
    res = check_invalidation(model, window, config=config, session=session)
    ms = 1e3 * (time.perf_counter() - start)
    nodes = res.solve.nodes if res.solve is not None else 0
    return WindowVerdict(k, res.verdict, ms, nodes)


def run_receding(model: SwitchedAffineModel, trajectory: Trajectory,
                 horizon: int, *, config: SolverConfig | None = None,
                 halt_on_first_alarm: bool = False) -> DetectionReport:
    """Check every complete window; alarms are indexed from k = horizon.

    The window ending at k covers samples k - horizon .. k.  With
    ``halt_on_first_alarm`` the sweep stops at the first invalidated
    window (monitoring mode); otherwise every window is audited.
    """
    if horizon < 1:
        raise ValueError("the window horizon must be >= 1 (it counts transitions)")
    det = StreamingDetector(model, horizon, config=config)
    N = len(trajectory)
    if N <= horizon:
        return DetectionReport(horizon, (), notes=(
            f"trajectory has {N} samples, shorter than one full window "
            f"of {horizon + 1}",))
    return _feed(det, zip(trajectory.inputs, trajectory.outputs),
                 halt_on_first_alarm)


class StreamingDetector:
    """Sample-by-sample monitor over a ring buffer of horizon + 1 samples.

    ``push`` returns ``"pending"`` until the first window is complete and
    afterwards the verdict of the window ending at the pushed sample; the
    verdicts match a batch ``run_receding`` over the same data exactly.
    The model is validated here, once, and a model that ``validate_model``
    rejects raises DimensionError before any window.  The detector keeps
    one solver session for its lifetime: a radiant window takes 1.2 ms at
    horizon 3 and 8.0 ms at horizon 8 with it, 3.0 and 19 ms without.
    """

    def __init__(self, model: SwitchedAffineModel, horizon: int, *,
                 config: SolverConfig | None = None):
        if horizon < 1:
            raise ValueError("the window horizon must be >= 1")
        _require_valid(model)
        self.model = model
        self.horizon = horizon
        self.config = config or default_window_config()
        self._inputs: deque = deque(maxlen=horizon + 1)
        self._outputs: deque = deque(maxlen=horizon + 1)
        self._k = -1
        self._results: list[WindowVerdict] = []
        self._session = SolverSession()

    def push(self, u, y) -> str:
        """Add one sample (``u`` may be None only for a model without
        inputs); raises DimensionError when it misfits the model and
        ValueError when it holds NaN or +-inf, before consuming it."""
        n_u, n_y = self.model.n_u, self.model.n_y
        u = np.zeros(0) if u is None else np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        for what, value, width in (("input", u, n_u), ("output", y, n_y)):
            if value.size != width:
                raise DimensionError(f"sample {self._k + 1} has {value.size} "
                                     f"{what} columns, model expects {width}")
        u, y = u.reshape(n_u), y.reshape(n_y)
        require_finite(u[None], y[None], self._k + 1)
        self._k += 1
        self._inputs.append(u)
        self._outputs.append(y)
        if len(self._outputs) <= self.horizon:
            return "pending"
        window = Trajectory(np.vstack(self._inputs), np.vstack(self._outputs))
        verdict = _check_window(self.model, window, self._k, self.config,
                                self._session)
        self._results.append(verdict)
        return verdict.verdict

    @property
    def alarms(self) -> tuple[int, ...]:
        return self.report().alarms

    def report(self) -> DetectionReport:
        return DetectionReport(self.horizon, tuple(self._results))


def run_streaming(model: SwitchedAffineModel, samples: Iterable[tuple],
                  horizon: int, *, config: SolverConfig | None = None,
                  halt_on_first_alarm: bool = False) -> DetectionReport:
    """Feed (u, y) pairs through a StreamingDetector and report."""
    return _feed(StreamingDetector(model, horizon, config=config), samples,
                 halt_on_first_alarm)


def _feed(det: StreamingDetector, samples: Iterable[tuple],
          halt_on_first_alarm: bool) -> DetectionReport:
    halted = False
    for u, y in samples:
        verdict = det.push(u, y)
        if halt_on_first_alarm and verdict == INVALIDATED:
            halted = True
            break
    return dataclasses.replace(det.report(), halted=halted)


def inject_persistent_fault(system: SwitchedAffineModel,
                            fault: SwitchedAffineModel, *, onset: int,
                            total: int, seed: int,
                            policy: RandomPolicy | None = None,
                            fault_policy: RandomPolicy | None = None) -> Trajectory:
    """Simulate data that switches permanently from system to fault dynamics.

    Samples 0 .. onset-1 are generated by the system; the transition into
    sample ``onset`` and everything after follows the fault model, started
    from the last healthy state (which must be admissible for the fault).
    ``onset = 0`` yields pure fault data.  Returns the stitched trajectory;
    the alarm guarantee for a window of T transitions is
    first_alarm <= onset + T - 1 whenever the pair is detectable at T.
    """
    if not 0 <= onset <= total:
        raise ValueError("need 0 <= onset <= total")
    if total < 1:
        raise ValueError("need at least one sample")
    base_policy = policy or RandomPolicy()
    if onset == 0:
        traj, _ = simulate_random(fault, seed=seed, steps=total,
                                  policy=fault_policy or base_policy)
        return traj
    healthy, draw = simulate_random(system, seed=seed, steps=onset,
                                    policy=base_policy)
    # replay the healthy draw up to the junction state x[onset-1]
    x = draw.initial_state.copy()
    for k in range(onset - 1):
        mode = system.modes[draw.mode_sequence[k]]
        A_k = mode.A + mode.hatA * draw.DA[k]
        B_k = mode.B + mode.hatB * draw.DB[k]
        f_k = mode.f + mode.hatf * draw.Df[k]
        x = A_k @ x + (B_k @ healthy.inputs[k] if system.n_u else 0.0) + f_k
    if onset == total:
        return healthy
    # the fault segment always starts at the junction state; a caller-supplied
    # fault_policy contributes the remaining draw choices (modes, input box)
    if fault_policy is not None:
        continued = dataclasses.replace(fault_policy, initial_state=x)
    else:
        continued = dataclasses.replace(base_policy, initial_state=x,
                                        mode_sequence=None)
    faulty, _ = simulate_random(fault, seed=seed + 1,
                                steps=total - onset + 1, policy=continued)
    inputs = np.vstack([healthy.inputs[:onset - 1], faulty.inputs]) \
        if system.n_u else np.zeros((total, 0))
    outputs = np.vstack([healthy.outputs[:onset], faulty.outputs[1:]])
    return Trajectory(inputs, outputs)
