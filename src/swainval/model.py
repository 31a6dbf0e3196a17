"""Hidden-mode switched affine (SWA) models with bounded parametric uncertainty.

A model is a finite collection of affine modes

    x[k+1] = (A_i + hatA_i * DA[k]) x[k] + (B_i + hatB_i * DB[k]) u[k]
             + f_i + hatf_i * Df[k]
    y[k]   = (C_i + hatC_i * DC[k]) x[k] + eta[k]

where ``*`` is the elementwise (Hadamard) product, every uncertainty entry
``D*[k]`` lies in [-1, 1], states live in a hyper-rectangle ``state_set``,
measurement noise in ``noise_set`` and inputs in ``input_set``.  The active
mode index is hidden and may change arbitrarily at every step.

A model is valid once built: ``SwitchedAffineModel`` admits only modes of
one dimension with finite matrices and nonnegative radii, and sets of the
right dimensions that are nonempty and free of NaN, and raises
DimensionError otherwise.  Each mode holds read-only copies of its
arrays, so a built model stays valid; ``dataclasses.replace`` passes the
same gate.

This module provides the data types, exact simulation, seeded
admissible-trajectory sampling, ZOH/Euler discretization of
continuous-time affine modes, mode subsets (``submodel``) and the
idealized variant of a model (``strip_uncertainty``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

__all__ = [
    "AffineMode",
    "HyperRectangle",
    "SwitchedAffineModel",
    "Trajectory",
    "SimulationDraw",
    "RandomPolicy",
    "DimensionError",
    "StateBoundViolation",
    "NoAdmissibleDraw",
    "simulate",
    "simulate_random",
    "discretize_affine",
    "submodel",
    "strip_uncertainty",
]


class DimensionError(ValueError):
    """A matrix/vector does not have the shape the model dimensions require.

    ``issues`` holds one ``"where: message"`` string per reason a model
    was refused admission, and is empty for any other shape error.
    """

    def __init__(self, message: str, issues: Sequence[str] = ()):
        super().__init__(message)
        self.issues = tuple(issues)


class StateBoundViolation(RuntimeError):
    """A simulated state left the admissible state set.

    Attributes
    ----------
    k : int
        Time index of the first violating state.
    """

    def __init__(self, k: int, state: np.ndarray):
        self.k = k
        self.state = np.asarray(state, dtype=float)
        super().__init__(f"state at step {k} leaves the admissible state set: {state}")


class NoAdmissibleDraw(RuntimeError):
    """Random simulation exhausted its retry budget without an admissible draw."""


def _as_vector(value, length: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise DimensionError(f"{name} must have length {length}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class HyperRectangle:
    """Axis-aligned box {v : lower <= v <= upper}; entries may be +-inf.

    A zero-dimensional box is the admissible set of an autonomous model's
    (empty) input.  Degenerate coordinates (lower == upper) are allowed and
    model exactly-known quantities such as a noise-free output.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower: Iterable[float], upper: Iterable[float]):
        lo = tuple(float(v) for v in lower)
        hi = tuple(float(v) for v in upper)
        if len(lo) != len(hi):
            raise DimensionError(f"bound lengths differ: {len(lo)} vs {len(hi)}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @staticmethod
    def ball(radius: float, dim: int) -> "HyperRectangle":
        """Infinity-norm ball {v : max_i |v_i| <= radius} of dimension ``dim``."""
        return HyperRectangle((-radius,) * dim, (radius,) * dim)

    @staticmethod
    def point(values: Iterable[float]) -> "HyperRectangle":
        vals = tuple(float(v) for v in values)
        return HyperRectangle(vals, vals)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def is_empty(self) -> bool:
        return any(lo > hi for lo, hi in zip(self.lower, self.upper))

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.lower + self.upper)

    def contains(self, v, tol: float = 0.0) -> bool:
        arr = _as_vector(v, self.dim, "point")
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return bool(np.all(arr >= lo - tol) and np.all(arr <= hi + tol))

    def intersect(self, other: "HyperRectangle") -> "HyperRectangle":
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return HyperRectangle(
            tuple(max(a, b) for a, b in zip(self.lower, other.lower)),
            tuple(min(a, b) for a, b in zip(self.upper, other.upper)),
        )

    def dilate(self, factor: float) -> "HyperRectangle":
        """Scale the box about its center; requires a bounded box."""
        if not self.is_bounded:
            raise ValueError("cannot dilate an unbounded box")
        if factor < 0:
            raise ValueError("dilation factor must be nonnegative")
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        center = 0.5 * (lo + hi)
        return HyperRectangle(center + factor * (lo - center),
                              center + factor * (hi - center))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample; requires a bounded, nonempty box."""
        if self.is_empty:
            raise ValueError("cannot sample from an empty box")
        if not self.is_bounded:
            raise ValueError("cannot sample uniformly from an unbounded box")
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return rng.uniform(lo, hi) if self.dim else np.zeros(0)


@dataclass(frozen=True)
class AffineMode:
    """One affine mode: nominal matrices plus nonnegative uncertainty radii.

    ``hatA[r, c]`` is the absolute radius of the (r, c) entry's time-varying
    perturbation; the realized perturbation is ``hatA[r, c] * DA[r, c]`` with
    ``|DA[r, c]| <= 1`` (likewise for B, C and f).  The mode holds read-only
    float copies of the arrays it is given.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    f: np.ndarray
    hatA: np.ndarray
    hatB: np.ndarray
    hatC: np.ndarray
    hatf: np.ndarray

    @staticmethod
    def certain(A, B, C, f) -> "AffineMode":
        """Mode with zero uncertainty radii everywhere."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        C = np.atleast_2d(np.asarray(C, dtype=float))
        f = np.asarray(f, dtype=float).reshape(-1)
        return AffineMode(
            A=A, B=B, C=C, f=f,
            hatA=np.zeros_like(A), hatB=np.zeros_like(B),
            hatC=np.zeros_like(C), hatf=np.zeros_like(f),
        )

    def __post_init__(self):
        for name in ("A", "B", "C", "f", "hatA", "hatB", "hatC", "hatf"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {self.C.shape}")
        if self.f.shape != (n,):
            raise DimensionError(f"f must have length {n}, got {self.f.shape}")
        for nom, hat in (("A", "hatA"), ("B", "hatB"), ("C", "hatC"), ("f", "hatf")):
            if getattr(self, hat).shape != getattr(self, nom).shape:
                raise DimensionError(f"{hat} must match the shape of {nom}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def has_uncertainty(self) -> bool:
        return bool(
            np.any(self.hatA) or np.any(self.hatB)
            or np.any(self.hatC) or np.any(self.hatf)
        )


@dataclass(frozen=True)
class SwitchedAffineModel:
    """Hidden-mode switched affine model with admissible hyper-rectangles.

    ``state_set`` has dimension n, ``noise_set`` dimension n_y and
    ``input_set`` dimension n_u (zero-dimensional for autonomous models).
    A model is valid once built: the constructor, which
    ``dataclasses.replace`` also runs, raises DimensionError naming every
    issue (mode dimensions that differ from mode 1's, negative radii,
    non-finite matrix entries, sets of the wrong dimension, empty sets or
    NaN bounds), and the mode arrays are read-only.
    """

    modes: tuple[AffineMode, ...]
    state_set: HyperRectangle
    noise_set: HyperRectangle
    input_set: HyperRectangle
    name: str = ""

    def __init__(self, modes: Sequence[AffineMode], state_set: HyperRectangle,
                 noise_set: HyperRectangle, input_set: HyperRectangle, name: str = ""):
        object.__setattr__(self, "modes", tuple(modes))
        object.__setattr__(self, "state_set", state_set)
        object.__setattr__(self, "noise_set", noise_set)
        object.__setattr__(self, "input_set", input_set)
        object.__setattr__(self, "name", name)
        if not self.modes:
            raise DimensionError("a model needs at least one mode")
        issues = []
        n, n_u, n_y = self.n, self.n_u, self.n_y
        for idx, m in enumerate(self.modes):
            where = f"mode {idx + 1}"
            if m.n != n or m.n_u != n_u or m.n_y != n_y:
                issues.append(f"{where}: dimensions ({m.n}, {m.n_u}, {m.n_y})"
                              f" differ from mode 1 ({n}, {n_u}, {n_y})")
            for nm in ("hatA", "hatB", "hatC", "hatf"):
                arr = getattr(m, nm)
                if arr.size and np.min(arr) < 0:
                    issues.append(f"{where}: {nm} has negative entries")
            for nm in ("A", "B", "C", "f", "hatA", "hatB", "hatC", "hatf"):
                arr = getattr(m, nm)
                if arr.size and not np.all(np.isfinite(arr)):
                    issues.append(f"{where}: {nm} has non-finite entries")
        for nm, box, dim in (("state_set", state_set, n),
                             ("noise_set", noise_set, n_y),
                             ("input_set", input_set, n_u)):
            if box.dim != dim:
                issues.append(f"{nm}: dimension {box.dim}, expected {dim}")
            if box.is_empty:
                issues.append(f"{nm}: empty (some lower bound exceeds upper)")
            if any(math.isnan(v) for v in box.lower + box.upper):
                issues.append(f"{nm}: NaN bound")
        if issues:
            raise DimensionError("invalid model: " + "; ".join(issues), issues)

    @property
    def s(self) -> int:
        """Number of modes."""
        return len(self.modes)

    @property
    def n(self) -> int:
        return self.modes[0].n

    @property
    def n_u(self) -> int:
        return self.modes[0].n_u

    @property
    def n_y(self) -> int:
        return self.modes[0].n_y

    @property
    def has_uncertainty(self) -> bool:
        return any(m.has_uncertainty for m in self.modes)


def require_finite(inputs: np.ndarray, outputs: np.ndarray, first: int = 0) -> None:
    """Raise ValueError naming the first sample and column holding NaN or
    +-inf; rows are samples ``first``, ``first + 1``, ..."""
    for stem, values in (("u", inputs), ("y", outputs)):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            k, j = bad[0]
            raise ValueError(f"sample {first + k}: {stem}_{j + 1} is "
                             f"{values[k, j]}, not a finite number")


@dataclass(frozen=True)
class Trajectory:
    """An input/output record {u[k], y[k]} for k = 0..N-1 (N >= 1)."""

    inputs: np.ndarray   # shape (N, n_u); n_u may be 0
    outputs: np.ndarray  # shape (N, n_y)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if u.shape[0] != y.shape[0]:
            raise DimensionError(
                f"inputs ({u.shape[0]} steps) and outputs ({y.shape[0]} steps) differ"
            )
        if y.shape[0] < 1:
            raise DimensionError("a trajectory needs at least one sample")
        require_finite(u, y)
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)

    def __len__(self) -> int:
        return self.outputs.shape[0]

    def window(self, start: int, stop: int) -> "Trajectory":
        """Sub-trajectory over sample indices [start, stop)."""
        if not (0 <= start < stop <= len(self)):
            raise IndexError(f"bad window [{start}, {stop}) for length {len(self)}")
        return Trajectory(self.inputs[start:stop], self.outputs[start:stop])


@dataclass(frozen=True)
class SimulationDraw:
    """Everything needed to replay one admissible run of a model.

    ``uncertainty`` holds, per step k, the realized normalized perturbations
    of the *active* mode: arrays DA (n, n), DB (n, n_u), DC (n_y, n) and
    Df (n,), all with entries in [-1, 1].
    """

    initial_state: np.ndarray
    mode_sequence: tuple[int, ...]
    noise: np.ndarray  # (N, n_y)
    DA: np.ndarray     # (N, n, n)
    DB: np.ndarray     # (N, n, n_u)
    DC: np.ndarray     # (N, n_y, n)
    Df: np.ndarray     # (N, n)

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           np.asarray(self.initial_state, dtype=float).reshape(-1))
        object.__setattr__(self, "mode_sequence", tuple(int(i) for i in self.mode_sequence))
        for nm in ("noise", "DA", "DB", "DC", "Df"):
            object.__setattr__(self, nm, np.asarray(getattr(self, nm), dtype=float))

    def __len__(self) -> int:
        return len(self.mode_sequence)


@dataclass(frozen=True)
class RandomPolicy:
    """How `simulate_random` draws modes, inputs and the initial state.

    Modes are uniform over the model's modes unless `mode_sequence` pins
    them.  Inputs are uniform over `input_box` (defaults to the model's
    input set).  The initial state is `initial_state`, or else uniform over
    `initial_box` (defaults to the model's state set).  Draws that leave the
    state set are retried per step up to `STEP_RETRIES` times, then the
    whole trajectory restarts, up to `RESTARTS` times.
    """

    mode_sequence: tuple[int, ...] | None = None
    input_box: HyperRectangle | None = None
    initial_box: HyperRectangle | None = None
    initial_state: np.ndarray | None = None


STEP_RETRIES = 20   # redraws of one step before the trajectory restarts
RESTARTS = 20       # whole-trajectory restarts before NoAdmissibleDraw


def simulate(model: SwitchedAffineModel, inputs, draw: SimulationDraw,
             check_bounds: bool = True) -> Trajectory:
    """Replay a draw exactly; raises StateBoundViolation(k) if x[k] leaves X.

    ``inputs`` has shape (N, n_u).  The returned trajectory has N samples;
    the state after the final output, x[N], is also checked against the
    state set (the dynamics hold at every sampled step).
    """
    u = np.asarray(inputs, dtype=float).reshape(len(draw), model.n_u)
    if draw.noise.shape != (len(draw), model.n_y):
        raise DimensionError(f"noise must have shape ({len(draw)}, {model.n_y})")
    x = draw.initial_state.copy()
    if x.shape != (model.n,):
        raise DimensionError(f"initial state must have length {model.n}")
    X = model.state_set
    outputs = np.zeros((len(draw), model.n_y))
    for k, mode_idx in enumerate(draw.mode_sequence):
        if not 0 <= mode_idx < model.s:
            raise DimensionError(f"mode index {mode_idx} out of range at step {k}")
        if check_bounds and not X.contains(x, tol=0.0):
            raise StateBoundViolation(k, x)
        m = model.modes[mode_idx]
        C_k = m.C + m.hatC * draw.DC[k]
        outputs[k] = C_k @ x + draw.noise[k]
        A_k = m.A + m.hatA * draw.DA[k]
        B_k = m.B + m.hatB * draw.DB[k]
        f_k = m.f + m.hatf * draw.Df[k]
        x = A_k @ x + (B_k @ u[k] if model.n_u else 0.0) + f_k
    if check_bounds and not X.contains(x, tol=0.0):
        raise StateBoundViolation(len(draw), x)
    return Trajectory(u, outputs)


def simulate_random(model: SwitchedAffineModel, seed: int, steps: int,
                    policy: RandomPolicy | None = None,
                    ) -> tuple[Trajectory, SimulationDraw]:
    """Draw an admissible random trajectory; deterministic in (model, seed, steps, policy).

    Noise is uniform over the noise set, uncertainty uniform over [-1, 1],
    modes per the policy.  Draws whose state leaves the state set are
    resampled per step up to ``STEP_RETRIES`` times before the whole
    trajectory restarts; raises NoAdmissibleDraw when the restart budget is
    exhausted.
    """
    policy = policy or RandomPolicy()
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    n, n_u, n_y, s = model.n, model.n_u, model.n_y, model.s
    X = model.state_set
    input_box = policy.input_box if policy.input_box is not None else model.input_set
    if input_box.dim != n_u:
        raise DimensionError(f"input box dimension {input_box.dim}, expected {n_u}")
    if policy.mode_sequence is not None and len(policy.mode_sequence) != steps:
        raise DimensionError("mode_sequence length must equal steps")

    def draw_initial() -> np.ndarray:
        if policy.initial_state is not None:
            return _as_vector(policy.initial_state, n, "initial_state")
        box = policy.initial_box if policy.initial_box is not None else X
        return box.sample(rng)

    for _restart in range(RESTARTS):
        x0 = draw_initial()
        if not X.contains(x0):
            continue
        x = x0.copy()
        modes: list[int] = []
        noise = np.zeros((steps, n_y))
        DA = np.zeros((steps, n, n))
        DB = np.zeros((steps, n, n_u))
        DC = np.zeros((steps, n_y, n))
        Df = np.zeros((steps, n))
        u = np.zeros((steps, n_u))
        ok = True
        for k in range(steps):
            admissible = False
            for _retry in range(STEP_RETRIES):
                if policy.mode_sequence is not None:
                    mode_idx = int(policy.mode_sequence[k])
                else:
                    mode_idx = int(rng.integers(s))
                m = model.modes[mode_idx]
                u_k = input_box.sample(rng)
                da = rng.uniform(-1.0, 1.0, (n, n))
                db = rng.uniform(-1.0, 1.0, (n, n_u))
                dc = rng.uniform(-1.0, 1.0, (n_y, n))
                df = rng.uniform(-1.0, 1.0, n)
                x_next = ((m.A + m.hatA * da) @ x
                          + ((m.B + m.hatB * db) @ u_k if n_u else 0.0)
                          + m.f + m.hatf * df)
                if X.contains(x_next):
                    admissible = True
                    break
                # otherwise retry the step: redraw u and the uncertainty, and
                # the mode too unless the policy pins it
            if not admissible:
                ok = False
                break
            modes.append(mode_idx)
            u[k] = u_k
            noise[k] = model.noise_set.sample(rng)
            DA[k], DB[k], DC[k], Df[k] = da, db, dc, df
            x = x_next
        if ok:
            draw = SimulationDraw(x0, tuple(modes), noise, DA, DB, DC, Df)
            return simulate(model, u, draw), draw
    raise NoAdmissibleDraw(
        f"no admissible {steps}-step draw after {RESTARTS} restarts")


def discretize_affine(Ac, Bc, fc, dt: float, method: str = "exact-zoh",
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discretize x' = Ac x + Bc u + fc under a zero-order hold of length dt.

    method "exact-zoh" uses the augmented matrix exponential (valid for
    singular Ac as well); "forward-euler" returns (I + Ac dt, Bc dt, fc dt).
    """
    Ac = np.atleast_2d(np.asarray(Ac, dtype=float))
    n = Ac.shape[0]
    Bc = np.asarray(Bc, dtype=float)
    if Bc.size == 0:
        Bc = Bc.reshape(n, 0)
    elif Bc.ndim == 1:
        Bc = Bc.reshape(-1, 1)
    fc = _as_vector(fc, n, "fc")
    if Ac.shape != (n, n) or Bc.shape[0] != n:
        raise DimensionError("Ac must be square and Bc must match its row count")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_u = Bc.shape[1]
    if method == "forward-euler":
        return np.eye(n) + Ac * dt, Bc * dt, fc * dt
    if method != "exact-zoh":
        raise ValueError(f"unknown method {method!r}")
    # Augment [x; u; 1] so that exp of the block matrix integrates B and f.
    m = n + n_u + 1
    blk = np.zeros((m, m))
    blk[:n, :n] = Ac
    blk[:n, n:n + n_u] = Bc
    blk[:n, n + n_u] = fc
    E = expm(blk * dt)
    return E[:n, :n], E[:n, n:n + n_u], E[:n, n + n_u]


def submodel(model: SwitchedAffineModel, first: int, last: int) -> SwitchedAffineModel:
    """Restrict to modes first..last (1-based, inclusive), keeping the sets."""
    if not 1 <= first <= last <= model.s:
        raise IndexError(f"mode range {first}..{last} out of 1..{model.s}")
    return replace(model, modes=model.modes[first - 1:last],
                   name=f"{model.name}[{first}..{last}]" if model.name else "")


def strip_uncertainty(model: SwitchedAffineModel) -> SwitchedAffineModel:
    """The idealized model: every uncertainty radius zeroed and the noise
    set pinned to the origin, all else kept."""
    modes = tuple(replace(m, hatA=np.zeros_like(m.hatA),
                          hatB=np.zeros_like(m.hatB),
                          hatC=np.zeros_like(m.hatC),
                          hatf=np.zeros_like(m.hatf)) for m in model.modes)
    return replace(model, modes=modes,
                   noise_set=HyperRectangle.ball(0.0, model.n_y))
