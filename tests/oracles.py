"""Independent reference oracles used to cross-check the package.

These deliberately avoid the package's own encoder and solver: consistency
is decided by enumerating every hidden mode sequence and solving a plain
bounded linear program per sequence with scipy, so agreement is meaningful.
Only models without structured uncertainty are supported (enumeration over
the uncertainty would not be finite).

``DensePresolver`` and ``sos1_groups_by_rows`` are the solver's bound
propagation and SOS1 group detection in their first, dense forms: the
references the sparse versions are compared against.  Likewise
``RowByRowProblem`` keeps one record per row and fills the dense matrix in
a loop, and ``verify_by_rows`` and ``certificate_by_columns`` check
witnesses and Farkas rays one row and one column at a time: the references
for the problem's coordinate store and the checks that read it.
``largest_big_m`` reads an encoding's largest big-M constant off its
nonzeros."""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from swainval.milp import (EQ, FEAS_TOL, GE, INT_TOL, LE, BadBounds,
                           DuplicateName, LinearConstraint)
from swainval.model import SwitchedAffineModel, Trajectory

_HUGE = 1e30
_NEAR_HUGE = 1e29


def _box_bounds(box) -> list[tuple[float, float]]:
    return [(float(lo), float(hi)) for lo, hi in zip(box.lower, box.upper)]


def _require_certain(model: SwitchedAffineModel) -> None:
    if model.has_uncertainty:
        raise ValueError("the enumeration oracle handles certain models only")


def _lp_feasible(A_eq: np.ndarray, b_eq: np.ndarray,
                 bounds: list[tuple[float, float]]) -> bool:
    res = linprog(c=np.zeros(len(bounds)), A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    return res.status == 0


def consistent_by_enumeration(model: SwitchedAffineModel,
                              traj: Trajectory) -> bool:
    """Is the window explainable by *some* mode sequence?  Exhaustive."""
    _require_certain(model)
    N = len(traj)
    n, n_y, n_u = model.n, model.n_y, model.n_u
    if n_u:
        for k in range(N):
            if not model.input_set.contains(traj.inputs[k], tol=1e-9):
                return False
    n_vars = N * n + N * n_y  # states then noise
    xi = lambda k, j: k * n + j
    ei = lambda k, q: N * n + k * n_y + q
    bounds = []
    for k in range(N):
        bounds += _box_bounds(model.state_set)
    for k in range(N):
        bounds += _box_bounds(model.noise_set)
    for seq in itertools.product(range(model.s), repeat=N):
        rows, rhs = [], []
        for k in range(N):
            mode = model.modes[seq[k]]
            for q in range(n_y):
                row = np.zeros(n_vars)
                row[[xi(k, j) for j in range(n)]] = mode.C[q]
                row[ei(k, q)] = 1.0
                rows.append(row)
                rhs.append(traj.outputs[k, q])
            if k < N - 1:
                drive = mode.B @ traj.inputs[k] if n_u else np.zeros(n)
                for r in range(n):
                    row = np.zeros(n_vars)
                    row[xi(k + 1, r)] = 1.0
                    row[[xi(k, j) for j in range(n)]] -= mode.A[r]
                    rows.append(row)
                    rhs.append(drive[r] + mode.f[r])
        if _lp_feasible(np.array(rows), np.array(rhs), bounds):
            return True
    return False


def pair_feasible_by_enumeration(system: SwitchedAffineModel,
                                 fault: SwitchedAffineModel,
                                 horizon: int) -> bool:
    """Does a shared behaviour of ``horizon`` transitions exist?  Exhaustive
    over both models' mode sequences, LP per pair, shared unknown input."""
    _require_certain(system)
    _require_certain(fault)
    T = horizon
    n1, n2 = system.n, fault.n
    n_y, n_u = system.n_y, system.n_u
    U = system.input_set.intersect(fault.input_set) if n_u else None
    if n_u and U.is_empty:
        return False
    S = T + 1
    # variables: x1, x2, eta1, eta2, u
    off_x2 = S * n1
    off_e1 = off_x2 + S * n2
    off_e2 = off_e1 + S * n_y
    off_u = off_e2 + S * n_y
    n_vars = off_u + T * n_u
    bounds = []
    for k in range(S):
        bounds += _box_bounds(system.state_set)
    for k in range(S):
        bounds += _box_bounds(fault.state_set)
    for k in range(S):
        bounds += _box_bounds(system.noise_set)
    for k in range(S):
        bounds += _box_bounds(fault.noise_set)
    for k in range(T):
        bounds += _box_bounds(U) if n_u else []

    def dyn_rows(rows, rhs, seq, model, x_off, n):
        for k in range(T):
            mode = model.modes[seq[k]]
            for r in range(n):
                row = np.zeros(n_vars)
                row[x_off + (k + 1) * n + r] = 1.0
                row[x_off + k * n: x_off + (k + 1) * n] -= mode.A[r]
                for c in range(n_u):
                    row[off_u + k * n_u + c] = -mode.B[r, c]
                rows.append(row)
                rhs.append(mode.f[r])

    for seq1 in itertools.product(range(system.s), repeat=S):
        for seq2 in itertools.product(range(fault.s), repeat=S):
            rows, rhs = [], []
            dyn_rows(rows, rhs, seq1, system, 0, n1)
            dyn_rows(rows, rhs, seq2, fault, off_x2, n2)
            for k in range(S):
                C1 = system.modes[seq1[k]].C
                C2 = fault.modes[seq2[k]].C
                for q in range(n_y):
                    row = np.zeros(n_vars)
                    row[k * n1: (k + 1) * n1] = C1[q]
                    row[off_x2 + k * n2: off_x2 + (k + 1) * n2] = -C2[q]
                    row[off_e1 + k * n_y + q] = 1.0
                    row[off_e2 + k * n_y + q] = -1.0
                    rows.append(row)
                    rhs.append(0.0)
            if _lp_feasible(np.array(rows), np.array(rhs), bounds):
                return True
    return False


class DensePresolver:
    """The bundled solver's bound propagation as it was first written: every
    round works on dense (2m x n) arrays.  Same rules, kept as the reference
    for the sparse presolver."""

    def __init__(self, A: np.ndarray, rel: np.ndarray, b: np.ndarray,
                 is_bin: np.ndarray):
        self.A, self.rel, self.b, self.is_bin = A, rel, b, is_bin
        self.A_pos = np.maximum(A, 0.0)
        self.A_neg = np.minimum(A, 0.0)
        # every row normalized to <= form for tightening; EQ rows enter twice
        blocks, rhs = [], []
        for mask, sgn in ((rel != GE, 1.0), (rel != LE, -1.0)):
            if np.any(mask):
                blocks.append(sgn * A[mask])
                rhs.append(sgn * b[mask])
        self.N = np.vstack(blocks) if blocks else np.zeros((0, A.shape[1]))
        self.nb = np.concatenate(rhs) if rhs else np.zeros(0)
        self.N_pos = self.N > 1e-12
        self.N_neg = self.N < -1e-12

    def run(self, lo: np.ndarray, hi: np.ndarray, feas_tol: float,
            max_rounds: int = 8) -> tuple[bool, np.ndarray, np.ndarray]:
        """Returns (consistent, lo, hi)."""
        lo, hi = lo.copy(), hi.copy()
        rel, b = self.rel, self.b
        le_like, ge_like = rel != GE, rel != LE
        for _ in range(max_rounds):
            if np.any(lo > hi + 1e-9):
                return False, lo, hi
            wlo = np.clip(lo, -_HUGE, _HUGE)
            whi = np.clip(hi, -_HUGE, _HUGE)
            minact = self.A_pos @ wlo + self.A_neg @ whi
            maxact = self.A_pos @ whi + self.A_neg @ wlo
            if np.any(le_like & (minact > b + feas_tol) & (minact < _NEAR_HUGE)):
                return False, lo, hi
            if np.any(ge_like & (maxact < b - feas_tol) & (maxact > -_NEAR_HUGE)):
                return False, lo, hi

            # min activity of the <=-normalized rows, vectorized
            nmin = np.where(self.N_pos, self.N * wlo[None, :], 0.0).sum(axis=1) \
                + np.where(self.N_neg, self.N * whi[None, :], 0.0).sum(axis=1)
            surplus = self.nb - nmin
            usable = (np.abs(nmin) < _NEAR_HUGE) & (surplus >= -feas_tol)
            lo_inf, hi_inf = np.isinf(lo), np.isinf(hi)
            if lo_inf.any() or hi_inf.any():
                # a clipped infinite term times a small coefficient can pass
                # for a finite activity; such rows tighten nothing
                usable &= ~((self.N_pos & lo_inf) | (self.N_neg & hi_inf)).any(axis=1)
            new_lo, new_hi = lo.copy(), hi.copy()
            # a row violated within feas_tol caps at the bounds, not beyond
            cap = np.maximum(surplus, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                cand_ub = np.where(self.N_pos & usable[:, None],
                                   wlo[None, :] + cap[:, None] / self.N,
                                   np.inf)
                ub = cand_ub.min(axis=0) if cand_ub.size else np.full(len(lo), np.inf)
                cand_lb = np.where(self.N_neg & usable[:, None],
                                   whi[None, :] + cap[:, None] / self.N,
                                   -np.inf)
                lb = cand_lb.max(axis=0) if cand_lb.size else np.full(len(lo), -np.inf)
            ub = np.where(np.isnan(ub) | (ub > _NEAR_HUGE), np.inf, ub)
            lb = np.where(np.isnan(lb) | (lb < -_NEAR_HUGE), -np.inf, lb)
            # moves below 1e-12 of the new bound are rounding creep
            with np.errstate(invalid="ignore"):
                new_hi = np.where(ub < new_hi - 1e-12 * (1 + np.abs(ub)), ub, new_hi)
                new_lo = np.where(lb > new_lo + 1e-12 * (1 + np.abs(lb)), lb, new_lo)
            # integrality rounding for binaries
            bb = self.is_bin
            new_lo[bb] = np.where(new_lo[bb] > 1e-9, 1.0, 0.0)
            new_hi[bb] = np.where(new_hi[bb] < 1.0 - 1e-9, 0.0, 1.0)
            new_lo = np.maximum(new_lo, lo)
            new_hi = np.minimum(new_hi, hi)
            done = (np.all(new_lo <= lo + 1e-9) and np.all(new_hi >= hi - 1e-9))
            lo, hi = new_lo, new_hi
            if done:
                break
        if np.any(lo > hi + 1e-9):
            return False, lo, hi
        return True, lo, hi


def sos1_groups_by_rows(A, rel, b, is_bin) -> list[tuple[int, ...]]:
    """Exactly-one rows over binaries: EQ rows of +1 coefficients, rhs 1.

    The solver's SOS1 group detection as it was first written, one row at
    a time; groups come in row order, each once.
    """
    groups: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for i in range(A.shape[0]):
        if rel[i] != EQ or abs(b[i] - 1.0) > 1e-12:
            continue
        cols = np.nonzero(A[i])[0]
        if len(cols) < 2 or not np.all(is_bin[cols]):
            continue
        if not np.allclose(A[i, cols], 1.0, rtol=0.0, atol=1e-12):
            continue
        key = tuple(int(c) for c in cols)
        if key not in seen:
            seen.add(key)
            groups.append(key)
    return groups


class RowByRowProblem:
    """MilpProblem's rows as they were first kept: one LinearConstraint per
    row, terms merged in a dict, and a dense A filled term by term."""

    def __init__(self):
        self._var_index: dict[str, int] = {}
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._rows: list[LinearConstraint] = []
        self._row_names: set[str] = set()

    def add_continuous(self, name: str, lower: float, upper: float) -> str:
        self._var_index[name] = len(self._lower)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._binary.append(False)
        return name

    def add_binary(self, name: str) -> str:
        self._var_index[name] = len(self._lower)
        self._lower.append(0.0)
        self._upper.append(1.0)
        self._binary.append(True)
        return name

    def add_constraint(self, name, terms, relation, rhs) -> None:
        if name in self._row_names:
            raise DuplicateName(f"row {name!r} already exists")
        merged: dict[str, float] = {}
        for coef, var in terms:
            if var not in self._var_index:
                raise KeyError(f"row {name!r} references unknown variable {var!r}")
            coef = float(coef)
            if coef != 0.0:
                merged[var] = merged.get(var, 0.0) + coef
        tidy = tuple((c, v) for v, c in merged.items() if c != 0.0)
        rhs = float(rhs)
        if not tidy:
            # degenerate row: drop if trivially true, reject otherwise
            ok = {LE: 0.0 <= rhs, EQ: rhs == 0.0, GE: 0.0 >= rhs}[relation]
            if not ok:
                raise BadBounds(f"row {name!r} has no terms and is unsatisfiable")
            return
        self._row_names.add(name)
        self._rows.append(LinearConstraint(name, tidy, relation, rhs))

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._rows)

    def to_arrays(self):
        m, n = len(self._rows), len(self._lower)
        A = np.zeros((m, n))
        rel = np.empty(m, dtype="U2")
        b = np.zeros(m)
        for r, row in enumerate(self._rows):
            for coef, var in row.terms:
                A[r, self._var_index[var]] += coef
            rel[r] = row.relation
            b[r] = row.rhs
        return (A, rel, b, np.array(self._lower), np.array(self._upper),
                np.array(self._binary, dtype=bool), tuple(self._var_index))


def verify_by_rows(p, w, tol: float = FEAS_TOL,
                   int_tol: float = INT_TOL) -> tuple[bool, list[str]]:
    """The witness check one variable and one row at a time."""
    violations: list[str] = []
    for name in p.variable_names:
        if name not in w.assignment:
            violations.append(f"missing value for {name}")
            continue
        v = w[name]
        lo, hi = p.bounds_of(name)
        if v < lo - tol or v > hi + tol:
            violations.append(f"{name} = {v} outside [{lo}, {hi}]")
        if p.is_binary(name) and min(abs(v - 0.0), abs(v - 1.0)) > int_tol:
            violations.append(f"{name} = {v} is not integral")
    for row in p.constraints:
        lhs = sum(c * w.get(v) for c, v in row.terms)
        if row.relation == LE and lhs > row.rhs + tol:
            violations.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.relation == GE and lhs < row.rhs - tol:
            violations.append(f"{row.name}: {lhs} < {row.rhs}")
        elif row.relation == EQ and abs(lhs - row.rhs) > tol:
            violations.append(f"{row.name}: {lhs} != {row.rhs}")
    return not violations, violations


def largest_big_m(problem) -> float:
    """The largest coefficient of a mode binary in a gated row of an
    encoding.

    A mode binary (``a[...]``, or ``d[...]`` of a pair) enters its gated
    rows' ``<=``/``>=`` pairs with coefficient +-M; the other rows over
    mode binaries, the exactly-one rows, are equalities."""
    row, col, val, rel, _, _, _, _, names = problem.sparse_arrays()
    mode = np.array([name.startswith(("a[", "d[")) for name in names])
    gated = mode[col] & (rel[row] != EQ)
    return float(np.abs(val[gated]).max(initial=0.0))


def certificate_by_columns(problem, y, tol: float = 1e-7) -> bool:
    """The Farkas-ray check on the dense matrix, one column at a time."""
    A, rel, b, lo, hi, _, _ = problem.to_arrays()
    y = np.asarray(y, dtype=float)
    if y.shape != (A.shape[0],):
        return False
    if np.any((rel == LE) & (y > tol)) or np.any((rel == GE) & (y < -tol)):
        return False
    d = A.T @ y
    box_max = 0.0
    for j in range(A.shape[1]):
        if d[j] > tol:
            if not math.isfinite(hi[j]):
                return False
            box_max += d[j] * hi[j]
        elif d[j] < -tol:
            if not math.isfinite(lo[j]):
                return False
            box_max += d[j] * lo[j]
    return box_max < float(y @ b) - tol
