"""Exact feasibility solver for mixed-integer linear problems.

The solver answers one question: does a sealed :class:`~swainval.milp.MilpProblem`
admit an assignment satisfying every row, bound and integrality restriction?
It combines

* one bounded dual simplex engine, built once per problem structure, on the
  static row-activity form ``[A, -I] (x, r) = 0``: each row variable ``r_i``
  carries the row's relation as bounds (``r <= b``, ``r >= b`` or
  ``r = b``).  The slack basis ``-I`` is always a valid start.  Without an
  objective every basis is dual feasible, so an iteration only has to pick a
  leaving row and an entering column (the largest ``|alpha|`` of the right
  sign).  The leaving row is priced by dual Devex (Forrest & Goldfarb,
  *Math. Prog.* 57, 1992): the largest infeasibility relative to a reference
  weight of its row of ``B^-1``, which starts at 1 in every solve, is
  updated in O(m) per pivot and restarts at 1 when a leaving row's weight
  passes 1e30, before any could overflow into a NaN price.  Without that
  scaling, the most infeasible row cycled on the sensor-pair LPs.  A 64-bit
  Zobrist key of the vertex (the basic columns and the nonbasic ones at
  their upper bound) changes by a few XORs per pivot; the first time a solve
  repeats a key, Bland's least-index rule takes over, which skips pivots far
  below the largest because they would ruin the basis.  The slack basis
  starts an engine's first solve and any solve after one that raised, and
  is the fallback when a warm start runs into numerical trouble.  A row
  with no entering candidate yields the Farkas ray ``+-e_r^T B^-1``
  directly.  The basis inverse is kept explicitly, updated by rank-one
  steps and refactored through the structural kernel of the basis; and
* depth-first branch and bound on the binaries, splitting the lowest-index
  open binary whose relaxation value is fractional (the lowest-index open
  one when none is), the 1-branch explored first.  Both encoders number
  their mode binaries step by step, so the search decides the modes in time
  order, and presolve carries each fixed mode through the dynamics rows
  into the next step's state bounds before the next LP.  Most-fractional
  branching ignores that structure and is no better than a random choice
  (Achterberg, Koch & Martin, "Branching rules revisited", 2005).  On
  6-sample numeric windows it took about twice the nodes; windows of 15 or
  20 transitions that this rule decides in about 100 nodes stayed undecided
  after 6,000 to 15,000.  A binary in an exactly-one row is split into
  the row's one-hot children at once.  The search runs an
  interval presolve at every node: activity-bound propagation over the
  nonzeros of the rows, which fixes variables, tightens bounds and so also
  propagates the one-active-mode equalities exactly.  Its index arrays are
  built once per problem structure from the problem's own nonzeros and
  each round costs time linear in their number.  The engine holds the
  vertex its last LP ended at, whichever node that was, and every LP
  continues from it: each nonbasic column stays at its bound where the new
  box allows, except that one the last box fixed below the new upper bound
  rests at its lower one.  So the DFS stack holds bare bound boxes and a
  backtrack costs no refactorization.  Without an objective any basis is a
  valid start, and rows stay in the LP even when presolve finds them
  redundant, so every basis fits every node.

Each node ends *pruned* (presolve empties its box or its LP is
infeasible), *split* (its children go on the stack as the binaries they
set to 1 and to 0), as a *proof* (the root is pruned) or as a *witness* (a
leaf, every binary fixed by its bounds, whose LP point with binaries
rounded passes ``verify``).  There is no rounding heuristic.  The root is
pruned by the same rules as every other node; its proof adds one LP on the
original bounds, whose Farkas ray, with any entry of the wrong sign on an
inequality row set to zero, is the certificate when it checks.
Presolve rounds binary bounds, so it can empty a root box whose LP
relaxation is feasible: the answer is INFEASIBLE all the same, without a
certificate.

A :class:`SolverSession` builds, once per problem structure, the dense
matrix of ``to_arrays`` for the simplex's BLAS pivots, the presolve arrays,
the candidate SOS1 rows and the engine.  A solve of the same structure
rebinds only the right-hand sides, and its first LP (the root node LP, or
the root-proof LP when presolve empties the root) continues from the
vertex the engine's last LP ended at.  The radiant monitor's 28
invalidated windows at horizon 3 end in root-proof LPs, which took 30
pivots each from the slack basis and 140 in all from the carried one.
Presolve, SOS1 detection, the witness re-check and the certificate check
read the nonzeros.

Feasible answers always carry a witness that has been re-checked against the
original problem; infeasible answers at the root carry a dual ray that
certifies infeasibility against the original rows and bounds.  All rules are
deterministic: for a fixed BLAS thread count (see the BLAS-thread
``FOUND`` entry of ``CHANGES.md``), the same problem from the same session
state yields the same answer, witness, node and pivot count on every run.
``solve_milp`` without a session uses a fresh one, so a one-shot solve
depends on no earlier call.

``solve_milp`` is the only place that chooses a backend: with
``SolverConfig.external_command`` set it hands the problem to that command
(see :mod:`swainval.external`) instead of the bundled solver.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger as _dger

from .milp import (EQ, FEAS_TOL, GE, INT_TOL, LE, WITNESS_TOL, MilpProblem,
                   Witness, verify)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverNumericalError",
    "SolverSession",
    "FEASIBLE",
    "INFEASIBLE",
    "BUDGET_EXCEEDED",
    "solve_milp",
    "check_certificate",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

_NEAR_HUGE = 1e29


class SolverNumericalError(RuntimeError):
    """The solver could not produce a numerically trustworthy answer."""


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and the backend for :func:`solve_milp`.

    With ``external_command`` set, :func:`solve_milp` hands the problem to
    that command through the LP-file bridge of :mod:`swainval.external`
    (``time_limit`` travels along; ``node_limit`` is the bundled solver's).
    Presolve always runs; each node ends split, pruned, as a proof or as a
    witness (see the module docstring).  Tolerances are those of
    :mod:`swainval.milp`: ``FEAS_TOL``, ``INT_TOL`` and ``WITNESS_TOL``.
    """

    node_limit: int = 1_000_000
    time_limit: float | None = None      # wall-clock seconds, also between pivots
    external_command: str | None = None  # LP-file solver command line


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a feasibility solve.

    ``certificate`` (when present) is a dual vector over the problem rows
    proving infeasibility against the original bounds; it is only produced
    when infeasibility is established without branching.
    """

    status: str
    witness: Witness | None
    nodes: int
    lp_iterations: int
    wall_time: float
    message: str = ""
    certificate: tuple[float, ...] | None = None


# -- bounded dual simplex on the row-activity form ----------------------------

# smallest |alpha| a pivot may use, relative to its row, and the size below
# which a ray's coefficient counts as zero.  At 1e-9 a tiny pivot made the
# basis singular on a radiant T=8 pair node; 1e-7 refuses it.
_PIV_TOL = 1e-7
_BLAND_PIV = 1e-3     # Bland's rule skips pivots this far below the largest
_KERNEL_TOL = 1e-7    # largest |K^-1 K - I| entry of a usable refactorization
_REFACTOR_EVERY = 100  # basis updates between refactorizations
_ZOBRIST_SEED = 1992   # seed of the vertex keys' stream
_DEVEX_START = 1.0     # every row's reference weight when a solve starts
_DEVEX_MAX = 1e30      # a leaving row's weight past this restarts all at 1

_zobrist = np.zeros(0, dtype=np.uint64)


def _zobrist_keys(columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Random 64-bit keys of the first ``columns`` columns: one for the
    column in the basis, one for the column nonbasic at its upper bound.

    The table is shared by every engine and grows on demand.  Key k is the
    k-th draw of one fixed-seed stream, so a grown table keeps every key
    it had and a vertex's key never depends on the problems solved before.
    """
    global _zobrist
    if _zobrist.size < 2 * columns:
        draw = random.Random(_ZOBRIST_SEED).getrandbits
        size = max(2 * columns, 2 * _zobrist.size)
        _zobrist = np.array([draw(64) for _ in range(size)], dtype=np.uint64)
    return _zobrist[0:2 * columns:2], _zobrist[1:2 * columns:2]


class _NumericalTrouble(Exception):
    """A basis became singular or a solve hit its pivot cap."""


class _OutOfTime(Exception):
    """The solve's deadline passed inside the pivot loop."""


@dataclass(frozen=True)
class _LpResult:
    feasible: bool
    x: np.ndarray | None       # structural values when feasible
    ray: np.ndarray | None     # Farkas multipliers over the rows when infeasible


class _DualSimplex:
    """Bounded dual simplex for  A x - r = 0,  lo <= x <= hi,  r within rows.

    Column j < n is x_j and column n + i the activity r_i of row i, bounded
    by b_i from above (``<=``), below (``>=``) or both (``=``).  The matrix
    never changes, the row bounds only by :meth:`set_rhs`; :meth:`solve`
    re-optimises under new structural bounds from the vertex the last solve
    ended at: its basis, its inverse and the bounds its nonbasic columns
    rest at.  So an LP begins without a refactorization.  The first solve,
    and every solve after one that raised, starts from the slack basis
    ``-I``.

    The leaving row maximizes ``(infeas_i - tol) / sqrt(w_i)`` over dual
    Devex weights ``w``; a solve that returns to a vertex it stood at
    continues under Bland's rule, and ``bland_switches`` counts such solves.
    """

    def __init__(self, A: np.ndarray, rel: np.ndarray, b: np.ndarray):
        self.m, self.n = A.shape
        self.A, self.rel = A, rel
        self.set_rhs(b)
        self.tol = FEAS_TOL
        self.max_iter = 50 * (self.m + self.n) + 2000
        self.iterations = 0
        self.bland_switches = 0   # solves that found a repeated vertex
        self.warm = False   # does the engine hold a vertex to continue from?

    def set_rhs(self, b: np.ndarray) -> None:
        self.row_lo = np.where(self.rel == LE, -np.inf, b)
        self.row_hi = np.where(self.rel == GE, np.inf, b)

    def solve(self, lo: np.ndarray, hi: np.ndarray,
              deadline: float | None) -> _LpResult:
        """Decide  lo <= x <= hi  against the rows, from the vertex the last
        solve ended at.

        The first solve, and every solve after one that raised, starts from
        the slack basis.  A warm start that turns singular is abandoned for
        the slack basis; only a failure from there raises
        SolverNumericalError.
        """
        warm, self.warm = self.warm, False
        try:
            return self._solve_from(lo, hi, warm, deadline)
        except _NumericalTrouble as err:
            if not warm:
                raise SolverNumericalError(str(err)) from err
        try:
            return self._solve_from(lo, hi, False, deadline)
        except _NumericalTrouble as err:
            raise SolverNumericalError(f"{err} (from the slack basis)") from err

    # -- basis bookkeeping -------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis through its structural kernel.

        With S the structural basic columns and T the rows whose activity
        is basic, B v = a splits into  A[K, S] v_S = a_K  over the other
        rows K and  v_T = A[T, S] v_S - a_T,  so only the |S| x |S| kernel
        A[K, S] needs a dense inverse.
        """
        m, n, basis = self.m, self.n, self.basis
        structural = basis < n
        s_pos, t_pos = np.flatnonzero(structural), np.flatnonzero(~structural)
        s_cols, t_rows = basis[s_pos], basis[t_pos] - n
        kernel_rows = np.ones(m, dtype=bool)
        kernel_rows[t_rows] = False
        k_rows = np.flatnonzero(kernel_rows)
        B_inv = np.zeros((m, m), order="F")
        if s_pos.size:
            K = self.A[np.ix_(k_rows, s_cols)]
            try:
                K_inv = np.linalg.inv(K)
            except np.linalg.LinAlgError as err:
                raise _NumericalTrouble("singular basis at refactorization") from err
            residual = np.abs(K_inv @ K - np.eye(len(s_pos))).max()
            if not residual <= _KERNEL_TOL:
                raise _NumericalTrouble("singular basis at refactorization")
            B_inv[np.ix_(s_pos, k_rows)] = K_inv
            B_inv[np.ix_(t_pos, k_rows)] = self.A[np.ix_(t_rows, s_cols)] @ K_inv
        B_inv[t_pos, t_rows] = -1.0
        self.B_inv = B_inv
        self.updates = 0

    def _recompute_basics(self) -> None:
        z_n = np.where(self.is_basic, 0.0, self.z)
        self.x_B = -(self.B_inv @ (self.A @ z_n[:self.n] - z_n[self.n:]))

    def _refresh(self) -> None:
        self._refactor()
        self._recompute_basics()

    def _values(self) -> np.ndarray:
        z = self.z.copy()
        z[self.basis] = self.x_B
        return z

    def _solve_from(self, lo, hi, warm, deadline) -> _LpResult:
        n = self.n
        if warm:
            # a nonbasic column stays at its upper bound, unless the last
            # box fixed it below the new one: a binary fixed to 0 would
            # otherwise rise to 1 once freed
            at_upper = ~self.is_basic & (self.z >= self.hi)
            at_upper[:n] &= ~((self.lo[:n] == self.hi[:n]) & (self.lo[:n] < hi))
        else:
            self.basis = np.arange(n, n + self.m)
            self._refactor()                      # the slack basis: -I
            at_upper = np.zeros(n + self.m, dtype=bool)
        self.lo = np.concatenate([lo, self.row_lo])
        self.hi = np.concatenate([hi, self.row_hi])
        # nonbasics rest at a finite bound (the upper one where the start
        # had it), free ones at zero
        lo_fin, hi_fin = np.isfinite(self.lo), np.isfinite(self.hi)
        self.z = np.where(at_upper & hi_fin, self.hi,
                          np.where(lo_fin, self.lo, np.where(hi_fin, self.hi, 0.0)))
        self.is_basic = np.zeros(self.n + self.m, dtype=bool)
        self.is_basic[self.basis] = True
        # 1.0 where a nonbasic column may move up (down), else 0.0
        self.can_up = (~self.is_basic & (self.z < self.hi)).astype(float)
        self.can_down = (~self.is_basic & (self.z > self.lo)).astype(float)
        self._recompute_basics()
        res = self._iterate(deadline)
        self.warm = True
        return res

    # -- the pivot loop ----------------------------------------------------

    def _ray_proves(self, y: np.ndarray) -> bool:
        """Does  y (A x - r) = 0  contradict the bounds of x and r?"""
        coef = np.concatenate([y @ self.A, -y])
        coef[np.abs(coef) <= _PIV_TOL] = 0.0
        pos, neg = coef > 0.0, coef < 0.0
        if np.any(pos & ~np.isfinite(self.hi)) or np.any(neg & ~np.isfinite(self.lo)):
            return False
        return float(coef[pos] @ self.hi[pos] + coef[neg] @ self.lo[neg]) < -0.5 * self.tol

    def _vertex_key(self) -> int:
        """The Zobrist key of the current vertex: the XOR of the keys of the
        basic columns and of the nonbasic columns at their upper bound."""
        basic_keys, upper_keys = _zobrist_keys(self.n + self.m)
        at_upper = ~self.is_basic & (self.z >= self.hi)
        return int(np.bitwise_xor.reduce(basic_keys[self.basis])
                   ^ np.bitwise_xor.reduce(upper_keys[at_upper]))

    def _revisited(self, key: int) -> bool:
        """Has this solve stood at the vertex of ``key`` before?  Records it."""
        if key in self.visited:
            return True
        self.visited.add(key)
        return False

    def _iterate(self, deadline: float | None) -> _LpResult:
        n, tol = self.n, self.tol
        lo_B, hi_B = self.lo[self.basis], self.hi[self.basis]
        basic_keys, upper_keys = _zobrist_keys(n + self.m)
        weights = np.full(self.m, _DEVEX_START)   # dual Devex reference weights
        alpha = np.empty(n + self.m)
        self.visited: set[int] = set()
        key = self._vertex_key()
        bland = self._revisited(key)     # records the starting vertex
        self.bland_switches += bland
        pivots = 0
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise _OutOfTime
            x_B = self.x_B
            infeas = np.maximum(lo_B - x_B, x_B - hi_B)
            if bland:
                rows = np.flatnonzero(infeas > tol)
                p = int(rows[np.argmin(self.basis[rows])]) if rows.size else -1
            else:
                # dual Devex: the largest infeasibility relative to the
                # reference norm of its row of B^-1
                price = (infeas - tol) / np.sqrt(weights)
                p = int(np.argmax(price)) if price.size else -1
                if p >= 0 and not price[p] > 0.0:
                    p = -1
            if p < 0:
                if not np.all(infeas <= tol):
                    raise _NumericalTrouble("a bound violation went unpriced")
                z = self._values()
                if self.updates and np.any(
                        np.abs(self.A @ z[:n] - z[n:]) > tol):
                    self._refresh()
                    continue
                return _LpResult(True, z[:n], None)

            # leave row p at its violated bound; enter the column whose
            # move pushes x_B[p] toward it with the largest |alpha|
            below = lo_B[p] - x_B[p] > x_B[p] - hi_B[p]
            target = lo_B[p] if below else hi_B[p]
            rho = self.B_inv[p].copy()
            np.matmul(rho, self.A, out=alpha[:n])
            np.negative(rho, out=alpha[n:])
            toward = alpha if below else -alpha
            # alphas this small next to the row's largest are rounding noise
            piv_tol = _PIV_TOL * max(1.0, float(np.abs(alpha).max()))
            score = np.maximum(toward * self.can_down, -toward * self.can_up)
            q = int(np.argmax(score))
            if score[q] <= piv_tol:
                q = -1
            elif bland:
                # lowest index, among pivots that cannot wreck the basis
                q = int(np.flatnonzero((score > piv_tol)
                                       & (score >= _BLAND_PIV * score[q]))[0])
            if q < 0:
                y = -rho if below else rho
                if self.updates and not self._ray_proves(y):
                    self._refresh()
                    continue
                return _LpResult(False, None, y)

            col = (self.B_inv @ self.A[:, q] if q < n
                   else -self.B_inv[:, q - n])
            piv = col[p]
            if self.updates and abs(piv - alpha[q]) > 1e-7 * (1.0 + abs(alpha[q])):
                self._refresh()          # row and column disagree: drift
                continue
            theta = (x_B[p] - target) / piv
            x_B -= theta * col
            leaving = int(self.basis[p])
            key ^= int(basic_keys[leaving]) ^ int(basic_keys[q])
            if target >= self.hi[leaving]:
                key ^= int(upper_keys[leaving])
            if self.z[q] >= self.hi[q]:
                key ^= int(upper_keys[q])
            self.z[leaving] = target
            self.is_basic[leaving] = False
            self.can_up[leaving] = target < self.hi[leaving]
            self.can_down[leaving] = target > self.lo[leaving]
            x_B[p] = self.z[q] + theta
            self.is_basic[q] = True
            self.can_up[q] = self.can_down[q] = 0.0
            self.basis[p] = q
            lo_B[p], hi_B[p] = self.lo[q], self.hi[q]
            # Devex: row i of the new B^-1 is row i minus col_i / piv times
            # row p, whose reference norm is w_p / piv^2
            scaled = weights[p] / (piv * piv)
            np.maximum(weights, scaled * (col * col), out=weights)
            weights[p] = max(scaled, 1.0)
            if not scaled <= _DEVEX_MAX:   # also catches inf and NaN
                weights.fill(1.0)
            pivot_row = rho / piv
            self.B_inv = _dger(-1.0, col, pivot_row, a=self.B_inv, overwrite_a=True)
            self.B_inv[p] = pivot_row
            self.updates += 1
            self.iterations += 1
            pivots += 1
            if pivots > self.max_iter:
                raise _NumericalTrouble(
                    f"dual simplex exceeded {self.max_iter} pivots on a "
                    f"{self.m}x{self.n} problem")
            if self._revisited(key) and not bland:
                bland = True             # a cycle: Bland's rule ends it
                self.bland_switches += 1
            if self.updates >= _REFACTOR_EVERY:
                self._refresh()


# -- interval presolve --------------------------------------------------------

_PRESOLVE_ROUNDS = 8  # propagation rounds per node before presolve stops


class _Presolver:
    """Activity-bound propagation over the nonzeros of the rows.

    Every row is normalized to ``<=`` form (``>=`` rows negated, ``=`` rows
    entering once per side) and only its nonzeros are kept: ``(row, col,
    val)`` with the positive entries first and each sign block in column
    order, so a column's entries of one sign form one segment.  A round
    gathers the bound every entry reads in the row's minimum activity (``lo``
    under a positive coefficient, ``hi`` under a negative one), sums the
    activities per row, rejects the box when a row's surplus ``rhs - minact``
    is below ``-tol``, and lets every other row that reads no infinite bound
    cap each of its variables at ``bound + max(surplus, 0) / val`` (an upper
    bound under a positive coefficient, a lower one under a negative): a row
    violated by less than ``tol`` pins its variables at the bounds it reads
    instead of pushing them past, so presolve accepts what the LP accepts.
    A bound takes a cap only when it tightens by more than 1e-12 of the cap's
    size, so rounding errors cannot creep from round to round.  The work
    per round is linear in the number of nonzeros.  Built once per problem
    structure from its nonzeros ``(row, col, val)``, with the right-hand
    sides rebound per solve by :meth:`set_rhs`, and run per node.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 rel: np.ndarray, b: np.ndarray, is_bin: np.ndarray):
        self.up, self.down = up, down = rel != GE, rel != LE
        # the normalized rows: every <= or = row as it is, then every >= or
        # = row negated, each block in row order
        self.set_rhs(b)
        big = np.abs(vals) > 1e-12
        r, c, v = rows[big], cols[big], vals[big]
        in_up, in_down = up[r], down[r]
        row = np.concatenate([(np.cumsum(up) - 1)[r[in_up]],
                              (up.sum() + np.cumsum(down) - 1)[r[in_down]]])
        col = np.concatenate([c[in_up], c[in_down]])
        val = np.concatenate([v[in_up], -v[in_down]])
        order = np.lexsort((row, col, val < 0.0))
        self.row, self.col, self.val = row[order], col[order], val[order]
        self.n_pos = int(np.count_nonzero(val > 0.0))
        self.pos_cols, self.pos_starts = _segments(self.col[:self.n_pos])
        self.neg_cols, self.neg_starts = _segments(self.col[self.n_pos:])
        self.is_bin = is_bin

    def set_rhs(self, b: np.ndarray) -> None:
        self.rhs = np.concatenate([b[self.up], -b[self.down]])

    def run(self, lo: np.ndarray, hi: np.ndarray,
            feas_tol: float) -> tuple[bool, np.ndarray, np.ndarray]:
        """Returns (consistent, lo, hi); the given arrays are not modified."""
        row, col, val, k = self.row, self.col, self.val, self.n_pos
        for _ in range(_PRESOLVE_ROUNDS):
            if np.any(lo > hi + 1e-9):
                return False, lo, hi
            bound = np.concatenate([lo[col[:k]], hi[col[k:]]])
            minact = np.bincount(row, val * bound, minlength=len(self.rhs))
            surplus = self.rhs - minact
            # a row reading an infinite bound has an infinite (or NaN)
            # minimum activity: it can neither be violated nor tighten
            finite = np.abs(minact) < _NEAR_HUGE
            if np.any(finite & (surplus < -feas_tol)):
                return False, lo, hi
            # NaN marks the entries of rows that tighten nothing; a row
            # violated within the tolerance caps its variables at their own
            # bounds, not beyond them
            cap = np.where(finite, np.maximum(surplus, 0.0), np.nan)
            cand = bound + cap[row] / val
            ub = np.full(len(lo), np.inf)
            lb = np.full(len(lo), -np.inf)
            if k:
                ub[self.pos_cols] = np.fmin.reduceat(cand[:k], self.pos_starts)
            if k < len(cand):
                lb[self.neg_cols] = np.fmax.reduceat(cand[k:], self.neg_starts)
            ub[~(ub <= _NEAR_HUGE)] = np.inf
            lb[~(lb >= -_NEAR_HUGE)] = -np.inf
            # a cap moves a bound only by more than 1e-12 of its size:
            # smaller steps are rounding errors, which would otherwise creep
            # round after round around a cycle of rows (amplified by small
            # coefficients) past points that satisfy every row
            with np.errstate(invalid="ignore"):   # inf - inf: no move
                new_hi = np.where(ub < hi - 1e-12 * (1 + np.abs(ub)), ub, hi)
                new_lo = np.where(lb > lo + 1e-12 * (1 + np.abs(lb)), lb, lo)
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


def _segments(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and the index where each starts."""
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    return cols[starts], starts


def check_certificate(problem: MilpProblem, y, tol: float = 1e-7) -> bool:
    """Does the dual vector prove the LP relaxation empty?

    The ray must price inequality rows with the right sign (y <= 0 on <=
    rows, y >= 0 on >= rows) and satisfy  max_{lo<=z<=hi} (A^T y) . z  <
    y . b, which no point inside the bounds can allow.
    """
    row, col, val, rel, b, lo, hi, _, _ = problem.sparse_arrays()
    y = np.asarray(y, dtype=float)
    if y.shape != b.shape:
        return False
    if np.any((rel == LE) & (y > tol)) or np.any((rel == GE) & (y < -tol)):
        return False
    d = np.bincount(col, val * y[row], minlength=len(lo))
    up, down = d > tol, d < -tol
    if not (np.isfinite(hi[up]).all() and np.isfinite(lo[down]).all()):
        return False
    box_max = float(d[up] @ hi[up] + d[down] @ lo[down])
    return box_max < float(y @ b) - tol


# -- branch and bound -----------------------------------------------------------

def _sos1_rows(row, col, val, rel, is_bin) -> list[tuple[int, tuple[int, ...]]]:
    """The EQ rows of +1 coefficients over two or more binaries, as (row,
    members) in row order, whatever their right-hand side.  Coefficients of
    magnitude 1e-12 or less count as zero, as in presolve."""
    keep = (rel == EQ)[row] & (np.abs(val) > 1e-12)
    rows, cols = row[keep], col[keep]
    unit = is_bin[cols] & (np.abs(val[keep] - 1.0) <= 1e-12)
    order = np.lexsort((cols, rows))
    rows, cols, unit = rows[order], cols[order], unit[order]
    firsts, starts = _segments(rows)
    if not starts.size:
        return []
    ends = np.append(starts[1:], len(rows))
    ok = np.logical_and.reduceat(unit, starts) & (ends - starts >= 2)
    return [(int(r), tuple(int(c) for c in cols[s:e]))
            for r, s, e in zip(firsts[ok], starts[ok], ends[ok])]


def _sos1_groups(problem: MilpProblem, sos1_rows=None) -> list[tuple[int, ...]]:
    """Exactly-one rows over binaries: EQ rows of +1 coefficients, rhs 1.

    Any integral solution sets exactly one member of such a group to 1, so
    branching can enumerate the members instead of splitting one binary at
    a time — the branch tree then follows the problem's own choice
    structure (one mode per step) instead of a generic 0/1 tree.  Groups
    come in row order, each once; ``sos1_rows`` are the problem's
    ``_sos1_rows`` when already known.
    """
    row, col, val, rel, b, _, _, is_bin, _ = problem.sparse_arrays()
    if sos1_rows is None:
        sos1_rows = _sos1_rows(row, col, val, rel, is_bin)
    return list(dict.fromkeys(group for r, group in sos1_rows
                              if abs(b[r] - 1.0) <= 1e-12))


class SolverSession:
    """The bundled solver's set-up for one problem structure, kept across
    solves (see the module docstring).

    The structure is the nonzeros, the relations and the binary mask,
    compared by identity: windows bound from one encoding template share
    these arrays.  A problem of another structure rebuilds the session,
    whose new engine then starts from the slack basis.
    ``StreamingDetector`` keeps one session for all its windows.
    """

    def __init__(self):
        self._structure: tuple | None = None

    def _bind(self, problem: MilpProblem) -> dict[int, tuple[int, ...]]:
        """Set up for ``problem``; returns each binary's exactly-one group."""
        row, col, val, rel, b, _, _, is_bin, _ = problem.sparse_arrays()
        structure = (row, col, val, rel, is_bin)
        if self._structure is None or not all(
                new is old for new, old in zip(structure, self._structure)):
            self._structure = structure
            self.presolver = _Presolver(row, col, val, rel, b, is_bin)
            self.engine = _DualSimplex(problem.to_arrays()[0], rel, b)
            self._sos1_rows = _sos1_rows(row, col, val, rel, is_bin)
        else:
            self.presolver.set_rhs(b)
            self.engine.set_rhs(b)
        # a binary in several groups branches by the first
        return {j: group for group in
                reversed(_sos1_groups(problem, self._sos1_rows)) for j in group}


def solve_milp(problem: MilpProblem, config: SolverConfig | None = None, *,
               session: SolverSession | None = None) -> SolveResult:
    """Decide feasibility of a sealed problem on the configured backend;
    witnesses are re-verified.

    The bundled solver runs on ``session`` (see :class:`SolverSession`) or
    on a fresh one; the external backend ignores it."""
    cfg = config or SolverConfig()
    if not problem.sealed:
        problem.seal()
    if cfg.external_command:
        from .external import solve_with_command
        return solve_with_command(problem, cfg.external_command,
                                  time_limit=cfg.time_limit)
    session = SolverSession() if session is None else session
    member_group = session._bind(problem)
    presolver, engine = session.presolver, session.engine
    first = engine.iterations
    rel, _, lo0, hi0, is_bin, names = problem.sparse_arrays()[3:]
    bin_idx = np.flatnonzero(is_bin)
    t0 = time.perf_counter()
    deadline = None if cfg.time_limit is None else t0 + cfg.time_limit
    nodes = 0

    def finish(status, witness=None, message="", certificate=None) -> SolveResult:
        return SolveResult(status, witness, nodes,
                           engine.iterations - first,
                           time.perf_counter() - t0, message, certificate)

    def checked_witness(x: np.ndarray) -> Witness:
        w = Witness({name: float(v) for name, v in zip(names, x)})
        ok, violations = verify(problem, w, tol=WITNESS_TOL)
        if not ok:
            raise SolverNumericalError(
                "witness failed verification: " + "; ".join(violations[:4]))
        return w

    if np.any(lo0 > hi0):
        return finish(INFEASIBLE, message="empty variable bounds")
    # bound boxes, pushed so the preferred branch pops first.  Every LP
    # starts from the basis the engine's last solve ended in (a fresh
    # session's first from the slack basis): with a zero objective any basis
    # is a valid start, and the engine's own needs no refactorization
    stack: list[tuple[np.ndarray, np.ndarray]] = [(lo0.copy(), hi0.copy())]
    branched = False
    try:
        while stack:
            if nodes >= cfg.node_limit or (
                    deadline is not None and time.perf_counter() > deadline):
                return finish(BUDGET_EXCEEDED,
                              message=f"stopped after {nodes} nodes")
            lo, hi = stack.pop()
            ok, lo, hi = presolver.run(lo, hi, FEAS_TOL)
            res = None
            if ok:
                nodes += 1
                res = engine.solve(lo, hi, deadline)
            if res is None or not res.feasible:
                if branched:
                    continue
                # the root is pruned.  A ray under presolve-tightened bounds
                # does not certify the original ones, so the LP runs once
                # more on those; it is feasible when presolve's rounding of
                # binary bounds alone emptied the box
                res = engine.solve(lo0, hi0, deadline)
                nodes += 1
                cert = None
                if not res.feasible:
                    # rounding can price an inequality row with the wrong
                    # sign; zero is the right one, and the check re-verifies
                    # the clipped ray in full
                    y = np.where(((rel == LE) & (res.ray > 0.0))
                                 | ((rel == GE) & (res.ray < 0.0)), 0.0, res.ray)
                    if check_certificate(problem, y, FEAS_TOL):
                        cert = tuple(map(float, y))
                return finish(INFEASIBLE, certificate=cert)
            x = res.x
            open_mask = (hi[bin_idx] - lo[bin_idx]) > 0.5   # not yet fixed
            if not np.any(open_mask):
                # every binary is fixed by its bounds: a leaf
                x[bin_idx] = np.round(x[bin_idx])
                return finish(FEASIBLE, witness=checked_witness(x))
            # split the earliest open binary that is fractional, or, when the
            # point is integral, the earliest open one
            frac = np.abs(x[bin_idx] - np.round(x[bin_idx]))
            pick = open_mask & (frac > INT_TOL)
            j = int(bin_idx[np.argmax(pick if pick.any() else open_mask)])
            branched = True
            # each child as (set to 1, set to 0), pushed so the child the
            # relaxation prefers pops first: a group's one-hot assignments,
            # or a lone binary's 0- and 1-child
            group = member_group.get(j)
            if group is None:
                splits = [([], [j]), ([j], [])]
            else:
                pinned = [m for m in group if lo[m] > 0.5]
                members = (pinned[:1] if pinned
                           else [m for m in group if hi[m] > 0.5])
                members.sort(key=lambda m: (x[m], -m))
                splits = [([m], [o for o in group if o != m]) for m in members]
            for ones, zeros in splits:
                lo_c, hi_c = lo.copy(), hi.copy()
                lo_c[ones] = 1.0
                hi_c[zeros] = 0.0
                stack.append((lo_c, hi_c))
    except _OutOfTime:
        return finish(BUDGET_EXCEEDED, message=(
            f"time limit reached in the LP after {nodes} nodes"))
    return finish(INFEASIBLE)
