"""Tests for the feasibility solver.

Verdicts are cross-checked against scipy (linprog for pure LPs,
scipy.optimize.milp for mixed problems) on randomized instances, and against
exhaustive binary enumeration for small mixed problems.  Witnesses are
replayed through the independent row checker.
"""

import itertools
import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, milp as scipy_milp
from scipy.optimize import Bounds, LinearConstraint as SciLinCon

from oracles import DensePresolver, certificate_by_columns, sos1_groups_by_rows
from swainval import solver
from swainval.detector import inject_persistent_fault
from swainval.encoder import (CONSISTENT, INVALIDATED, check_invalidation,
                              encode_invalidation, encode_t_detectability)
from swainval.detectability import find_T
from swainval.examples import (builtin_pair, numeric_family, numeric_system,
                               scenario_specs)
from swainval.milp import FEAS_TOL, INT_TOL, MilpProblem, verify
from swainval.model import HyperRectangle, RandomPolicy, simulate_random
from swainval.solver import (
    BUDGET_EXCEEDED,
    FEASIBLE,
    INFEASIBLE,
    SolverConfig,
    SolverNumericalError,
    _DualSimplex,
    _NumericalTrouble,
    _OutOfTime,
    check_certificate,
    solve_milp,
)


def random_lp(rng, n=6, m=8) -> MilpProblem:
    """Random bounded LP; roughly half are feasible."""
    p = MilpProblem("rand")
    lo = rng.uniform(-5, 0, n)
    hi = lo + rng.uniform(0.5, 6, n)
    for j in range(n):
        p.add_continuous(f"v{j}", lo[j], hi[j])
    A = rng.uniform(-2, 2, (m, n))
    A[rng.uniform(size=(m, n)) < 0.4] = 0.0
    centre = (lo + hi) / 2
    for i in range(m):
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        rhs = float(A[i] @ centre + rng.uniform(-3, 3))
        p.add_constraint(f"r{i}", [(A[i, j], f"v{j}") for j in range(n)], rel, rhs)
    return p.seal()


def _sparsify(A: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Zero the dropped entries, except that a row losing all of them keeps
    its largest: MilpProblem rightly rejects an empty unsatisfiable row."""
    drop = drop.copy()
    empty = np.flatnonzero(drop.all(axis=1))
    drop[empty, np.argmax(np.abs(A[empty]), axis=1)] = False
    return np.where(drop, 0.0, A)


def random_mip(rng, n=4, nb=5, m=7) -> MilpProblem:
    p = MilpProblem("randmip")
    lo = rng.uniform(-3, 0, n)
    hi = lo + rng.uniform(0.5, 4, n)
    for j in range(n):
        p.add_continuous(f"v{j}", lo[j], hi[j])
    for j in range(nb):
        p.add_binary(f"d{j}")
    names = [f"v{j}" for j in range(n)] + [f"d{j}" for j in range(nb)]
    centre = np.concatenate([(lo + hi) / 2, np.full(nb, 0.5)])
    A = _sparsify(rng.uniform(-2, 2, (m, n + nb)),
                  rng.uniform(size=(m, n + nb)) < 0.35)
    for i in range(m):
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        rhs = float(A[i] @ centre + rng.uniform(-2.0, 2.0))
        p.add_constraint(f"r{i}", [(A[i, j], names[j]) for j in range(n + nb)],
                         rel, rhs)
    return p.seal()


def linprog_feasible(A, rel, b, lo, hi) -> bool:
    signs = np.where(rel == ">=", -1.0, 1.0)
    ineq, eq = rel != "=", rel == "="
    res = linprog(np.zeros(A.shape[1]),
                  A_ub=(signs[:, None] * A)[ineq] if ineq.any() else None,
                  b_ub=(signs * b)[ineq] if ineq.any() else None,
                  A_eq=A[eq] if eq.any() else None,
                  b_eq=b[eq] if eq.any() else None,
                  bounds=[(None if math.isinf(l) else l, None if math.isinf(h) else h)
                          for l, h in zip(lo, hi)], method="highs")
    return res.status == 0


def scipy_feasible(p: MilpProblem) -> bool:
    A, rel, b, lo, hi, is_bin, _ = p.to_arrays()
    n = A.shape[1]
    if np.any(is_bin):
        cons = []
        for i in range(A.shape[0]):
            if rel[i] == "<=":
                cons.append(SciLinCon(A[i], -np.inf, b[i]))
            elif rel[i] == ">=":
                cons.append(SciLinCon(A[i], b[i], np.inf))
            else:
                cons.append(SciLinCon(A[i], b[i], b[i]))
        res = scipy_milp(c=np.zeros(n), constraints=cons,
                         integrality=is_bin.astype(int),
                         bounds=Bounds(lo, hi))
        return res.status == 0
    return linprog_feasible(A, rel, b, lo, hi)


def enumerate_feasible(p: MilpProblem) -> bool:
    """Ground truth: try every binary assignment, solving the continuous rest
    with scipy."""
    A, rel, b, lo, hi, is_bin, _ = p.to_arrays()
    bins = np.where(is_bin)[0]
    for bits in range(2 ** len(bins)):
        lo2, hi2 = lo.copy(), hi.copy()
        for pos, j in enumerate(bins):
            v = float((bits >> pos) & 1)
            lo2[j] = hi2[j] = v
        if linprog_feasible(A, rel, b, lo2, hi2):
            return True
    return False


class TestPureLp:
    def test_trivial_feasible(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_constraint("r", [(1.0, "x")], ">=", 0.5)
        p.seal()
        res = solve_milp(p)
        assert res.status == FEASIBLE
        assert 0.5 - 1e-9 <= res.witness["x"] <= 1.0 + 1e-9

    def test_trivial_infeasible(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_constraint("r", [(1.0, "x")], ">=", 1.5)
        p.seal()
        res = solve_milp(p)
        assert res.status == INFEASIBLE

    def test_equality_chain(self):
        # x0 = 1, x_{k+1} = 0.5 x_k + 1 for 10 steps, all within loose bounds
        p = MilpProblem()
        for k in range(11):
            p.add_continuous(f"x{k}", -10.0, 10.0)
        p.add_constraint("init", [(1.0, "x0")], "=", 1.0)
        for k in range(10):
            p.add_constraint(f"dyn{k}", [(1.0, f"x{k + 1}"), (-0.5, f"x{k}")], "=", 1.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == FEASIBLE
        x = 1.0
        for k in range(10):
            x = 0.5 * x + 1.0
            assert res.witness[f"x{k + 1}"] == pytest.approx(x, abs=1e-7)

    def test_no_rows_bounds_only(self):
        p = MilpProblem()
        p.add_continuous("x", 2.0, 3.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == FEASIBLE and 2.0 <= res.witness["x"] <= 3.0

    @pytest.mark.parametrize("seed", range(60))
    def test_against_scipy_linprog(self, seed):
        rng = np.random.default_rng(seed)
        p = random_lp(rng)
        res = solve_milp(p)
        assert res.status == (FEASIBLE if scipy_feasible(p) else INFEASIBLE), \
            f"seed {seed}"
        if res.status == FEASIBLE:
            ok, violations = verify(p, res.witness)
            assert ok, violations

    def test_free_variable(self):
        p = MilpProblem()
        p.add_continuous("x", -math.inf, math.inf)
        p.add_continuous("y", 0.0, 1.0)
        p.add_constraint("r1", [(1.0, "x"), (1.0, "y")], "=", 7.5)
        p.add_constraint("r2", [(1.0, "x")], "<=", 100.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == FEASIBLE
        assert res.witness["x"] + res.witness["y"] == pytest.approx(7.5, abs=1e-7)


class TestMixedInteger:
    def test_forced_binary_combination(self):
        # x = 2 d0 + d1 with x pinned to 3 forces d0 = d1 = 1
        p = MilpProblem()
        p.add_continuous("x", 3.0, 3.0)
        p.add_binary("d0")
        p.add_binary("d1")
        p.add_constraint("mix", [(1.0, "x"), (-2.0, "d0"), (-1.0, "d1")], "=", 0.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == FEASIBLE
        assert res.witness["d0"] == 1.0 and res.witness["d1"] == 1.0

    def test_integer_infeasible_lp_feasible(self):
        # 2 d = 1 is LP-feasible (d = 0.5) but integer-infeasible
        p = MilpProblem()
        p.add_binary("d")
        p.add_constraint("r", [(2.0, "d")], "=", 1.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == INFEASIBLE

    def test_one_active_mode_selection(self):
        # exactly one of three shifted intervals must hold; only mode 2 fits
        M = 100.0
        p2 = MilpProblem()
        p2.add_continuous("x", 4.6, 4.6)
        for i in range(3):
            p2.add_binary(f"d{i}")
        for i, (lo, hi) in enumerate([(-1.0, 1.0), (2.0, 3.0), (4.0, 5.0)]):
            p2.add_constraint(f"lo{i}", [(1.0, "x"), (-M, f"d{i}")], ">=", lo - M)
            p2.add_constraint(f"hi{i}", [(1.0, "x"), (M, f"d{i}")], "<=", hi + M)
        p2.add_constraint("pick", [(1.0, f"d{i}") for i in range(3)], "=", 1.0)
        p2.seal()
        res = solve_milp(p2)
        assert res.status == FEASIBLE
        assert res.witness["d2"] == 1.0
        assert res.witness["d0"] == 0.0 and res.witness["d1"] == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_against_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p = random_mip(rng)
        res = solve_milp(p)
        assert res.status == (FEASIBLE if enumerate_feasible(p)
                              else INFEASIBLE), f"seed {seed}"
        if res.status == FEASIBLE:
            ok, violations = verify(p, res.witness)
            assert ok, violations

    @pytest.mark.parametrize("seed", range(10))
    def test_larger_against_scipy_milp(self, seed):
        rng = np.random.default_rng(2000 + seed)
        p = random_mip(rng, n=6, nb=12, m=10)
        res = solve_milp(p)
        assert res.status == (FEASIBLE if scipy_feasible(p) else INFEASIBLE), \
            f"seed {seed}"
        if res.status == FEASIBLE:
            ok, violations = verify(p, res.witness)
            assert ok, violations


class TestDeterminism:
    def test_same_answer_every_run(self):
        rng = np.random.default_rng(42)
        p = random_mip(rng, n=5, nb=8, m=9)
        first = solve_milp(p)
        for _ in range(3):
            again = solve_milp(p)
            assert again.status == first.status
            assert again.nodes == first.nodes
            if first.witness is not None:
                assert again.witness.assignment == first.witness.assignment

    def test_presolve_off_agrees(self, monkeypatch):
        problems = [random_mip(np.random.default_rng(3000 + seed))
                    for seed in range(15)]
        with_presolve = [solve_milp(p).status for p in problems]
        monkeypatch.setattr(solver._Presolver, "run",
                            lambda self, lo, hi, tol: (True, lo, hi))
        assert [solve_milp(p).status for p in problems] == with_presolve


class TestBudgets:
    def test_node_limit(self):
        rng = np.random.default_rng(7)
        p = random_mip(rng, n=4, nb=14, m=6)
        res = solve_milp(p, SolverConfig(node_limit=1))
        assert res.status in (FEASIBLE, INFEASIBLE, BUDGET_EXCEEDED)
        res0 = solve_milp(p, SolverConfig(node_limit=0))
        assert res0.status == BUDGET_EXCEEDED

    def test_time_limit_zero(self):
        rng = np.random.default_rng(8)
        p = random_mip(rng)
        res = solve_milp(p, SolverConfig(time_limit=0.0))
        assert res.status == BUDGET_EXCEEDED


def test_presolve_emptying_a_root_box_with_a_feasible_relaxation_is_infeasible():
    # b in [0.4, 0.6] holds for the relaxation, but no binary fits: presolve
    # rounds the bounds to 1 <= b <= 0, and the root LP on the original
    # bounds finds no ray, so the answer comes without a certificate
    p = MilpProblem()
    p.add_binary("b")
    p.add_constraint("lo", [(1.0, "b")], ">=", 0.4)
    p.add_constraint("hi", [(1.0, "b")], "<=", 0.6)
    res = solve_milp(p.seal())
    assert (res.status, res.nodes, res.certificate, res.message) == (
        INFEASIBLE, 1, None, "")


class TestCertificates:
    def test_infeasible_lp_has_valid_certificate(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_continuous("y", 0.0, 1.0)
        p.add_constraint("r1", [(1.0, "x"), (1.0, "y")], ">=", 3.0)
        p.seal()
        res = solve_milp(p)
        assert res.status == INFEASIBLE
        assert res.certificate is not None
        assert check_certificate(p, res.certificate)

    def test_certificates_on_random_infeasible_lps(self):
        found = 0
        for seed in range(40):
            rng = np.random.default_rng(5000 + seed)
            p = random_lp(rng)
            res = solve_milp(p)
            if res.status == INFEASIBLE and res.certificate is not None:
                assert check_certificate(p, res.certificate), f"seed {seed}"
                found += 1
        assert found >= 3  # the sampler produces plenty of infeasible LPs

    def test_bogus_certificate_rejected(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_constraint("r1", [(1.0, "x")], "<=", 0.5)
        p.seal()
        assert not check_certificate(p, [1.0])   # wrong sign for a <= row
        assert not check_certificate(p, [-1.0])  # feasible problem: no proof


class TestWitnessQuality:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_witness_replays_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        p = random_mip(rng, n=3, nb=4, m=5)
        res = solve_milp(p)
        if res.status == FEASIBLE:
            ok, violations = verify(p, res.witness, tol=1e-6)
            assert ok, violations


def random_bounded_lp(rng, n=5, m=6) -> MilpProblem:
    """Random LP mixing <=, >= and = rows with boxed, one-sided and free
    variables; roughly half are feasible."""
    p = MilpProblem("randlp")
    centre = rng.uniform(-3, 3, n)
    for j in range(n):
        kind = int(rng.integers(4))
        lo = centre[j] - rng.uniform(0.2, 4) if kind in (0, 1) else -math.inf
        hi = centre[j] + rng.uniform(0.2, 4) if kind in (0, 2) else math.inf
        p.add_continuous(f"v{j}", lo, hi)
    A = _sparsify(rng.uniform(-2, 2, (m, n)), rng.uniform(size=(m, n)) < 0.4)
    for i in range(m):
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        rhs = float(A[i] @ centre + rng.uniform(-4, 4))
        p.add_constraint(f"r{i}", [(A[i, j], f"v{j}") for j in range(n)], rel, rhs)
    return p.seal()


def tightened(rng, lo, hi):
    """A random sub-box of [lo, hi]; unbounded sides may become finite."""
    lo2, hi2 = lo.copy(), hi.copy()
    for j in range(len(lo)):
        if rng.uniform() < 0.5:
            continue
        a = lo[j] if math.isfinite(lo[j]) else min(hi[j], 0.0) - rng.uniform(0, 6)
        c = hi[j] if math.isfinite(hi[j]) else max(a, 0.0) + rng.uniform(0, 6)
        lo2[j], hi2[j] = np.sort(rng.uniform(a, c, 2))
    return lo2, hi2


def rows_hold(A, rel, b, x, tol) -> bool:
    act = A @ x
    return bool(np.all(np.where(rel == "<=", act <= b + tol,
                                np.where(rel == ">=", act >= b - tol,
                                         np.abs(act - b) <= tol))))


class TestDualSimplexProperties:
    """The node LP engine against scipy's linprog on random bounded LPs."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    @example(2487)  # presolve once read a tiny coefficient on an infinite bound as finite
    def test_feasibility_witness_and_certificate(self, seed):
        p = random_bounded_lp(np.random.default_rng(seed))
        A, rel, b, lo, hi, _, _ = p.to_arrays()
        res = solve_milp(p)
        assert res.status == (FEASIBLE if linprog_feasible(A, rel, b, lo, hi)
                              else INFEASIBLE)
        if res.status == FEASIBLE:
            ok, violations = verify(p, res.witness)
            assert ok, violations
        else:
            assert res.certificate is not None
            assert check_certificate(p, res.certificate)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_warm_resolve_after_tightening_agrees_with_cold(self, seed):
        rng = np.random.default_rng(seed)
        A, rel, b, lo, hi, _, _ = random_bounded_lp(rng).to_arrays()
        engine = _DualSimplex(A, rel, b)
        engine.solve(lo, hi, None)
        lo2, hi2 = tightened(rng, lo, hi)
        expected = linprog_feasible(A, rel, b, lo2, hi2)
        cold = _DualSimplex(A, rel, b).solve(lo2, hi2, None)
        # warm from the vertex the engine's first solve ended at
        warm = engine.solve(lo2, hi2, None)
        for res in (cold, warm):
            assert res.feasible == expected
            if res.feasible:
                tol = 10 * FEAS_TOL
                assert np.all(res.x >= lo2 - tol) and np.all(res.x <= hi2 + tol)
                assert rows_hold(A, rel, b, res.x, tol)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_a_chain_of_boxes_each_warm_from_the_last_basis(self, seed):
        # as branch and bound uses the engine: every box starts from the
        # basis the previous solve ended in, whether that box is tighter,
        # looser (a backtrack) or follows an infeasible solve
        rng = np.random.default_rng(seed)
        A, rel, b, lo, hi, _, _ = random_bounded_lp(rng).to_arrays()
        engine = _DualSimplex(A, rel, b)
        box = (lo, hi)
        for _ in range(8):
            res = engine.solve(*box, None)
            assert res.feasible == linprog_feasible(A, rel, b, *box)
            if res.feasible:
                tol = 10 * FEAS_TOL
                assert np.all(res.x >= box[0] - tol) and np.all(res.x <= box[1] + tol)
                assert rows_hold(A, rel, b, res.x, tol)
            else:
                assert check_certificate(boxed(A, rel, b, *box), res.ray)
            # a sub-box of this one, or of the full box, or the full box
            box = (tightened(rng, *box), tightened(rng, lo, hi),
                   (lo, hi))[int(rng.integers(3))]


def boxed(A, rel, b, lo, hi) -> MilpProblem:
    """The problem of dense arrays over the box [lo, hi]."""
    p = MilpProblem("boxed")
    for j in range(A.shape[1]):
        p.add_continuous(f"v{j}", lo[j], hi[j])
    for i in range(A.shape[0]):
        p.add_constraint(f"r{i}", [(A[i, j], f"v{j}") for j in range(A.shape[1])],
                         rel[i], b[i])
    return p.seal()


class TestLeavingRule:
    """Dual Devex picks the leaving row; Bland's rule takes over only when a
    solve returns to a vertex it stood at, which the engine detects by an
    incremental Zobrist key of the basis and the at-upper set."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_bland_from_the_first_pivot_agrees_with_linprog(self, seed):
        p = random_bounded_lp(np.random.default_rng(seed))
        A, rel, b, lo, hi, _, _ = p.to_arrays()
        engine = _DualSimplex(A, rel, b)
        with pytest.MonkeyPatch.context() as mp:
            # every vertex counts as a repeat, so Bland rules from the start
            mp.setattr(_DualSimplex, "_revisited", lambda self, key: True)
            res = engine.solve(lo, hi, None)
        assert engine.bland_switches == 1
        assert res.feasible == linprog_feasible(A, rel, b, lo, hi)
        if res.feasible:
            tol = 10 * FEAS_TOL
            assert np.all(res.x >= lo - tol) and np.all(res.x <= hi + tol)
            assert rows_hold(A, rel, b, res.x, tol)
        else:
            assert check_certificate(p, res.ray)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_incremental_vertex_key_matches_the_recomputed_one(self, seed, bland):
        rng = np.random.default_rng(seed)
        A, rel, b, lo, hi, _, _ = random_bounded_lp(rng).to_arrays()
        revisited = _DualSimplex._revisited
        keys = []

        def checking(self, key):
            keys.append((key, self._vertex_key()))
            return bland or revisited(self, key)

        engine = _DualSimplex(A, rel, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DualSimplex, "_revisited", checking)
            engine.solve(lo, hi, None)
            # a warm start that rests nonbasic columns at their upper bound
            engine.solve(*tightened(rng, lo, hi), None)
        # once at the start of each solve (a singular warm start adds one
        # from the slack basis), then after every pivot
        assert len(keys) >= 2 + engine.iterations
        assert all(incremental == recomputed for incremental, recomputed in keys)


    @pytest.mark.parametrize("seed", range(40))
    def test_an_overflowing_devex_weight_restarts_the_weights(self, seed,
                                                              monkeypatch):
        # from 1e307 a pivot's update overflows a weight to inf, and
        # inf * 0 = NaN prices every row out: without the restart the loop
        # said "feasible" with bounds still violated on 16 of these 40 LPs
        monkeypatch.setattr(solver, "_DEVEX_START", 1e307)
        A, rel, b, lo, hi, _, _ = random_bounded_lp(
            np.random.default_rng(seed)).to_arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            res = _DualSimplex(A, rel, b).solve(lo, hi, None)
        assert res.feasible == linprog_feasible(A, rel, b, lo, hi)
        if res.feasible:
            tol = 10 * FEAS_TOL
            assert np.all(res.x >= lo - tol) and np.all(res.x <= hi + tol)
            assert rows_hold(A, rel, b, res.x, tol)
        else:
            assert check_certificate(boxed(A, rel, b, lo, hi), res.ray)


def test_benchmark_lps_never_switch_to_bland(monkeypatch, radiant_window):
    made = []
    init = _DualSimplex.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(_DualSimplex, "__init__", recording_init)
    specs = {s.name: s for s in scenario_specs()}
    iterations = {}
    for i in (1, 2, 3, 4):
        spec = specs[f"sensor-scenario-{i}"]
        first = len(made)
        rep = find_T(*builtin_pair(f"sensorScenario{i}",
                                   uncertainty=spec.uncertainty))
        assert f"T={rep.horizon}" == spec.expected
        iterations[i] = sum(e.iterations for e in made[first:])
    find_T(*builtin_pair("radiant"), t_max=4)
    assert solve_milp(radiant_window).status in (FEASIBLE, INFEASIBLE)
    assert made and all(e.bland_switches == 0 for e in made)
    # the most-infeasible leaving rule took 10,761 pivots here (7,968 with
    # Bland on a repeated vertex, in 18 switches), Devex 5,859 with every
    # node warm from its parent's basis, 3,911 warm from the engine's own
    assert iterations[3] < 5000


def test_every_node_lp_starts_from_the_basis_the_engine_holds(monkeypatch):
    # the sensorScenario3 pair at T=2 is infeasible after 73 nodes
    system, fault = builtin_pair("sensorScenario3", uncertainty=False)
    problem = encode_t_detectability(system, fault, 2).problem.seal()
    solve, iterate = _DualSimplex.solve, _DualSimplex._iterate
    calls, starts = [], []

    def recording(self, lo, hi, deadline):
        # the box and the vertex the engine holds when the solve begins
        held = self.warm and (self.basis.copy(),
                              ~self.is_basic & (self.z >= self.hi))
        calls.append((lo.copy(), hi.copy(), held))
        return solve(self, lo, hi, deadline)

    def started(self, deadline):
        starts.append((self.basis.copy(), self.z.copy(), self.lo, self.hi))
        return iterate(self, deadline)

    monkeypatch.setattr(_DualSimplex, "solve", recording)
    monkeypatch.setattr(_DualSimplex, "_iterate", started)
    res = solve_milp(problem)
    assert res.status == INFEASIBLE and res.nodes > 50
    assert len(calls) == len(starts) == res.nodes and calls[0][2] is False
    m, n = problem.n_rows, problem.n_vars
    np.testing.assert_array_equal(starts[0][0], np.arange(n, n + m))
    moved = 0
    for last, call, (start, z, lo_all, hi_all) in zip(calls, calls[1:], starts[1:]):
        (last_lo, last_hi, _), (_, hi, (basis, at_upper)) = last, call
        np.testing.assert_array_equal(start, basis)
        # only a column the last box fixed below this box's upper bound
        # leaves its upper bound, for its lower one
        below = np.zeros_like(at_upper)
        below[:n] = (last_lo == last_hi) & (last_lo < hi)
        moved += np.count_nonzero(at_upper & below)
        up = at_upper & ~below
        lo_fin, hi_fin = np.isfinite(lo_all), np.isfinite(hi_all)
        rest = np.where(up & hi_fin, hi_all,
                        np.where(lo_fin, lo_all, np.where(hi_fin, hi_all, 0.0)))
        nonbasic = np.ones(n + m, dtype=bool)
        nonbasic[start] = False
        np.testing.assert_array_equal(z[nonbasic], rest[nonbasic])
    assert moved


class TestNonzeroReaders:
    """The solve reads the dense matrix once; certificate and witness
    checks read the problem's nonzeros."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_check_certificate_matches_the_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        p = random_bounded_lp(rng)
        rel = p.sparse_arrays()[3]
        g = rng.normal(size=p.n_rows)
        # rays priced with the right signs reach the box test
        signed = np.select([rel == "<=", rel == ">="], [-np.abs(g), np.abs(g)], g)
        rays = [g, signed, signed * (rng.uniform(size=p.n_rows) < 0.5)]
        res = solve_milp(p)
        if res.certificate is not None:
            rays += [np.array(res.certificate), -np.array(res.certificate)]
        for y in rays:
            assert check_certificate(p, y) == certificate_by_columns(p, y)
        assert not check_certificate(p, np.zeros(p.n_rows + 1))

    def test_to_arrays_is_read_once_per_solve(self, radiant_window, monkeypatch):
        calls = []
        to_arrays = MilpProblem.to_arrays

        def counting(problem):
            calls.append(problem)
            return to_arrays(problem)

        monkeypatch.setattr(MilpProblem, "to_arrays", counting)
        feasible = solve_milp(radiant_window)   # verifies its witness
        assert feasible.status == FEASIBLE and len(calls) == 1
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_continuous("y", 0.0, 1.0)
        p.add_constraint("r", [(1.0, "x"), (1.0, "y")], ">=", 3.0)
        calls.clear()
        infeasible = solve_milp(p.seal())        # checks its certificate
        assert infeasible.certificate is not None and len(calls) == 1
        calls.clear()
        assert check_certificate(p, infeasible.certificate) and not calls


def random_box_problem(seed: int):
    """Arrays of a random LP (boxed, one-sided and free variables) or MIP,
    with a random sub-box of its bounds half of the time."""
    rng = np.random.default_rng(seed)
    p = random_bounded_lp(rng) if seed % 2 else random_mip(rng)
    A, rel, b, lo, hi, is_bin, _ = p.to_arrays()
    if rng.uniform() < 0.5:
        lo, hi = tightened(rng, lo, hi)
        lo[is_bin], hi[is_bin] = np.floor(lo[is_bin]), np.ceil(hi[is_bin])
    return rng, A, rel, b, lo, hi, is_bin


def close_bounds(a, b) -> bool:
    with np.errstate(invalid="ignore"):   # inf - inf where both are infinite
        return bool(np.all((a == b) | (np.abs(a - b) <= 1e-9 * (1 + np.abs(a)))))


def presolver_of(A, rel, b, is_bin) -> solver._Presolver:
    """The presolver of dense arrays, built from their nonzeros."""
    row, col = np.nonzero(A)
    return solver._Presolver(row, col, A[row, col], rel, b, is_bin)


class TestPresolverProperties:
    """The sparse presolver against the dense reference, and soundness."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    @example(2487)  # presolve once read a tiny coefficient on an infinite bound as finite
    def test_agrees_with_the_dense_reference(self, seed):
        _, A, rel, b, lo, hi, is_bin = random_box_problem(seed)
        ok, lo1, hi1 = presolver_of(A, rel, b, is_bin).run(lo, hi, FEAS_TOL)
        ok0, lo0, hi0 = DensePresolver(A, rel, b, is_bin).run(lo, hi, FEAS_TOL)
        assert ok == ok0
        assert close_bounds(lo1, lo0) and close_bounds(hi1, hi0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    @example(822482)  # rounding errors once crept 3.6e-9 past the point
    @example(625926)
    def test_never_cuts_off_a_point_that_satisfies_the_rows(self, seed):
        rng, A, rel, _, lo, hi, is_bin = random_box_problem(seed)
        # a point of the box (binaries integral), and rows built to hold there
        left = np.where(np.isfinite(lo), lo, np.minimum(hi, 0.0) - 5.0)
        right = np.where(np.isfinite(hi), hi, np.maximum(lo, 0.0) + 5.0)
        x = rng.uniform(left, right)
        x[is_bin] = rng.integers(lo[is_bin], hi[is_bin] + 1)
        slack = rng.uniform(0.0, 2.0, len(rel)) * (rng.uniform(size=len(rel)) < 0.5)
        b = A @ x + np.select([rel == "<=", rel == ">="], [slack, -slack], 0.0)
        ok, lo1, hi1 = presolver_of(A, rel, b, is_bin).run(lo, hi, FEAS_TOL)
        assert ok
        tol = 1e-9 * (1 + np.abs(x))
        assert np.all(lo1 <= x + tol) and np.all(x <= hi1 + tol)


@pytest.mark.parametrize("rel, rhs, empty", [
    ("<=", 1.0 - 5 * FEAS_TOL, True), ("<=", 1.0 - 1e-10, False),
    (">=", 3.0 + 5 * FEAS_TOL, True), (">=", 3.0 + 1e-10, False)])
def test_presolve_empties_the_box_of_a_violated_row(rel, rhs, empty):
    # x + 2 y over the box [1, 2] x [0, 0.5] ranges over [1, 3]
    A = np.array([[1.0, 2.0]])
    presolver = presolver_of(A, np.array([rel]), np.array([rhs]),
                             np.zeros(2, dtype=bool))
    ok, _, _ = presolver.run(np.array([1.0, 0.0]), np.array([2.0, 0.5]), FEAS_TOL)
    assert ok is not empty


@pytest.mark.parametrize("presolver_class", ["sparse", "dense"])
def test_presolve_accepts_a_row_violated_within_tolerance(presolver_class):
    # x + 2 y <= 1 - 5e-7 misses the box [1, 2] x [0, 0.5] by less than
    # FEAS_TOL: consistent, with the box pinned to its corner (1, 0)
    A, rel, b = np.array([[1.0, 2.0]]), np.array(["<="]), np.array([1.0 - 5e-7])
    is_bin = np.zeros(2, dtype=bool)
    presolver = (presolver_of(A, rel, b, is_bin) if presolver_class == "sparse"
                 else DensePresolver(A, rel, b, is_bin))
    ok, lo, hi = presolver.run(np.array([1.0, 0.0]), np.array([2.0, 0.5]), FEAS_TOL)
    assert ok
    np.testing.assert_array_equal(lo, [1.0, 0.0])
    np.testing.assert_array_equal(hi, [1.0, 0.0])


def test_sos1_groups_are_the_exactly_one_rows_over_binaries():
    p = MilpProblem()
    for j in range(5):
        p.add_binary(f"d{j}")
    p.add_continuous("x", 0.0, 1.0)
    p.add_constraint("pair", [(1.0, "d3"), (1.0, "d4")], "=", 1.0)
    p.add_constraint("triple", [(1.0, "d2"), (1.0, "d0"), (1.0, "d1")], "=", 1.0)
    p.add_constraint("pair_again", [(1.0, "d4"), (1.0, "d3")], "=", 1.0)
    p.add_constraint("scaled", [(1.0, "d0"), (2.0, "d3")], "=", 1.0)
    p.add_constraint("mixed", [(1.0, "d1"), (1.0, "x")], "=", 1.0)
    p.add_constraint("at_most", [(1.0, "d0"), (1.0, "d4")], "<=", 1.0)
    p.add_constraint("two", [(1.0, "d1"), (1.0, "d2")], "=", 2.0)
    p.add_constraint("alone", [(1.0, "d1")], "=", 1.0)
    A, rel, b, _, _, is_bin, _ = p.seal().to_arrays()
    assert solver._sos1_groups(p) == [(3, 4), (0, 1, 2)]
    assert sos1_groups_by_rows(A, rel, b, is_bin) == [(3, 4), (0, 1, 2)]


def test_sos1_groups_match_the_row_by_row_reference(radiant_window):
    system, fault = builtin_pair("sensorScenario4", uncertainty=False)
    pair = encode_t_detectability(system, fault, 3).problem.seal()
    for p in (radiant_window, pair):
        A, rel, b, _, _, is_bin, _ = p.to_arrays()
        groups = solver._sos1_groups(p)
        assert groups and groups == sos1_groups_by_rows(A, rel, b, is_bin)


def test_singular_warm_start_falls_back_to_the_slack_basis(monkeypatch):
    p = MilpProblem()
    p.add_continuous("x", 0.0, 2.0)
    p.add_continuous("y", 0.0, 2.0)
    p.add_constraint("r0", [(1.0, "x"), (1.0, "y")], ">=", 3.0)
    p.add_constraint("r1", [(2.0, "x"), (2.0, "y")], "<=", 7.0)
    A, rel, b, lo, hi, _, _ = p.seal().to_arrays()
    engine = _DualSimplex(A, rel, b)
    assert engine.solve(lo, hi, None).feasible
    solve_from, iterate = _DualSimplex._solve_from, _DualSimplex._iterate
    starts = []

    def recording(self, lo, hi, warm, deadline):
        starts.append(warm)
        return solve_from(self, lo, hi, warm, deadline)

    def troubled(self, deadline):
        # the warm attempt fails once it has set up its start
        if starts == [True]:
            raise _NumericalTrouble("singular basis at refactorization")
        return iterate(self, deadline)

    monkeypatch.setattr(_DualSimplex, "_solve_from", recording)
    monkeypatch.setattr(_DualSimplex, "_iterate", troubled)
    lo2, hi2 = np.array([0.0, 1.8]), np.array([1.5, 2.0])
    res = engine.solve(lo2, hi2, None)
    assert starts == [True, False]
    assert res.feasible and rows_hold(A, rel, b, res.x, 1e-6)
    assert np.all(res.x >= lo2 - 1e-9) and np.all(res.x <= hi2 + 1e-9)
    # the slack start solved, so the next solve continues from its vertex
    assert engine.solve(lo, hi, None).feasible and starts == [True, False, True]


def test_a_tiny_pivot_no_longer_makes_the_basis_singular():
    # a node box of the radiant T=8 pair on which pivots of 1e-9 relative
    # size made the basis singular, even from the slack basis
    p = encode_t_detectability(*builtin_pair("radiant"), 8).problem.seal()
    A, rel, b, lo, hi, _, names = p.to_arrays()
    row, col, val, _, _, _, _, is_bin, _ = p.sparse_arrays()
    lo = lo.copy()
    for name in ("d[1][2][0]", "d[2][2][1]", "d[1][2][6]", "d[3][1][7]"):
        lo[names.index(name)] = 1.0
    consistent, lo, hi = solver._Presolver(row, col, val, rel, b, is_bin).run(
        lo, hi, FEAS_TOL)
    assert consistent
    res = _DualSimplex(A, rel, b).solve(lo, hi, None)
    assert not res.feasible and not linprog_feasible(A, rel, b, lo, hi)
    # the raw ray prices some rows with the wrong sign (up to about 0.8,
    # against entries of 2e6); without those entries it proves the box empty
    ray = res.ray.copy()
    ray[((rel == "<=") & (ray > 0.0)) | ((rel == ">=") & (ray < 0.0))] = 0.0
    assert check_certificate(boxed(A, rel, b, lo, hi), ray)


def test_a_root_proof_clips_wrong_sign_ray_entries(monkeypatch):
    # x + y >= 3 empties the box [0, 1]^2; the ray prices only that row,
    # and a wrong-sign entry on the <= row spoils it as returned
    p = MilpProblem()
    p.add_continuous("x", 0.0, 1.0)
    p.add_continuous("y", 0.0, 1.0)
    p.add_constraint("need", [(1.0, "x"), (1.0, "y")], ">=", 3.0)
    p.add_constraint("spare", [(1.0, "x"), (-1.0, "y")], "<=", 5.0)
    p.seal()
    solve = _DualSimplex.solve

    def wrong_sign(self, lo, hi, deadline):
        res = solve(self, lo, hi, deadline)
        assert res.ray[1] == 0.0
        res.ray[1] = 0.5
        assert not check_certificate(p, res.ray, FEAS_TOL)
        return res

    monkeypatch.setattr(_DualSimplex, "solve", wrong_sign)
    res = solve_milp(p)
    assert res.status == INFEASIBLE and res.nodes == 1
    assert res.certificate is not None and res.certificate[1] == 0.0
    assert check_certificate(p, res.certificate)


@pytest.fixture(scope="module")
def radiant_window() -> MilpProblem:
    system, fault = builtin_pair("radiant")
    trace = inject_persistent_fault(system, fault, onset=15, total=20, seed=0)
    return encode_invalidation(system, trace.window(2, 6)).problem.seal()


class TestTimeLimitInsideLp:
    def test_expired_deadline_stops_before_the_first_pivot(self, radiant_window):
        A, rel, b, lo, hi, _, _ = radiant_window.to_arrays()
        engine = _DualSimplex(A, rel, b)
        with pytest.raises(_OutOfTime):
            engine.solve(lo, hi, time.perf_counter() - 1.0)
        assert engine.iterations == 0

    def test_radiant_window_stops_within_a_pivot_of_the_limit(
            self, radiant_window, monkeypatch):
        # A clock that advances one tick per reading makes the solver's own
        # readings its unit of time; the pivot loop reads it once per pivot.
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        root = solve_milp(radiant_window, SolverConfig(node_limit=1))
        limit = 10.0
        assert root.lp_iterations > 2 * limit
        res = solve_milp(radiant_window, SolverConfig(time_limit=limit))
        assert res.status == BUDGET_EXCEEDED
        # a limit checked only between nodes would finish the root LP first
        assert res.lp_iterations < limit
        # the reading that found the limit passed, then the final one
        assert res.wall_time - limit <= 2.0

    @pytest.mark.parametrize("fault", ["time", "numerics"])
    def test_the_solve_after_one_that_raised_starts_from_the_slack_basis(
            self, radiant_window, monkeypatch, fault):
        A, rel, b, lo, hi, _, names = radiant_window.to_arrays()
        m, n = A.shape
        slack = np.arange(n, n + m)
        engine = _DualSimplex(A, rel, b)
        assert engine.solve(lo, hi, None).feasible
        # mode 4 at the first sample: 11 pivots from the root's vertex
        lo4 = lo.copy()
        lo4[names.index("a[4][0]")] = 1.0
        with pytest.MonkeyPatch.context() as mp:
            if fault == "time":
                # one clock reading per pivot: the solve stops after 6
                ticks = itertools.count()
                mp.setattr(solver, "time", SimpleNamespace(
                    perf_counter=lambda: float(next(ticks))))
                with pytest.raises(_OutOfTime):
                    engine.solve(lo4, hi, 5.0)
            else:
                # the pivot cap stops both the warm and the slack start
                mp.setattr(engine, "max_iter", 5)
                with pytest.raises(SolverNumericalError, match="slack basis"):
                    engine.solve(lo4, hi, None)
        assert not np.array_equal(engine.basis, slack)
        iterate, starts = _DualSimplex._iterate, []

        def recording(self, deadline):
            starts.append(self.basis.copy())
            return iterate(self, deadline)

        monkeypatch.setattr(_DualSimplex, "_iterate", recording)
        before = engine.iterations
        res = engine.solve(lo, hi, None)
        np.testing.assert_array_equal(starts[0], slack)
        fresh = _DualSimplex(A, rel, b)
        cold = fresh.solve(lo, hi, None)
        assert res.feasible and np.array_equal(res.x, cold.x)
        assert engine.iterations - before == fresh.iterations > 0


UNIT_INPUTS = RandomPolicy(input_box=HyperRectangle([-1.0], [1.0]))


@pytest.fixture
def recorded(monkeypatch):
    """The boxes handed to presolve and the LP relaxations, in call order."""
    boxes, relaxations = [], []
    run, solve = solver._Presolver.run, solver._DualSimplex.solve

    def recording_run(self, lo, hi, tol):
        boxes.append((lo.copy(), hi.copy()))
        return run(self, lo, hi, tol)

    def recording_solve(self, lo, hi, deadline):
        res = solve(self, lo, hi, deadline)
        relaxations.append(res)
        return res

    monkeypatch.setattr(solver._Presolver, "run", recording_run)
    monkeypatch.setattr(solver._DualSimplex, "solve", recording_solve)
    return SimpleNamespace(boxes=boxes, relaxations=relaxations)


class TestBranchingRule:
    def test_first_split_fixes_the_group_of_the_earliest_fractional_binary(
            self, recorded):
        model = numeric_family(3)
        traj, _ = simulate_random(model, seed=0, steps=4, policy=UNIT_INPUTS)
        enc = encode_invalidation(model, traj)
        p = enc.problem.seal()
        res = solve_milp(p, SolverConfig(node_limit=2))
        assert res.status == BUDGET_EXCEEDED
        col = {name: j for j, name in enumerate(p.sparse_arrays()[8])}
        step_of = {col[name]: key[2] for key, name in enc.var_index.items()
                   if key[0] == "a"}
        bins = np.array(sorted(step_of))
        x = recorded.relaxations[0].x[bins]
        frac = np.abs(x - np.round(x))
        earliest = bins[np.argmax(frac > INT_TOL)]
        most = bins[np.argmax(frac)]
        # the old most-fractional rule would split a later step
        assert step_of[most] > step_of[earliest]
        # the first box after the root with an open binary is its first child
        root_lo, root_hi = recorded.boxes[0]
        child_lo, child_hi = next((lo, hi) for lo, hi in recorded.boxes[1:]
                                  if np.any(hi[bins] - lo[bins] > 0.5))
        moved = {int(j) for j in bins
                 if (child_lo[j], child_hi[j]) != (root_lo[j], root_hi[j])}
        group = {j for j, k in step_of.items() if k == step_of[earliest]}
        assert moved == group

    def test_fractional_fixed_binaries_fall_back_to_the_first_open_one(
            self, recorded, monkeypatch):
        # b0 is fixed to 0 by its row; the LP reports it fractional anyway
        p = MilpProblem()
        for name in ("b0", "b1", "b2"):
            p.add_binary(name)
        p.add_constraint("cap", [(1.0, "b0")], "<=", 0.0)
        p.add_constraint("some", [(1.0, "b1"), (1.0, "b2")], "<=", 2.0)
        p.seal()
        solve = solver._DualSimplex.solve

        def fractional_fixed(self, lo, hi, deadline):
            res = solve(self, lo, hi, deadline)
            if res.feasible and hi[0] - lo[0] < 0.5:
                res.x[0] = lo[0] + 0.7
            return res

        monkeypatch.setattr(solver._DualSimplex, "solve", fractional_fixed)
        res = solve_milp(p, SolverConfig(node_limit=2))
        assert res.status == BUDGET_EXCEEDED
        # the root, then the 1-child of b1
        lo, hi = recorded.boxes[1]
        assert (lo.tolist(), hi.tolist()) == ([0, 1, 0], [0, 1, 1])


class TestHardWindows:
    """numeric3 windows of 10 and 15 transitions, one drawn from numeric3
    and one from numeric6 per length.  Under most-fractional branching the
    N=15 ones stayed undecided after thousands of nodes; branching in time
    order decides them in 67 and 120."""

    def test_fifteen_transition_windows_are_decided(self):
        rng = random.Random(0)
        windows = {}
        for n in (10, 15):
            for source in (numeric_family(3), numeric_system()):
                windows[n, source.name], _ = simulate_random(
                    source, seed=rng.randrange(2**31), steps=n + 1,
                    policy=UNIT_INPUTS)
        model, budget = numeric_family(3), SolverConfig(node_limit=1000)
        assert check_invalidation(model, windows[15, "numeric3"],
                                  config=budget).verdict == CONSISTENT
        assert check_invalidation(model, windows[15, "numeric6"],
                                  config=budget).verdict == INVALIDATED
