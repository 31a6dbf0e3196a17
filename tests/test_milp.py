"""Tests for the MILP feasibility container, the encodings' big-M
derivation, LP-format round trip and witness verification.

Big-M oracles are hand-computed interval bounds.  The encoder's abs-value
transform is tested in ``test_encoder.py`` (``TestAbsCache``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swainval.milp import (
    FEAS_TOL,
    BadBounds,
    DuplicateName,
    LinearConstraint,
    MilpProblem,
    NotSealed,
    UnboundedSet,
    Witness,
    export_lp,
    parse_lp,
    verify,
)
from swainval.encoder import encode_invalidation, encode_t_detectability
from oracles import RowByRowProblem, largest_big_m, verify_by_rows
from swainval.model import (AffineMode, HyperRectangle, SwitchedAffineModel,
                            Trajectory)


def scalar_model(a=0.5, b=1.0, c=2.0, f=1.0, x_bound=10.0, noise=0.5, u_bound=2.0):
    mode = AffineMode.certain([[a]], [[b]], [[c]], [f])
    return SwitchedAffineModel([mode], HyperRectangle.ball(x_bound, 1),
                               HyperRectangle.ball(noise, 1),
                               HyperRectangle.ball(u_bound, 1))


class TestProblemBuilding:
    def test_variables_and_rows(self):
        p = MilpProblem("toy")
        p.add_continuous("x", -1.0, 2.0)
        p.add_binary("b")
        p.add_constraint("r1", [(1.0, "x"), (3.0, "b")], "<=", 2.0)
        p.seal()
        assert p.n_vars == 2 and p.n_rows == 1
        assert p.bounds_of("x") == (-1.0, 2.0)
        assert p.is_binary("b") and not p.is_binary("x")
        assert p.binary_vars == ("b",)

    def test_duplicate_names(self):
        p = MilpProblem()
        p.add_continuous("x", 0, 1)
        with pytest.raises(DuplicateName):
            p.add_continuous("x", 0, 1)
        with pytest.raises(DuplicateName):
            p.add_binary("x")
        p.add_constraint("r", [(1.0, "x")], "<=", 1.0)
        with pytest.raises(DuplicateName):
            p.add_constraint("r", [(1.0, "x")], ">=", 0.0)

    def test_bad_bounds(self):
        p = MilpProblem()
        with pytest.raises(BadBounds):
            p.add_continuous("x", 1.0, 0.0)
        with pytest.raises(BadBounds):
            p.add_continuous("y", math.nan, 1.0)

    def test_term_merging_and_degenerate_rows(self):
        p = MilpProblem()
        p.add_continuous("x", 0, 1)
        p.add_constraint("merge", [(1.0, "x"), (2.0, "x")], "<=", 5.0)
        assert p.constraints[-1].terms == ((3.0, "x"),)
        # cancelling terms leave 0 <= 5: trivially true, row dropped
        p.add_constraint("cancel", [(1.0, "x"), (-1.0, "x")], "<=", 5.0)
        assert p.n_rows == 1
        with pytest.raises(BadBounds):
            p.add_constraint("impossible", [(1.0, "x"), (-1.0, "x")], "<=", -1.0)
        with pytest.raises(KeyError):
            p.add_constraint("unknown", [(1.0, "nope")], "<=", 0.0)

    def test_sealing(self):
        p = MilpProblem()
        p.add_continuous("x", 0, 1)
        with pytest.raises(NotSealed):
            p.to_arrays()
        p.seal()
        with pytest.raises(NotSealed):
            p.add_continuous("y", 0, 1)
        with pytest.raises(NotSealed):
            p.add_constraint("r", [(1.0, "x")], "<=", 1.0)

    def test_to_arrays(self):
        p = MilpProblem()
        p.add_continuous("x", -2.0, 2.0)
        p.add_binary("b")
        p.add_constraint("r1", [(1.0, "x"), (-4.0, "b")], "<=", 0.0)
        p.add_constraint("r2", [(1.0, "x")], "=", 1.0)
        p.seal()
        A, rel, b, lo, hi, binmask, names = p.to_arrays()
        np.testing.assert_array_equal(A, [[1.0, -4.0], [1.0, 0.0]])
        assert list(rel) == ["<=", "="]
        np.testing.assert_array_equal(b, [0.0, 1.0])
        np.testing.assert_array_equal(lo, [-2.0, 0.0])
        np.testing.assert_array_equal(hi, [2.0, 1.0])
        np.testing.assert_array_equal(binmask, [False, True])
        assert names == ("x", "b")


class TestRowStore:
    """``add_rows``, the block entry point behind ``add_constraint``."""

    def problem(self) -> MilpProblem:
        p = MilpProblem()
        for name in ("x", "y", "z"):
            p.add_continuous(name, -1.0, 1.0)
        return p

    def test_block_rows_in_order(self):
        p = self.problem()
        # entries may come in any order; each row keeps its own term order
        p.add_rows(["r0", "r1"], [1, 0, 1, 0], [2, 1, 0, 0],
                   [3.0, -1.0, 4.0, 2.0], ["<=", ">="], [1.0, -2.0])
        assert p.constraints == (
            LinearConstraint("r0", ((-1.0, "y"), (2.0, "x")), "<=", 1.0),
            LinearConstraint("r1", ((3.0, "z"), (4.0, "x")), ">=", -2.0))
        row, col, val, rel, b = p.sparse_arrays()[:5]
        assert row.tolist() == [0, 0, 1, 1] and col.tolist() == [1, 0, 2, 0]
        assert rel.tolist() == ["<=", ">="] and b.tolist() == [1.0, -2.0]
        with pytest.raises(ValueError):
            row[0] = 1   # the store is shared read-only

    def test_repeats_are_summed_in_order_at_the_first_place(self):
        p = self.problem()
        p.add_rows(["r"], [0, 0, 0, 0, 0], [2, 1, 2, 0, 2],
                   [0.1, 1.0, 0.2, 0.0, 0.3], ["="], [0.0])
        (row,) = p.constraints
        assert row.terms == (((0.1 + 0.2) + 0.3, "z"), (1.0, "y"))
        # a variable whose terms cancel leaves the row
        p.add_rows(["s"], [0, 0, 0], [0, 1, 0], [2.0, 1.0, -2.0], ["<="], [1.0])
        assert p.constraints[-1].terms == ((1.0, "y"),)

    def test_empty_rows_are_dropped_or_rejected(self):
        p = self.problem()
        p.add_rows(["holds", "kept", "cancels"], [1, 2, 2], [0, 1, 1],
                   [1.0, 1.0, -1.0], ["<=", "=", ">="], [0.0, 0.5, 0.0])
        assert [c.name for c in p.constraints] == ["kept"]
        assert p.n_rows == 1
        p.add_constraint("holds", [], "=", 0.0)   # dropped rows leave no name
        with pytest.raises(BadBounds):
            p.add_rows(["fine", "never"], [0], [0], [1.0], ["<=", ">="], [1.0, 1.0])
        assert p.n_rows == 1   # a rejected block adds nothing

    def test_checks(self):
        p = self.problem()
        p.add_rows(["r"], [0], [0], [1.0], ["<="], [1.0])
        with pytest.raises(DuplicateName):
            p.add_rows(["s", "r"], [0, 1], [0, 1], [1.0, 1.0], ["<=", "<="], [1.0, 1.0])
        with pytest.raises(DuplicateName):
            p.add_rows(["s", "s"], [0, 1], [0, 1], [1.0, 1.0], ["<=", "<="], [1.0, 1.0])
        with pytest.raises(KeyError):
            p.add_rows(["s"], [0], [3], [1.0], ["<="], [1.0])
        with pytest.raises(ValueError):
            p.add_rows(["s"], [0], [0], [1.0], ["<"], [1.0])
        with pytest.raises(ValueError):
            p.add_rows(["s"], [1], [0], [1.0], ["<="], [1.0])
        assert p.n_rows == 1
        p.seal()
        with pytest.raises(NotSealed):
            p.add_rows(["s"], [0], [0], [1.0], ["<="], [1.0])

    def test_with_values_makes_sealed_twins(self):
        p = self.problem()
        p.add_rows(["r0", "r1"], [0, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0],
                   ["<=", ">="], [1.0, -1.0])
        with pytest.raises(NotSealed):
            p.with_values([4.0, 5.0, 6.0], [7.0, -0.0])
        p.seal()
        q = p.with_values([4.0, 5.0, 6.0], [7.0, -0.0])
        r = p.with_values([8.0, 9.0, 10.0], [11.0, 12.0])
        assert q.sealed and r.sealed
        assert q.constraints == (
            LinearConstraint("r0", ((4.0, "x"), (5.0, "y")), "<=", 7.0),
            LinearConstraint("r1", ((6.0, "z"),), ">=", -0.0))
        # each twin has its own values and rhs, the source keeps its own
        for prob, vals, rhs in ((p, [1.0, 2.0, 3.0], [1.0, -1.0]),
                                (q, [4.0, 5.0, 6.0], [7.0, -0.0]),
                                (r, [8.0, 9.0, 10.0], [11.0, 12.0])):
            _, _, val, _, b = prob.sparse_arrays()[:5]
            assert (val.tolist(), b.tolist()) == (vals, rhs)
            assert np.signbit(b).tolist() == np.signbit(rhs).tolist()
        for prob in (p, q, r):
            with pytest.raises(NotSealed):
                prob.add_continuous("w", 0.0, 1.0)
            with pytest.raises(NotSealed):
                prob.add_binary("b")
            with pytest.raises(NotSealed):
                prob.add_constraint("s", [(1.0, "x")], "<=", 1.0)
            assert prob.variable_names == ("x", "y", "z")
            assert prob.n_rows == 2
        with pytest.raises(ValueError):
            p.with_values([1.0], [1.0, 1.0])


def random_rows(seed: int):
    """The same random calls on a MilpProblem and on the row-by-row
    reference: boxed and binary variables, rows that repeat variables,
    carry zero or cancelling coefficients or end up empty."""
    rng = np.random.default_rng(seed)
    p, ref = MilpProblem("rand"), RowByRowProblem()
    names = []
    for j in range(int(rng.integers(1, 7))):
        if rng.uniform() < 0.3:
            names.append(f"b{j}")
            for q in (p, ref):
                q.add_binary(names[-1])
        else:
            names.append(f"v{j}")
            lo = float(rng.uniform(-5.0, 1.0))
            hi = lo + float(rng.uniform(0.0, 5.0))
            for q in (p, ref):
                q.add_continuous(names[-1], lo, hi)
    coef_pool = np.array([0.0, 0.1, 0.2, 0.3, -0.7, 1.0, -2.5])
    for i in range(int(rng.integers(0, 9))):
        k = int(rng.integers(0, 6))
        coefs = np.where(rng.uniform(size=k) < 0.5, rng.choice(coef_pool, k),
                         rng.uniform(-3.0, 3.0, k))
        terms = [(float(c), str(v)) for c, v in zip(coefs, rng.choice(names, k))]
        if terms and rng.uniform() < 0.3:
            terms.append((-terms[0][0], terms[0][1]))
        relation = ("<=", "=", ">=")[int(rng.integers(3))]
        rhs = float(rng.choice([0.0, 1.5, -1.5]))
        outcomes = []
        for q in (p, ref):
            try:
                q.add_constraint(f"r{i}", terms, relation, rhs)
                outcomes.append(None)
            except BadBounds:
                outcomes.append(BadBounds)
        assert outcomes[0] == outcomes[1]
    return p.seal(), ref


class TestRowStoreAgainstRowByRow:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_to_arrays_matches_the_row_by_row_loop(self, seed):
        p, ref = random_rows(seed)
        got, want = p.to_arrays(), ref.to_arrays()
        for a, b in zip(got[:6], want[:6]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got[6] == want[6]
        assert p.constraints == ref.constraints

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_verify_matches_the_row_by_row_loop(self, seed):
        p, _ = random_rows(seed)
        rng = np.random.default_rng(seed + 1)
        A, rel, b, lo, hi, is_bin, names = p.to_arrays()
        x = rng.uniform(lo - 0.5, hi + 0.5)
        x[is_bin] = rng.choice([0.0, 1.0, 0.5, 1.0 + 5e-7], int(is_bin.sum()))
        values = {name: float(v) for name, v in zip(names, x)
                  if rng.uniform() > 0.1}
        for tol in (FEAS_TOL, 0.3):
            assert verify(p, Witness(values), tol) == \
                verify_by_rows(p, Witness(values), tol)


def gate_coefficient(enc, row: str) -> float:
    """The big-M constant of a gated row pair: its gate binary's coefficient."""
    (r,) = [c for c in enc.problem.constraints if c.name == f"{row}+"]
    return max(coef for coef, var in r.terms if enc.problem.is_binary(var))


class TestBigM:
    """Row constants of the encodings, against hand-computed intervals.

    Each gated row gets 1.05 times the widest residual its expression can
    reach over the reachability envelope; ``largest_big_m`` reads the
    largest of them off the problem."""

    def test_single_model_hand_computed(self):
        model = scalar_model()
        window = Trajectory(np.array([[0.0], [0.0]]), np.array([[0.0], [0.0]]))
        enc = encode_invalidation(model, window)
        # x1 = 0.5 * [-10, 10] + 1 * 0 + 1 = [-4, 6]
        assert enc.problem.bounds_of("x[1][0]") == (
            pytest.approx(-4.0), pytest.approx(6.0))
        # state row: x1 - step spans at most 6 - (-4) = 10
        assert gate_coefficient(enc, "dyn[1][0][0]") == pytest.approx(1.05 * 10.0)
        # one certain mode: the output rows 2 x + eta = y carry no gate
        rows = {c.name: c for c in enc.problem.constraints}
        for k in range(2):
            out = rows[f"out[{k}][0]"]
            assert (out.terms, out.relation, out.rhs) == (
                ((2.0, f"x[{k}][0]"), (1.0, f"eta[{k}][0]")), "=", 0.0)
        assert [name for name in rows if name.startswith("out")] == [
            "out[0][0]", "out[1][0]"]
        assert largest_big_m(enc.problem) == pytest.approx(1.05 * 10.0)

    def test_two_output_maps_keep_gated_output_rows(self):
        # the same dynamics, so the same envelope, but outputs 2 x and x
        model = SwitchedAffineModel(
            [AffineMode.certain([[0.5]], [[1.0]], [[c]], [1.0]) for c in (2.0, 1.0)],
            HyperRectangle.ball(10.0, 1), HyperRectangle.ball(0.5, 1),
            HyperRectangle.ball(2.0, 1))
        window = Trajectory(np.array([[0.0], [0.0]]), np.array([[0.0], [0.0]]))
        enc = encode_invalidation(model, window)
        # |y - c x - eta| <= c * 10 + 0.5 at sample 0, c * 6 + 0.5 at sample 1
        assert gate_coefficient(enc, "out[1][0][0]") == pytest.approx(1.05 * 20.5)
        assert gate_coefficient(enc, "out[1][1][0]") == pytest.approx(1.05 * 12.5)
        assert gate_coefficient(enc, "out[2][0][0]") == pytest.approx(1.05 * 10.5)
        assert gate_coefficient(enc, "out[2][1][0]") == pytest.approx(1.05 * 6.5)
        assert largest_big_m(enc.problem) == pytest.approx(1.05 * 20.5)

    def test_pair_sums_output_bounds(self):
        # the matching row couples both outputs: 2 * 10 + 0.5 and 1 * 10 + 0.5
        enc = encode_t_detectability(scalar_model(), scalar_model(c=1.0), 1)
        assert not enc.collapsed
        assert gate_coefficient(enc, "match[1][1][0][0]") == \
            pytest.approx(1.05 * 31.0)
        assert largest_big_m(enc.problem) == pytest.approx(1.05 * 31.0)

    def test_pair_uses_input_intersection(self):
        a = scalar_model(u_bound=2.0)
        b = scalar_model(u_bound=1.0)
        enc = encode_t_detectability(a, b, 1)
        # intersection U = [-1, 1]: x1 = 0.5 * [-10, 10] + [-1, 1] + 1 = [-5, 7]
        assert (enc.input_set.lower, enc.input_set.upper) == ((-1.0,), (1.0,))
        assert enc.problem.bounds_of("x[1][0]") == (
            pytest.approx(-5.0), pytest.approx(7.0))
        assert gate_coefficient(enc, "dyn[1][0][0]") == pytest.approx(1.05 * 12.0)
        # identical certain outputs collapse to ungated matching rows
        assert enc.collapsed
        assert largest_big_m(enc.problem) == pytest.approx(1.05 * 12.0)

    def test_uncertainty_radii_enter(self):
        mode = AffineMode(A=[[0.5]], B=[[1.0]], C=[[2.0]], f=[1.0],
                          hatA=[[0.1]], hatB=[[0.2]], hatC=[[0.3]], hatf=[0.4])
        model = SwitchedAffineModel([mode], HyperRectangle.ball(10, 1),
                                    HyperRectangle.ball(0.5, 1),
                                    HyperRectangle.ball(2, 1))
        enc = encode_t_detectability(model, model, 1)
        # x1 = 1 +- ((0.5 + 0.1) * 10 + (1 + 0.2) * 2 + 0.4) = [-7.8, 9.8]
        assert enc.problem.bounds_of("x[1][0]") == (
            pytest.approx(-7.8), pytest.approx(9.8))
        assert gate_coefficient(enc, "dyn[1][0][0]") == pytest.approx(1.05 * 17.6)
        # each output within (2 + 0.3) * 10 + 0.5 = 23.5 of zero
        assert gate_coefficient(enc, "match[1][1][0][0]") == \
            pytest.approx(1.05 * 47.0)
        assert largest_big_m(enc.problem) == pytest.approx(1.05 * 47.0)

    def test_unbounded_sets_rejected(self):
        model = SwitchedAffineModel(
            [AffineMode.certain([[1.0]], [[1.0]], [[1.0]], [0.0])],
            HyperRectangle([-math.inf], [math.inf]),
            HyperRectangle.ball(1, 1), HyperRectangle.ball(1, 1))
        window = Trajectory(np.array([[0.0], [0.0]]), np.array([[0.0], [0.0]]))
        with pytest.raises(UnboundedSet):
            encode_invalidation(model, window)
        with pytest.raises(UnboundedSet):
            encode_t_detectability(model, model, 1)
        with pytest.raises(UnboundedSet):
            encode_t_detectability(scalar_model(), model, 1)


def build_round_trip_problem() -> MilpProblem:
    p = MilpProblem("round-trip")
    p.add_continuous("x[0][0]", -1.5, 2.5)
    p.add_continuous("free_var", -math.inf, math.inf)
    p.add_continuous("pinned", 0.25, 0.25)
    p.add_binary("d[0][1][2]")
    p.add_constraint("dyn[0]", [(1.0, "x[0][0]"), (-0.3333333333333333, "free_var"),
                                (21.5, "d[0][1][2]")], "<=", 21.0)
    p.add_constraint("out[0]", [(2.0, "x[0][0]"), (1e-07, "pinned")], "=", 0.5)
    p.add_constraint("low[0]", [(-1.0, "x[0][0]"), (-1.0, "free_var")], ">=", -4.0)
    return p.seal()


class TestLpRoundTrip:
    def test_export_is_deterministic(self):
        p = build_round_trip_problem()
        assert export_lp(p) == export_lp(p)

    def test_round_trip_preserves_everything(self):
        p = build_round_trip_problem()
        q = parse_lp(export_lp(p))
        assert set(q.variable_names) == set(p.variable_names)
        for name in p.variable_names:
            assert q.bounds_of(name) == p.bounds_of(name)
            assert q.is_binary(name) == p.is_binary(name)
        rows_p = {r.name: (dict((v, c) for c, v in r.terms), r.relation, r.rhs)
                  for r in p.constraints}
        rows_q = {r.name: (dict((v, c) for c, v in r.terms), r.relation, r.rhs)
                  for r in q.constraints}
        assert rows_p == rows_q

    def test_double_round_trip_is_stable(self):
        p = build_round_trip_problem()
        text1 = export_lp(parse_lp(export_lp(p)))
        text2 = export_lp(parse_lp(text1))
        assert text1 == text2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False).map(float),
                    min_size=1, max_size=6))
    def test_coefficients_survive_bit_exactly(self, coefs):
        p = MilpProblem()
        for i in range(len(coefs)):
            p.add_continuous(f"v{i}", -10.0, 10.0)
        p.add_constraint("r", [(c, f"v{i}") for i, c in enumerate(coefs) if c != 0.0],
                         "<=", 1.0)
        p.seal()
        q = parse_lp(export_lp(p))
        if p.n_rows:
            got = dict((v, c) for c, v in q.constraints[0].terms)
            for i, c in enumerate(coefs):
                if c != 0.0:
                    assert got[f"v{i}"] == c  # bit-exact through %.17g

    def test_requires_sealed(self):
        p = MilpProblem()
        p.add_continuous("x", 0, 1)
        with pytest.raises(NotSealed):
            export_lp(p)


class TestVerify:
    def test_detects_each_violation_kind(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_binary("b")
        p.add_constraint("le", [(1.0, "x")], "<=", 0.5)
        p.add_constraint("ge", [(1.0, "x"), (1.0, "b")], ">=", 0.5)
        p.add_constraint("eq", [(2.0, "x"), (-1.0, "b")], "=", 0.0)
        p.seal()
        ok, v = verify(p, Witness({"x": 0.5, "b": 1.0}))
        assert ok, v
        assert not verify(p, Witness({"x": 1.5, "b": 1.0}))[0]   # bound
        assert not verify(p, Witness({"x": 0.5, "b": 0.5}))[0]   # integrality
        assert not verify(p, Witness({"x": 0.6, "b": 1.0}))[0]   # <= row (0.6 > 0.5)
        assert not verify(p, Witness({"x": 0.25, "b": 0.0}))[0]  # >= and = rows
        ok, v = verify(p, Witness({"x": 0.5}))
        assert not ok and any("missing" in msg for msg in v)

    def test_tolerance(self):
        p = MilpProblem()
        p.add_continuous("x", 0.0, 1.0)
        p.add_constraint("le", [(1.0, "x")], "<=", 0.5)
        p.seal()
        assert verify(p, Witness({"x": 0.5 + 5e-7}))[0]
        assert not verify(p, Witness({"x": 0.5 + 5e-6}))[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x", "b"])
    def test_non_finite_values_are_violations(self, name, bad):
        # x is free and NaN compares false to every bound and row, so only
        # the finiteness test can catch these values
        p = MilpProblem()
        p.add_continuous("x", -math.inf, math.inf)
        p.add_binary("b")
        p.add_constraint("r", [(1.0, "x"), (1.0, "b")], ">=", 0.5)
        p.seal()
        ok, v = verify(p, Witness({"x": 0.5, "b": 1.0, name: bad}))
        assert not ok and v[0] == f"{name} = {bad} is not finite"
