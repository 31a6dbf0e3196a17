"""Mixed-integer linear feasibility problems (no objective).

A :class:`MilpProblem` collects bounded continuous variables, binary
variables and linear rows, then seals into an immutable instance that the
solver, the LP-format writer and the witness verifier consume.  Also here:

* ``encode_abs_leq`` — the exact big-M transform of ``|x| <= c*|y|``;
* ``export_lp`` / ``parse_lp`` — a deterministic LP-format writer and its
  inverse (17 significant digits, fixed row order, bit-stable);
* ``verify`` — checks a candidate assignment against every row and bound.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "LinearConstraint",
    "MilpProblem",
    "Witness",
    "DuplicateName",
    "BadBounds",
    "BadBigM",
    "UnboundedSet",
    "NotSealed",
    "add_abs_var",
    "bound_by_abs",
    "encode_abs_leq",
    "export_lp",
    "parse_lp",
    "verify",
]

FEAS_TOL = 1e-6
INT_TOL = 1e-6


class DuplicateName(ValueError):
    """A variable or row name was added twice."""


class BadBounds(ValueError):
    """Lower bound exceeds upper bound, or a bound is NaN."""


class BadBigM(ValueError):
    """A big-M constant is too small for the bounds it must dominate."""


class UnboundedSet(ValueError):
    """A big-M constant was requested but an admissible set is unbounded."""


class NotSealed(RuntimeError):
    """The operation requires a sealed problem."""


LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sum(coef * var) relation rhs."""

    name: str
    terms: tuple[tuple[float, str], ...]
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")


@dataclass(frozen=True)
class Witness:
    """A candidate assignment, variable name -> value."""

    assignment: Mapping[str, float]

    def __getitem__(self, name: str) -> float:
        return self.assignment[name]

    def get(self, name: str, default: float = 0.0) -> float:
        return self.assignment.get(name, default)


class MilpProblem:
    """Feasibility problem builder; ``seal()`` freezes it for solving/export."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._var_index: dict[str, int] = {}
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._rows: list[LinearConstraint] = []
        self._row_names: set[str] = set()
        self.sealed = False

    # -- construction -----------------------------------------------------

    def add_continuous(self, name: str, lower: float, upper: float) -> str:
        if self.sealed:
            raise NotSealed("cannot add variables to a sealed problem")
        if name in self._var_index:
            raise DuplicateName(f"variable {name!r} already exists")
        lower, upper = float(lower), float(upper)
        if math.isnan(lower) or math.isnan(upper) or lower > upper:
            raise BadBounds(f"bad bounds [{lower}, {upper}] for {name!r}")
        self._var_index[name] = len(self._lower)
        self._lower.append(lower)
        self._upper.append(upper)
        self._binary.append(False)
        return name

    def add_binary(self, name: str) -> str:
        if self.sealed:
            raise NotSealed("cannot add variables to a sealed problem")
        if name in self._var_index:
            raise DuplicateName(f"variable {name!r} already exists")
        self._var_index[name] = len(self._lower)
        self._lower.append(0.0)
        self._upper.append(1.0)
        self._binary.append(True)
        return name

    def add_constraint(self, name: str, terms: Iterable[tuple[float, str]],
                       relation: str, rhs: float) -> None:
        if self.sealed:
            raise NotSealed("cannot add rows to a sealed problem")
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

    def seal(self) -> "MilpProblem":
        self.sealed = True
        return self

    # -- views -------------------------------------------------------------

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._var_index)

    @property
    def continuous_vars(self) -> tuple[tuple[str, float, float], ...]:
        return tuple((n, self._lower[i], self._upper[i])
                     for n, i in self._var_index.items() if not self._binary[i])

    @property
    def binary_vars(self) -> tuple[str, ...]:
        return tuple(n for n, i in self._var_index.items() if self._binary[i])

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._rows)

    @property
    def n_vars(self) -> int:
        return len(self._lower)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def index_of(self, name: str) -> int:
        return self._var_index[name]

    def bounds_of(self, name: str) -> tuple[float, float]:
        i = self._var_index[name]
        return self._lower[i], self._upper[i]

    def is_binary(self, name: str) -> bool:
        return self._binary[self._var_index[name]]

    def to_arrays(self):
        """Dense (A, relations, b, lower, upper, binary_mask, var_names)."""
        if not self.sealed:
            raise NotSealed("seal the problem before converting to arrays")
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


def add_abs_var(p: MilpProblem, y: str, big_m: float,
                tag: str | None = None) -> tuple[str, str]:
    """Add z = |y| exactly, via one fresh binary b; returns (z, b).

        0 <= z - y <= M (1 - b),   0 <= z + y <= M b

    pins (b = 1, z = y >= 0) or (b = 0, z = -y >= 0).  ``big_m`` must be at
    least twice the largest |y| the bounds allow (BadBigM otherwise).  One
    (z, b) pair can serve every occurrence of |y| in the problem.
    """
    lo, hi = p.bounds_of(y)
    sup_abs_y = max(abs(lo), abs(hi))
    if not math.isfinite(sup_abs_y):
        raise UnboundedSet(f"variable {y!r} must be bounded for the abs transform")
    if big_m < 2.0 * sup_abs_y:
        raise BadBigM(f"big-M {big_m} < 2 sup|{y}| = {2.0 * sup_abs_y}")
    tag = tag or f"abs[{y}]"
    z = p.add_continuous(f"{tag}.z", 0.0, sup_abs_y)
    b = p.add_binary(f"{tag}.b")
    p.add_constraint(f"{tag}.zge", [(1.0, z), (-1.0, y)], GE, 0.0)
    p.add_constraint(f"{tag}.zub", [(1.0, z), (-1.0, y), (big_m, b)], LE, big_m)
    p.add_constraint(f"{tag}.nge", [(1.0, z), (1.0, y)], GE, 0.0)
    p.add_constraint(f"{tag}.nub", [(1.0, z), (1.0, y), (-big_m, b)], LE, 0.0)
    return z, b


def bound_by_abs(p: MilpProblem, x: str, c: float, z: str) -> None:
    """Add -c z <= x <= c z for an existing z = |y| variable."""
    if c < 0:
        raise ValueError("the factor c must be nonnegative")
    p.add_constraint(f"{z}.ub[{x}]", [(1.0, x), (-c, z)], LE, 0.0)
    p.add_constraint(f"{z}.lb[{x}]", [(1.0, x), (c, z)], GE, 0.0)


def encode_abs_leq(p: MilpProblem, x: str, c: float, y: str, big_m: float,
                   tag: str | None = None) -> tuple[str, str]:
    """Add rows enforcing |x| <= c * |y| exactly; returns the (z, b) pair."""
    z, b = add_abs_var(p, y, big_m, tag)
    bound_by_abs(p, x, c, z)
    return z, b


# -- LP-format export ------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _term_str(coef: float, var: str, first: bool) -> str:
    mag = _fmt(abs(coef))
    if first:
        return f"-{mag} {var}" if coef < 0 else f"{mag} {var}"
    return f"- {mag} {var}" if coef < 0 else f"+ {mag} {var}"


def export_lp(p: MilpProblem) -> str:
    """Serialize as LP-format text: `min 0` objective, rows, bounds, binaries.

    Deterministic: rows in insertion order, bounds in declaration order,
    numerals with 17 significant digits, so identical problems produce
    byte-identical files.
    """
    if not p.sealed:
        raise NotSealed("seal the problem before exporting")
    out = io.StringIO()
    out.write(f"\\ {p.name}\n")
    out.write("Minimize\n obj: 0\n")
    out.write("Subject To\n")
    for row in p.constraints:
        parts = [_term_str(c, v, i == 0) for i, (c, v) in enumerate(row.terms)]
        out.write(f" {row.name}: {' '.join(parts)} {row.relation} {_fmt(row.rhs)}\n")
    out.write("Bounds\n")
    for name in p.variable_names:
        if p.is_binary(name):
            continue
        lo, hi = p.bounds_of(name)
        lo_s = "-inf" if math.isinf(lo) and lo < 0 else _fmt(lo)
        hi_s = "+inf" if math.isinf(hi) and hi > 0 else _fmt(hi)
        out.write(f" {lo_s} <= {name} <= {hi_s}\n")
    binaries = [n for n in p.variable_names if p.is_binary(n)]
    if binaries:
        out.write("Binary\n")
        for name in binaries:
            out.write(f" {name}\n")
    out.write("End\n")
    return out.getvalue()


_SECTION_RE = re.compile(
    r"^(minimize|maximize|subject to|st|s\.t\.|bounds|binary|binaries|bin|general|end)$",
    re.IGNORECASE)
_TOKEN_RE = re.compile(r"(<=|>=|=|\+|-)|([A-Za-z_][^\s+\-<>=]*)|"
                       r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)|(\S)")


def parse_lp(text: str) -> MilpProblem:
    """Parse the subset of LP format produced by :func:`export_lp`."""
    p = MilpProblem()
    section = None
    pending_bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    rows: list[tuple[str, list[tuple[float, str]], str, float]] = []
    order: list[str] = []
    seen: set[str] = set()

    def note_var(name: str):
        if name not in seen:
            seen.add(name)
            order.append(name)

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        if _SECTION_RE.match(line):
            section = line.lower()
            continue
        if section in ("minimize", "maximize"):
            continue  # objective is always zero for feasibility problems
        if section in ("subject to", "st", "s.t."):
            name, _, body = line.partition(":")
            name = name.strip()
            terms: list[tuple[float, str]] = []
            relation = None
            rhs = 0.0
            sign = 1.0
            coef: float | None = None
            for m in _TOKEN_RE.finditer(body):
                op, var, num, junk = m.groups()
                if junk:
                    raise ValueError(f"cannot parse row {name!r}: {junk!r}")
                if op in ("<=", ">=", "="):
                    relation = op
                    sign, coef = 1.0, None
                elif op == "+":
                    pass
                elif op == "-":
                    sign = -sign
                elif num is not None:
                    if relation is None:
                        coef = sign * float(num)
                        sign = 1.0
                    else:
                        rhs = sign * float(num)
                        sign = 1.0
                elif var is not None:
                    value = sign * (1.0 if coef is None else coef)
                    terms.append((value, var))
                    note_var(var)
                    sign, coef = 1.0, None
            if relation is None:
                raise ValueError(f"row {name!r} has no relation")
            rows.append((name, terms, relation, rhs))
        elif section == "bounds":
            m = re.match(r"^(\S+)\s*<=\s*([A-Za-z_]\S*)\s*<=\s*(\S+)$", line)
            if m:
                lo_s, name, hi_s = m.groups()
                lo = -math.inf if lo_s.lstrip("+-").lower() == "inf" else float(lo_s)
                hi = math.inf if hi_s.lstrip("+-").lower() == "inf" else float(hi_s)
                pending_bounds[name] = (lo, hi)
                note_var(name)
                continue
            m = re.match(r"^([A-Za-z_]\S*)\s+free$", line, re.IGNORECASE)
            if m:
                pending_bounds[m.group(1)] = (-math.inf, math.inf)
                note_var(m.group(1))
                continue
            raise ValueError(f"cannot parse bound line {line!r}")
        elif section in ("binary", "binaries", "bin"):
            for name in line.split():
                binaries.append(name)
                note_var(name)
        elif section == "end":
            break
        else:
            raise ValueError(f"line outside a known section: {line!r}")

    bin_set = set(binaries)
    for name in order:
        if name in bin_set:
            p.add_binary(name)
        else:
            lo, hi = pending_bounds.get(name, (0.0, math.inf))
            p.add_continuous(name, lo, hi)
    for name, terms, relation, rhs in rows:
        p.add_constraint(name, terms, relation, rhs)
    return p.seal()


def verify(p: MilpProblem, w: Witness, tol: float = FEAS_TOL,
           int_tol: float = INT_TOL) -> tuple[bool, list[str]]:
    """Check an assignment: every bound, binary integrality and row within tol."""
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
