"""Mixed-integer linear feasibility problems (no objective).

A :class:`MilpProblem` collects bounded continuous variables, binary
variables and linear rows, then seals into an immutable instance that the
solver, the LP-format writer and the witness verifier consume.

The rows are kept in one coordinate (COO) store: the nonzeros
``(row, col, val)`` in row order, with each row's terms in the order they
were first given, plus a relation, a right-hand side and a name per row.
``add_rows`` appends a whole block straight from index arrays (the
encoders emit their row families this way); ``add_constraint`` is its
one-row form by variable name.  ``with_values`` makes a sealed twin of a
sealed problem with new nonzero values and right-hand sides, sharing its
variables, row names and sparsity.  Readers take the nonzeros as they are
(``sparse_arrays``), scatter them into a dense matrix once
(``to_arrays``), or rebuild :class:`LinearConstraint` records on demand
(``constraints``, for the LP writer and tests).  Also here:

* ``export_lp`` / ``parse_lp`` — a deterministic LP-format writer and its
  inverse (17 significant digits, fixed row order, bit-stable);
* ``verify`` — checks a candidate assignment against every row and bound,
  reading the nonzeros.
"""

from __future__ import annotations

import copy
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
    "UnboundedSet",
    "NotSealed",
    "export_lp",
    "parse_lp",
    "verify",
]

FEAS_TOL = 1e-6
INT_TOL = 1e-6
#: the row and bound slack a solver's witness may show under ``verify``
WITNESS_TOL = 10 * FEAS_TOL


class DuplicateName(ValueError):
    """A variable or row name was added twice."""


class BadBounds(ValueError):
    """Lower bound exceeds upper bound, or a bound is NaN."""


class UnboundedSet(ValueError):
    """A big-M constant was requested but an admissible set is unbounded."""


class NotSealed(RuntimeError):
    """The operation requires a sealed problem."""


LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
_RELATION_SET = frozenset(_RELATIONS)


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
    """Feasibility problem builder; ``seal()`` freezes it for solving/export.

    The rows live in one coordinate store: the nonzeros ``(row, col, val)``
    in row order, each row's terms in the order they were first given, plus
    one relation, right-hand side and name per row.  :meth:`add_rows`
    appends a block of rows straight from index arrays; :meth:`add_constraint`
    is its one-row form by variable name.  :meth:`sparse_arrays` hands the
    store out, :meth:`to_arrays` scatters it into a dense matrix, and
    :attr:`constraints` rebuilds the per-row view on demand.

    Problems made by :meth:`with_values` share their variable and row-name
    tables with their source; both are sealed, so neither can change them.
    """

    def __init__(self, name: str = "problem"):
        self.name = name
        self._var_index: dict[str, int] = {}
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._row_names: list[str] = []
        self._row_name_set: set[str] = set()
        self._blocks: list[tuple[np.ndarray, ...]] = []  # (row, col, val, rel, rhs)
        self._packed: tuple | None = None
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
        self._packed = None
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
        self._packed = None
        return name

    def add_rows(self, names, rows, cols, vals, relations, rhs) -> None:
        """Append a block of rows given by their nonzeros.

        ``names``, ``relations`` and ``rhs`` hold one entry per row of the
        block; entry e of ``rows``/``cols``/``vals`` adds ``vals[e]`` times
        variable ``cols[e]`` (an index, see :meth:`index_of`) to block row
        ``rows[e]``.  Names must be new and distinct and columns must exist.
        Zero coefficients are dropped, and repeated (row, col) entries are
        summed in the order given, at the place of the first.  A row left
        without terms is dropped when ``0 relation rhs`` holds and rejected
        with BadBounds otherwise.
        """
        if self.sealed:
            raise NotSealed("cannot add rows to a sealed problem")
        names = list(names)
        n_block, n_vars = len(names), len(self._lower)
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        rel = np.asarray(relations)
        rhs = np.array(rhs, dtype=float)   # a copy: the store freezes it
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("rows, cols and vals must have the same length")
        if rel.shape != (n_block,) or rhs.shape != (n_block,):
            raise ValueError("give one relation and one rhs per row name")
        if not _RELATION_SET.issuperset(rel.tolist()):
            raise ValueError(f"relation must be one of {_RELATIONS}")
        if len(set(names)) < n_block or not self._row_name_set.isdisjoint(names):
            seen = set(self._row_name_set)
            for name in names:
                if name in seen:
                    raise DuplicateName(f"row {name!r} already exists")
                seen.add(name)
        if rows.size and (rows.min() < 0 or rows.max() >= n_block):
            raise ValueError("a row index lies outside the block")
        if cols.size and (cols.min() < 0 or cols.max() >= n_vars):
            e = int(np.argmax((cols < 0) | (cols >= n_vars)))
            raise KeyError(f"row {names[rows[e]]!r} references unknown "
                           f"variable index {int(cols[e])}")

        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        key = rows * n_vars + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeated = key[1:] == key[:-1]
        if repeated.any():
            # sum each (row, col) in the order given, at its first place
            first = np.concatenate([[True], ~repeated])
            sums = np.zeros(int(first.sum()))
            np.add.at(sums, np.cumsum(first) - 1, vals[order])
            at = order[first]
            by_place = np.argsort(at)
            rows, cols, vals = rows[at][by_place], cols[at][by_place], sums[by_place]
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if (rows[1:] < rows[:-1]).any():
            order = np.argsort(rows, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]

        kept = np.bincount(rows, minlength=n_block) > 0
        if not kept.all():
            # degenerate rows: drop if trivially true, reject otherwise
            for r in np.flatnonzero(~kept):
                ok = {LE: 0.0 <= rhs[r], EQ: rhs[r] == 0.0, GE: 0.0 >= rhs[r]}[rel[r]]
                if not ok:
                    raise BadBounds(f"row {names[r]!r} has no terms and is "
                                    "unsatisfiable")
            rows = (np.cumsum(kept) - 1)[rows]
            names = [name for name, k in zip(names, kept) if k]
            rel, rhs = rel[kept], rhs[kept]
        self._blocks.append((rows + len(self._row_names), cols, vals,
                             rel.astype("U2"), rhs))
        self._row_names.extend(names)
        self._row_name_set.update(names)
        self._packed = None

    def add_constraint(self, name: str, terms: Iterable[tuple[float, str]],
                       relation: str, rhs: float) -> None:
        """Add one row ``sum(coef * var) relation rhs`` (see :meth:`add_rows`)."""
        coefs, cols = [], []
        for coef, var in terms:
            if var not in self._var_index:
                raise KeyError(f"row {name!r} references unknown variable {var!r}")
            coefs.append(coef)
            cols.append(self._var_index[var])
        self.add_rows([name], np.zeros(len(cols), dtype=np.intp), cols, coefs,
                      [relation], [rhs])

    def with_values(self, vals, rhs) -> "MilpProblem":
        """A sealed twin with the nonzero values ``vals`` and the right-hand
        sides ``rhs``, both in the order of :meth:`sparse_arrays`;
        everything else, the sparsity included, is this problem's.  Twin
        and source share their tables, so the source must be sealed."""
        if not self.sealed:
            raise NotSealed("seal the problem before making twins of it")
        row, col, val, rel, b, *rest = self.sparse_arrays()
        vals = np.asarray(vals, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if vals.shape != val.shape or rhs.shape != b.shape:
            raise ValueError("give one value per nonzero and one rhs per row")
        vals.flags.writeable = rhs.flags.writeable = False
        twin = copy.copy(self)
        twin._blocks = [(row, col, vals, rel, rhs)]
        twin._packed = (row, col, vals, rel, rhs, *rest)
        return twin

    def seal(self) -> "MilpProblem":
        self.sealed = True
        return self

    # -- views -------------------------------------------------------------

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._var_index)

    @property
    def binary_vars(self) -> tuple[str, ...]:
        return tuple(n for n, i in self._var_index.items() if self._binary[i])

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as LinearConstraint records, rebuilt from the store."""
        row, col, val, rel, rhs = self.sparse_arrays()[:5]
        names = tuple(self._var_index)
        ends = np.searchsorted(row, np.arange(1, len(rel) + 1)).tolist()
        val, col = val.tolist(), col.tolist()
        out, start = [], 0
        for name, end, relation, b in zip(self._row_names, ends, rel.tolist(),
                                          rhs.tolist()):
            terms = tuple((val[e], names[col[e]]) for e in range(start, end))
            out.append(LinearConstraint(name, terms, relation, b))
            start = end
        return tuple(out)

    @property
    def n_vars(self) -> int:
        return len(self._lower)

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    def index_of(self, name: str) -> int:
        return self._var_index[name]

    def bounds_of(self, name: str) -> tuple[float, float]:
        i = self._var_index[name]
        return self._lower[i], self._upper[i]

    def is_binary(self, name: str) -> bool:
        return self._binary[self._var_index[name]]

    def sparse_arrays(self):
        """(row, col, val, relations, b, lower, upper, binary_mask, var_names).

        ``row``/``col``/``val`` are the nonzeros in row order, each row's
        terms in insertion order; the arrays are shared and read-only.
        """
        if self._packed is None:
            blocks = self._blocks or [(np.zeros(0, np.intp), np.zeros(0, np.intp),
                                       np.zeros(0), np.zeros(0, "U2"), np.zeros(0))]
            if len(blocks) > 1:
                self._blocks = [tuple(np.concatenate(part) for part in zip(*blocks))]
                blocks = self._blocks
            arrays = blocks[0] + (np.array(self._lower), np.array(self._upper),
                                  np.array(self._binary, dtype=bool))
            for a in arrays:
                a.flags.writeable = False
            self._packed = arrays + (tuple(self._var_index),)
        return self._packed

    def to_arrays(self):
        """Dense (A, relations, b, lower, upper, binary_mask, var_names)."""
        if not self.sealed:
            raise NotSealed("seal the problem before converting to arrays")
        row, col, val, rel, b, lo, hi, binary, names = self.sparse_arrays()
        A = np.zeros((len(rel), len(lo)))
        A[row, col] = val
        return A, rel.copy(), b.copy(), lo.copy(), hi.copy(), binary.copy(), names


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
    p.add_rows([name for name, _, _, _ in rows],
               [r for r, (_, terms, _, _) in enumerate(rows) for _ in terms],
               [p.index_of(v) for _, terms, _, _ in rows for _, v in terms],
               [c for _, terms, _, _ in rows for c, _ in terms],
               [relation for _, _, relation, _ in rows],
               [rhs for _, _, _, rhs in rows])
    return p.seal()


def verify(p: MilpProblem, w: Witness, tol: float = FEAS_TOL,
           int_tol: float = INT_TOL) -> tuple[bool, list[str]]:
    """Check an assignment: every value finite, every bound, binary
    integrality and row within tol.

    Violations are listed per variable first, in variable order, then rows
    in row order.  A missing value counts as 0 in the rows.
    """
    row, col, val, rel, b, lo, hi, binary, names = p.sparse_arrays()
    values = w.assignment
    x = np.fromiter((values.get(name, math.nan) for name in names),
                    dtype=float, count=len(names))
    missing = np.isnan(x)
    for j in np.flatnonzero(missing):
        missing[j] = names[j] not in values
    x[missing] = 0.0
    nonfinite = ~np.isfinite(x)
    with np.errstate(invalid="ignore"):
        outside = (x < lo - tol) | (x > hi + tol)
        fractional = binary & (np.minimum(np.abs(x), np.abs(x - 1.0)) > int_tol)
        # a row's activity accumulates its terms in order, as a loop would
        lhs = np.bincount(row, val * x[col], minlength=len(b))
        above = (rel == LE) & (lhs > b + tol)
        below = (rel == GE) & (lhs < b - tol)
        off = (rel == EQ) & (np.abs(lhs - b) > tol)
    violations: list[str] = []
    for j in np.flatnonzero(missing | nonfinite | outside | fractional):
        name = names[j]
        if missing[j]:
            violations.append(f"missing value for {name}")
            continue
        if nonfinite[j]:
            violations.append(f"{name} = {values[name]} is not finite")
            continue
        if outside[j]:
            violations.append(f"{name} = {values[name]} outside "
                              f"[{float(lo[j])}, {float(hi[j])}]")
        if fractional[j]:
            violations.append(f"{name} = {values[name]} is not integral")
    for r in np.flatnonzero(above | below | off):
        sign = ">" if above[r] else "<" if below[r] else "!="
        violations.append(f"{p._row_names[r]}: {float(lhs[r])} {sign} {float(b[r])}")
    return not violations, violations
