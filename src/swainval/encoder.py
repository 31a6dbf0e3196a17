"""Mixed-integer encodings of trajectory-consistency questions.

Two builders are provided.  ``encode_invalidation`` turns a switched affine
model plus an observed input-output window into a mixed-integer feasibility
problem whose solutions are exactly the admissible explanations of the data:
a state trajectory inside the state set, a noise sequence inside the noise
set, normalized structured-uncertainty draws in [-1, 1], and a hidden mode
sequence.  Infeasibility means the window invalidates the model.

``encode_t_detectability`` couples two models over a shared, unknown input
sequence and asks whether any length-T behaviour (T transitions, T+1 output
samples) is common to both.  Infeasibility certifies that every window the
second model can generate invalidates the first, which is what makes
receding-horizon monitoring raise an alarm within T steps of a persistent
change.  An optional *indicator* restricts the second model's first W mode
choices to a given word language, for changes that are only detectable when
a particular mode pattern actually occurs.

Naming conventions inside the encodings (mode indices are 1-based, array
indices 0-based):

=====================  =====================================================
``x[k][j]``            state of the first model at sample k, component j
``xb[k][j]``           state of the second model (pair encodings)
``eta[k][q]``          measurement noise, first model
``etab[k][q]``         measurement noise, second model
``u[k][c]``            shared input (pair encodings; data in invalidation)
``a[i][k]``            binary: mode i of the model is active at step k
``d[i][j][k]``         binary: modes (i, j) of the pair are active at step k
``ZA[i][k][r][c]``     product hatA[r,c] * Delta^A[r,c] * x_k[c], mode i
``ZB[i][k][r][c]``     product hatB[r,c] * Delta^B[r,c] * u_k[c], mode i,
                       of the shared or the observed input
``ZC[i][k][q][c]``     product hatC[q,c] * Delta^C[q,c] * x_k[c], mode i
``Df[i][k][r]``        Delta^f itself (the offset uncertainty is not bilinear)
``absx[k][c]``         shared auxiliary |x_k[c]| backing the Z bounds
=====================  =====================================================

Bilinear products Z are linearized exactly with ``|Z| <= hat * |x|`` plus a
one-binary absolute-value encoding of ``|x|`` that is shared by every Z
touching the same component; ``_AbsCache`` writes both.  An observed input
is the point box ``{u_k}``, so its ``ZB`` needs only the bounds
``|Z| <= hatB |u_k|``.

Both builders tighten the relaxation with a conservative reachability
envelope: the state variables of sample k are bounded by the k-step interval
image of the admissible state box (hulled over modes, intersected with the
box, padded by a hair against rounding), and every mode-gated row carries
the smallest big-M constant valid for its own mode, step and row, derived
from the same intervals.  The problem holds each constant as the
coefficient of a mode binary in its gated row.

Each model's part of an encoding is built by one ``_Side``: its envelope,
the big-M of its gated blocks, its state and noise variables, its ``absx``
cache and its ``out``/``dyn`` rows.  A side's role names end in its suffix,
``""`` for the first model and ``"b"`` for the second (``x``/``xb``,
``ZA``/``ZAb``, ``dyn``/``dynb``, ...), and the decoders derive the names
from the same suffix.  A side reads its input as one box per transition:
an invalidation is one side over the data, whose observed inputs are
point boxes; a pair encoding is two sides over the shared input box, whose
``u`` variables both sides read, plus the ``match`` rows that equate their
outputs.  Either way the input's uncertainty enters through ``ZB``
products.  One output rule serves both: when every mode of a side has the
same certain output map C (``hatC = 0``) its output ``C x_k + eta_k``
needs no mode gate, so an invalidation writes ``C x_k + eta_k = y_k`` once
per sample as ungated ``out[k][q]`` rows, and two such sides with the same
C match in ungated ``match[k][q]`` rows.  The last sample's mode then
gates no row at all, and it gets no mode binaries.  Any other model keeps
one gated block per mode, or per mode pair.

Rows are emitted by index, not term by term.  Each mode's ``out``/``dyn``/
``match`` rows come from a template (``_GatedRows``) that holds the sparsity
of A, C, B and hatf as column slots, memoized by the mode's matrices; a
(mode, step) block maps the slots to that step's columns and adds its own
big-M and rhs vectors.  Variables go straight into the ``MilpProblem``, and
each column is recorded as its variable is made.  The rows (these blocks,
the ``mode``/``pair`` rows and the abs-transform rows) wait in one buffer
(``_RowSink``) that enters the problem through a single
``MilpProblem.add_rows`` call.  Rows keep the order in which they are
emitted and each row its term order, so the exported LP text is
byte-stable (``tests/test_golden_lp.py`` pins it).  Indicator rows are
few and are added one by one afterwards.

An invalidation encoding reads its outputs only in the ``out`` rows: their
rhs and, when the outputs are gated, their big-M.  So
``encode_invalidation`` builds everything else once per (model by value,
window length, observed inputs) as a ``_WindowTemplate``, kept in a small
cache, and binds each window by writing its outputs into a copy that
shares the template's tables.  A receding-horizon monitor of a model
without inputs thus builds one template and binds every window from it;
windows with distinct inputs build one each, and pair encodings are built
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .milp import EQ, GE, LE, MilpProblem, UnboundedSet, Witness
from .model import (DimensionError, HyperRectangle, SimulationDraw,
                    SwitchedAffineModel, Trajectory)
from .solver import (FEASIBLE, INFEASIBLE, SolveResult, SolverConfig,
                     SolverSession, solve_milp)

__all__ = [
    "CONSISTENT", "INVALIDATED", "UNDECIDED",
    "InputOutsideAdmissibleSet", "EmptyInputIntersection",
    "WindowTooLong", "BadMode", "BadIndicator",
    "ExplicitWords", "StructuredTuple", "CountBand", "Indicator",
    "prefix_indicator",
    "InvalidationEncoding", "PairEncoding",
    "encode_invalidation", "encode_t_detectability", "apply_indicator",
    "Explanation", "CommonBehavior",
    "decode_invalidation_witness", "decode_pair_witness",
    "InvalidationResult", "check_invalidation",
]

CONSISTENT = "consistent"
INVALIDATED = "invalidated"
UNDECIDED = "undecided"

_TINY = 1e-12


class InputOutsideAdmissibleSet(ValueError):
    """An observed input sample falls outside the model's input set."""

    def __init__(self, k: int, value: np.ndarray):
        super().__init__(f"input sample {k} outside the admissible input set")
        self.k = k
        self.value = np.asarray(value, dtype=float)


class EmptyInputIntersection(ValueError):
    """The two models admit no common input, so no shared behaviour exists."""


class WindowTooLong(ValueError):
    """An indicator window exceeds the encoding horizon."""


class BadMode(ValueError):
    """An indicator references a mode index the model does not have."""


class BadIndicator(ValueError):
    """An indicator is structurally invalid."""


# -- indicators --------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitWords:
    """A finite set of allowed mode words, all of the same length.

    Mode indices are 1-based.  A pair encoding restricted by this indicator
    admits only behaviours whose second-model mode sequence starts with one
    of the words.
    """

    words: tuple[tuple[int, ...], ...]

    def __init__(self, words):
        tidy = tuple(tuple(int(m) for m in w) for w in words)
        if not tidy:
            raise BadIndicator("an explicit-word indicator needs at least one word")
        W = len(tidy[0])
        if W < 1:
            raise BadIndicator("indicator words must have length >= 1")
        if any(len(w) != W for w in tidy):
            raise BadIndicator("all indicator words must have the same length")
        if any(m < 1 for w in tidy for m in w):
            raise BadMode("mode indices in indicator words are 1-based")
        object.__setattr__(self, "words", tidy)

    @property
    def window(self) -> int:
        return len(self.words[0])


@dataclass(frozen=True)
class StructuredTuple:
    """Counting indicator (S, W, m, O): within the first W steps, the number
    of second-model modes drawn from S is '<' (at most m-1), '=' (exactly m)
    or '>' (at least m)."""

    modes: tuple[int, ...]
    window: int
    count: int
    relation: str

    def __init__(self, modes, window: int, count: int, relation: str):
        tidy = tuple(sorted({int(m) for m in modes}))
        if not tidy:
            raise BadIndicator("the mode set S of a structured indicator is empty")
        if any(m < 1 for m in tidy):
            raise BadMode("mode indices in indicators are 1-based")
        window = int(window)
        count = int(count)
        if window < 1:
            raise BadIndicator("the indicator window W must be >= 1")
        if not 0 <= count <= window:
            raise BadIndicator(f"the count m must satisfy 0 <= m <= W, got {count}")
        if relation not in ("<", "=", ">"):
            raise BadIndicator(f"the relation O must be '<', '=' or '>', got {relation!r}")
        if relation == "<" and count == 0:
            raise BadIndicator("no mode word has fewer than 0 hits (m = 0 "
                               "with O = '<')")
        object.__setattr__(self, "modes", tidy)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "relation", relation)


@dataclass(frozen=True)
class CountBand:
    """Normal form of a counting restriction over a (possibly truncated)
    window: at_least <= #{k < window : mode_k in modes} <= at_most.

    This is what a structured indicator reduces to when a horizon shorter
    than its window forces reasoning about word prefixes.
    """

    modes: tuple[int, ...]
    window: int
    at_least: int
    at_most: int

    def __init__(self, modes, window: int, at_least: int, at_most: int):
        tidy = tuple(sorted({int(m) for m in modes}))
        if not tidy or any(m < 1 for m in tidy):
            raise BadIndicator("a count band needs a nonempty set of 1-based modes")
        window = int(window)
        at_least = max(0, int(at_least))
        at_most = min(int(at_most), window)
        if window < 1:
            raise BadIndicator("the count-band window must be >= 1")
        if at_least > at_most:
            raise BadIndicator("the count band is empty (at_least > at_most)")
        object.__setattr__(self, "modes", tidy)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "at_least", at_least)
        object.__setattr__(self, "at_most", at_most)


Indicator = Union[ExplicitWords, StructuredTuple, CountBand]


def prefix_indicator(indicator: Indicator, horizon: int) -> Indicator:
    """Restrict an indicator to what it implies about the first ``horizon``
    mode choices.

    A word of the original language may extend past the horizon; the
    restriction keeps exactly its length-``horizon`` prefixes.  For a
    counting indicator with window W > horizon this yields a count *band*:
    a prefix can already show at most min(m, horizon) hits and, since only
    W - horizon steps remain, must already show at least m - (W - horizon).
    """
    if horizon < 1:
        raise ValueError("the horizon must be >= 1")
    if isinstance(indicator, ExplicitWords):
        if indicator.window <= horizon:
            return indicator
        seen = []
        for w in indicator.words:
            p = w[:horizon]
            if p not in seen:
                seen.append(p)
        return ExplicitWords(tuple(seen))
    if isinstance(indicator, CountBand):
        if indicator.window <= horizon:
            return indicator
        slack = indicator.window - horizon
        return CountBand(indicator.modes, horizon,
                         indicator.at_least - slack,
                         min(indicator.at_most, horizon))
    if isinstance(indicator, StructuredTuple):
        W, m, O = indicator.window, indicator.count, indicator.relation
        if O == "<":
            lo, hi = 0, m - 1
        elif O == "=":
            lo, hi = m, m
        else:
            lo, hi = m, W
        if W <= horizon:
            return indicator
        slack = W - horizon
        return CountBand(indicator.modes, horizon, lo - slack, min(hi, horizon))
    raise TypeError(f"not an indicator: {indicator!r}")


# -- encodings ---------------------------------------------------------------


@dataclass
class InvalidationEncoding:
    """A sealed-ready feasibility problem for one model and one data window.

    ``var_index`` maps semantic roles to variable names:

    - ``("x", k)`` / ``("eta", k)``: tuples of names, one per component;
    - ``("a", i, k)``: the mode binary, for k in ``binary_steps``;
    - ``("ZA", i, k)`` / ``("ZB", i, k)`` / ``("ZC", i, k)``: dicts
      ``(row, col) -> name``;
    - ``("Df", i, k)``: dict ``row -> name``;
    - ``("absx", k, c)``: the shared |x_k[c]| auxiliary.

    ``binary_steps`` lists the samples whose mode gates some row: all of
    them, or all but the last when the outputs need no mode gate (the
    module docstring's output rule).
    """

    problem: MilpProblem
    var_index: dict
    model: SwitchedAffineModel
    trajectory: Trajectory
    binary_steps: tuple[int, ...]

    @property
    def n_samples(self) -> int:
        return len(self.trajectory)


@dataclass
class PairEncoding:
    """A feasibility problem for a shared length-``horizon`` behaviour.

    ``horizon`` counts transitions: the encoding couples ``horizon + 1``
    output samples and ``horizon`` dynamics steps of both models over one
    shared input sequence.  ``var_index`` follows the same role scheme as
    ``InvalidationEncoding``, with second-model roles suffixed ``b``
    (``("xb", k)``, ``("ZAb", j, k)``, ...), pair binaries under
    ``("d", i, j, k)`` and shared inputs under ``("u", k)``.

    ``collapsed`` is True when both sides have one and the same certain
    output map (the module docstring's output rule): their outputs match in
    ungated rows and the final sample needs no mode binaries.
    """

    problem: MilpProblem
    var_index: dict
    system: SwitchedAffineModel
    fault: SwitchedAffineModel
    horizon: int
    input_set: HyperRectangle
    collapsed: bool
    binary_steps: tuple[int, ...]
    indicator: Indicator | None = None


def _check_trajectory(model: SwitchedAffineModel, traj: Trajectory) -> None:
    if traj.inputs.shape[1] != model.n_u:
        raise DimensionError(
            f"trajectory has {traj.inputs.shape[1]} input columns, model expects {model.n_u}")
    if traj.outputs.shape[1] != model.n_y:
        raise DimensionError(
            f"trajectory has {traj.outputs.shape[1]} output columns, model expects {model.n_y}")


def _add_vars(p: MilpProblem, stem: str, k: int, lo, hi,
              ) -> tuple[tuple[str, ...], np.ndarray]:
    """Continuous ``stem[k][j]`` in [lo[j], hi[j]], one per component.
    Returns their names and their columns."""
    first = p.n_vars
    names = tuple(p.add_continuous(f"{stem}[{k}][{j}]", lo[j], hi[j])
                  for j in range(len(lo)))
    return names, np.arange(first, p.n_vars)


_TUBE_PAD = 1e-9


def _require_bounded(box: HyperRectangle, what: str) -> None:
    if not box.is_bounded:
        raise UnboundedSet(f"{what} must be bounded to derive a big-M constant")


def _signs(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive and the negative part of mat."""
    return np.clip(mat, 0.0, None), np.clip(mat, None, 0.0)


def _interval_product(signs, lo: np.ndarray, hi: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise interval of mat @ v for v in the box [lo, hi], where
    ``signs`` is ``_signs(mat)``."""
    pos, neg = signs
    return pos @ lo + neg @ hi, pos @ hi + neg @ lo


def _gate_m(lo, hi, expr_lo, expr_hi) -> np.ndarray:
    """Big-M that relaxes the gated rows ``v = expr`` over v in [lo, hi]
    and expr in [expr_lo, expr_hi]: 1.05 times the larger one-sided gap,
    the gap floored at 1e-6."""
    return 1.05 * np.maximum(np.maximum(hi - expr_lo, expr_hi - lo), 1e-6)


class _RowSink:
    """Rows waiting to enter the problem in one ``add_rows`` call.

    Only a buffer: the encoders add their variables to the problem ``p``
    themselves and queue their rows here, which enter in the order they
    were added.  ``var_index`` maps the encoding's roles to variable names.
    """

    def __init__(self, p: MilpProblem):
        self.p = p
        self.var_index: dict = {}
        self._names: list[str] = []
        self._parts: list[tuple] = []

    @property
    def n_rows(self) -> int:
        """The number of rows queued so far: the index of the next one."""
        return len(self._names)

    def add_rows(self, names, rows, cols, vals, relations, rhs) -> None:
        self._parts.append((np.asarray(rows) + len(self._names), cols, vals,
                            relations, rhs))
        self._names.extend(names)

    def flush(self) -> None:
        if self._names:
            self.p.add_rows(self._names,
                            *(np.concatenate(part) for part in zip(*self._parts)))
            self._names, self._parts = [], []


class _GatedRows:
    """One mode's gated rows as a template: built once, shifted per step.

    ``parts`` lists the terms ``(row, slot, coef)`` of the base rows in term
    order.  A block turns base row r into the pair

        stem[r]+:  terms + M_r * gate  <=  rhs_r + M_r
        stem[r]-:  terms - M_r * gate  >=  rhs_r - M_r

    which binds exactly when the gate, a sum of binaries at
    ``gate_slots``, is 1.  Slots index the column map each block passes
    in, so one template serves every step; big-M and rhs vectors are the
    block's own.
    """

    def __init__(self, parts, n_rows: int, gate_slots):
        rows, slots, coefs = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(rows, kind="stable")
        rows, slots = rows[order], slots[order]
        self.coefs = coefs[order]
        n_terms, gate_slots = len(rows), np.asarray(gate_slots)
        g_rows = np.repeat(np.arange(n_rows), len(gate_slots))
        g_slots = np.tile(gate_slots, n_rows)
        # r+ is row 2r and r- row 2r+1: the base terms, then the gate at
        # +M_r or -M_r; coefficients are drawn from (coefs, M) by src
        rows = np.concatenate([2 * rows, 2 * rows + 1, 2 * g_rows, 2 * g_rows + 1])
        slots = np.concatenate([slots, slots, g_slots, g_slots])
        src = np.concatenate([np.arange(n_terms), np.arange(n_terms),
                              n_terms + g_rows, n_terms + g_rows])
        sign = np.repeat([1.0, 1.0, 1.0, -1.0],
                         [n_terms, n_terms, len(g_rows), len(g_rows)])
        order = np.argsort(rows, kind="stable")
        self.rows, self.slots = rows[order], slots[order]
        self.src, self.sign = src[order], sign[order]
        self.rel = np.tile(np.array([LE, GE]), n_rows)
        self.labels = [f"[{r}]{side}" for r in range(n_rows) for side in "+-"]

    def emit(self, sink: _RowSink, stem: str, colmap: np.ndarray,
             rhs: np.ndarray, big_m: np.ndarray) -> None:
        vals = np.concatenate([self.coefs, big_m])[self.src] * self.sign
        bounds = np.empty(len(self.labels))
        np.add(rhs, big_m, out=bounds[0::2])
        np.subtract(rhs, big_m, out=bounds[1::2])
        sink.add_rows([stem + label for label in self.labels], self.rows,
                      colmap[self.slots], vals, self.rel, bounds)


_TEMPLATES: dict[tuple, _GatedRows] = {}
_TEMPLATES_MAX = 256


def _fingerprint(mode) -> tuple:
    """A mode's matrices by value: the key of its templates."""
    return tuple((a.shape, a.tobytes()) for a in (
        mode.A, mode.B, mode.C, mode.f, mode.hatA, mode.hatB, mode.hatC, mode.hatf))


def _memo(key: tuple, build, *args) -> _GatedRows:
    """``build(*args)``, once per key.  Templates depend only on mode
    matrices and are never modified, so the encodings of one model (a
    monitor's windows, find_T's probes) share them."""
    template = _TEMPLATES.get(key)
    if template is None:
        if len(_TEMPLATES) >= _TEMPLATES_MAX:
            _TEMPLATES.clear()
        template = _TEMPLATES[key] = build(*args)
    return template


def _nonzeros(mat: np.ndarray, first_slot: int, sign: float):
    """Terms ``sign * mat[r, c]`` at slot ``first_slot + c``, row-major."""
    r, c = np.nonzero(mat)
    return r, first_slot + c, sign * mat[r, c]


def _one_each(rows: np.ndarray, first_slot: int, coefs):
    """One term per entry of ``rows``, on consecutive slots."""
    return rows, first_slot + np.arange(len(rows)), np.full(len(rows), coefs)


def _output_parts(mode, first_slot: int, sign: float):
    """Terms of ``sign * ((C + hatC DC) x + eta)`` per output row.

    Slots from ``first_slot``: x (n), eta (n_y), ZC (one per nonzero of
    hatC).  Returns the parts and the number of slots used.
    """
    q = np.arange(mode.n_y)
    zc_rows = np.nonzero(mode.hatC)[0]
    parts = [_nonzeros(mode.C, first_slot, sign),
             _one_each(q, first_slot + mode.n, sign),
             _one_each(zc_rows, first_slot + mode.n + mode.n_y, sign)]
    return parts, mode.n + mode.n_y + len(zc_rows)


def _output_rows(mode) -> _GatedRows:
    """Gated rows of ``(C + hatC DC) x + eta = y``; the gate binary last."""
    parts, width = _output_parts(mode, 0, 1.0)
    return _GatedRows(parts, mode.n_y, [width])


def _match_rows(mode1, mode2) -> _GatedRows:
    """Gated rows equating the outputs of mode1 and mode2; the gate last."""
    parts1, width1 = _output_parts(mode1, 0, 1.0)
    parts2, width2 = _output_parts(mode2, width1, -1.0)
    return _GatedRows(parts1 + parts2, mode1.n_y, [width1 + width2])


def _state_rows(mode, n_gates: int, data_input: bool) -> _GatedRows:
    """Gated rows of ``x_{k+1} = (A + hatA DA) x_k + f + hatf Df
    + (B + hatB DB) u_k``.

    Slots: x_{k+1} (n), x_k (n), ZA (one per nonzero of hatA), Df (one per
    nonzero of hatf), u_k (n_u) unless the input is data, whose ``B u_k``
    goes to the rhs instead, ZB (one per nonzero of hatB), and the gate
    binaries last.
    """
    n = mode.n
    za_rows = np.nonzero(mode.hatA)[0]
    df_rows = np.flatnonzero(mode.hatf)
    zb_rows = np.nonzero(mode.hatB)[0]
    slot = 2 * n + len(za_rows)
    parts = [_one_each(np.arange(n), 0, 1.0),
             _nonzeros(mode.A, n, -1.0),
             _one_each(za_rows, 2 * n, -1.0),
             _one_each(df_rows, slot, -mode.hatf[df_rows])]
    slot += len(df_rows)
    if not data_input:
        parts.append(_nonzeros(mode.B, slot, -1.0))
        slot += mode.n_u
    parts.append(_one_each(zb_rows, slot, -1.0))
    slot += len(zb_rows)
    return _GatedRows(parts, n, slot + np.arange(n_gates))


_NO_COLS = np.zeros(0, dtype=np.intp)


def _keys(hat: np.ndarray) -> list:
    """Nonzero positions of hat, row-major: r for a vector, (r, c) otherwise."""
    index = [ix.tolist() for ix in np.nonzero(hat)]
    return index[0] if hat.ndim == 1 else list(zip(*index))


class _AbsCache:
    """The exact big-M transform of ``|v| <= hat * |y|``, written here.

    One ``(z, b)`` pair per carrier component (k, c) holds ``z = |y|``:

        tag.zge:  z - y >= 0          tag.zub:  z - y + M b <= M
        tag.nge:  z + y >= 0          tag.nub:  z + y - M b <= 0

    with ``tag = stem[k][c]``, ``z`` in [0, sup] and ``M = 2 sup``, where
    sup is the largest ``|y|`` its bounds allow; b = 1 pins ``z = y >= 0``
    and b = 0 pins ``z = -y >= 0``.  Each product v bounded through it adds
    the rows ``z.ub[v]: v - hat z <= 0`` and ``z.lb[v]: v + hat z >= 0``.
    """

    def __init__(self, stem: str):
        self.stem = stem
        self._cache: dict[tuple[int, int], tuple[str, int]] = {}

    def bound(self, sink: _RowSink, var: str, col: int, hat: float, k: int,
              c: int, carrier: int, sup_abs: float) -> None:
        """Add |var| <= hat * |y| through the shared |y| of (k, c).  ``col``
        is var's column, ``carrier`` the column of y and ``sup_abs`` the
        largest |y| its bounds allow."""
        key = (k, c)
        if key not in self._cache:
            p, tag, m = sink.p, f"{self.stem}[{k}][{c}]", 2.0 * sup_abs
            z = p.add_continuous(f"{tag}.z", 0.0, sup_abs)
            p.add_binary(f"{tag}.b")
            zi, bi = p.n_vars - 2, p.n_vars - 1
            sink.add_rows([f"{tag}.zge", f"{tag}.zub", f"{tag}.nge", f"{tag}.nub"],
                          [0, 0, 1, 1, 1, 2, 2, 3, 3, 3],
                          [zi, carrier, zi, carrier, bi, zi, carrier, zi, carrier, bi],
                          [1.0, -1.0, 1.0, -1.0, m, 1.0, 1.0, 1.0, 1.0, -m],
                          [GE, LE, GE, LE], [0.0, m, 0.0, 0.0])
            self._cache[key] = (z, zi)
            sink.var_index[(self.stem, k, c)] = z
        z, zi = self._cache[key]
        sink.add_rows([f"{z}.ub[{var}]", f"{z}.lb[{var}]"], [0, 0, 1, 1],
                      [col, zi, col, zi], [1.0, -hat, 1.0, hat], [LE, GE],
                      [0.0, 0.0])


def _add_products(sink: _RowSink, role: str, i: int, k: int, hat: np.ndarray,
                  keys: list, carrier_max, absx: _AbsCache | None = None,
                  carrier=None) -> np.ndarray:
    """One ``role[i][k][r][c]`` per nonzero (r, c) of hat in ``keys``: the
    product hat[r, c] * Delta[r, c] * carrier[c], bounded by
    hat[r, c] * carrier_max[c].  A variable carrier (its columns) also gets
    the rows ``|Z| <= hat |carrier|`` through ``absx``; a constant one (an
    observed input, ``absx=None``) needs the bounds only.  Returns their
    columns."""
    if not keys:
        return _NO_COLS
    p = sink.p
    names: dict[tuple[int, int], str] = {}
    cols = np.empty(len(keys), dtype=np.intp)
    for e, (r, c) in enumerate(keys):
        bound = hat[r, c] * carrier_max[c]
        cols[e] = p.n_vars
        z = names[(r, c)] = p.add_continuous(f"{role}[{i}][{k}][{r}][{c}]",
                                             -bound, bound)
        if absx is not None:
            absx.bound(sink, z, cols[e], float(hat[r, c]), k, c, carrier[c],
                       carrier_max[c])
    sink.var_index[(role, i, k)] = names
    return cols


def _add_draws(sink: _RowSink, role: str, i: int, k: int,
               rows: list) -> np.ndarray:
    """One normalized draw ``role[i][k][r]`` in [-1, 1] per row r (Df).
    Returns their columns."""
    if not rows:
        return _NO_COLS
    p = sink.p
    first = p.n_vars
    sink.var_index[(role, i, k)] = {
        r: p.add_continuous(f"{role}[{i}][{k}][{r}]", -1.0, 1.0) for r in rows}
    return np.arange(first, p.n_vars)


def _mode_binaries(sink: _RowSink, role: str, row: str, n_samples: int,
                   shape: tuple[int, ...], steps) -> np.ndarray:
    """At each sample k of ``steps``, one binary ``role[i]..[k]`` per mode
    choice (1-based indices, the last varying fastest) and the one-hot row
    ``row[k]`` over them.  Returns their columns as an array of shape
    ``(n_samples, *shape)``, 0 at the samples without binaries."""
    cols = np.zeros((n_samples, *shape), dtype=np.intp)
    for k in steps:
        for choice in np.ndindex(*shape):
            key = tuple(c + 1 for c in choice)
            name = role + "".join(f"[{c}]" for c in key) + f"[{k}]"
            sink.var_index[(role, *key, k)] = sink.p.add_binary(name)
            cols[(k, *choice)] = sink.p.n_vars - 1
    one_hot = cols[list(steps)].ravel()
    sink.add_rows([f"{row}[{k}]" for k in steps],
                  np.repeat(np.arange(len(steps)), np.prod(shape)), one_hot,
                  np.ones(one_hot.size), np.full(len(steps), EQ),
                  np.ones(len(steps)))
    return cols


def _certain_output_rows(sink: _RowSink, names: list[str], C: np.ndarray,
                         x_cols, eta_cols, signs, rhs) -> None:
    """Ungated rows ``sum_s signs[s] * (C x_s + eta_s) = rhs``, one per
    output, where side s has the state columns ``x_cols[s]`` and the noise
    columns ``eta_cols[s]``; every row lists the state terms of all sides
    first."""
    r, c = np.nonzero(C)
    q = np.arange(C.shape[0])
    signs = np.asarray(signs, dtype=float)
    sink.add_rows(names, np.concatenate([np.tile(r, len(signs)),
                                         np.tile(q, len(signs))]),
                  np.concatenate([x[c] for x in x_cols] + list(eta_cols)),
                  np.concatenate([np.outer(signs, C[r, c]).ravel(),
                                  np.repeat(signs, len(q))]),
                  np.full(len(q), EQ), rhs)


class _Side:
    """One model's part of an encoding: envelope, big-M, variables and rows.

    Role names end in ``suffix`` (``x`` or ``xb``, ``ZA`` or ``ZAb``, ...).
    ``inputs`` is the pair ``(lower, upper)`` of arrays with one input box
    per transition k: the point box ``(u_k, u_k)`` of an observed input,
    or the shared input box of a pair encoding at every step.  Each nonzero
    ``hatB[r, c]`` enters mode i's ``dyn`` rows at step k as a product
    ``ZB[i][k][r][c]`` bounded by ``hatB[r, c] * umax[k][c]``, the largest
    ``|u_k[c]|`` in the box.  An observed input's ``B u_k`` is a constant
    on the right-hand side; a pair's shared ``u`` variables enter through
    B and back their ``ZB`` with ``|u|`` rows.

    The constructor derives a conservative per-sample envelope of
    model-consistent state windows.  Starting from the admissible state
    box, the box of sample k + 1 is the interval hull over modes of the
    one-step update applied to the box of sample k and the input box of
    step k, intersected with the admissible box and padded by a hair
    against rounding.  Any state window every model explanation can use
    stays inside the envelope, so it is safe to bound the state variables
    by it.  ``boxes[k]`` is the ``(lower, upper)`` pair of sample k;
    ``dyn[k][i - 1]`` and ``out[k][i - 1]`` are mode i's update and output
    expression intervals at step k, from which each gated row's big-M
    derives.

    ``C`` is the certain (``hatC == 0``) output map all modes share, or
    None; such outputs need no mode gate.
    """

    def __init__(self, model: SwitchedAffineModel, n_samples: int, inputs,
                 suffix: str):
        _require_bounded(model.state_set, "the state set")
        _require_bounded(model.noise_set, "the noise set")
        self.model, self.n_samples, self.suffix = model, n_samples, suffix
        self.inputs = inputs
        self.umax = np.maximum(np.abs(inputs[0]), np.abs(inputs[1]))
        self.keys = [[_keys(hat) for hat in (mode.hatA, mode.hatB, mode.hatC,
                                             mode.hatf)]
                     for mode in model.modes]
        self.absx = _AbsCache("absx" + suffix)
        self.cols: dict[str, list] = {}
        C = model.modes[0].C
        self.C = C if all(not mode.hatC.any() and np.array_equal(mode.C, C)
                          for mode in model.modes) else None

        xl0 = np.asarray(model.state_set.lower, dtype=float)
        xu0 = np.asarray(model.state_set.upper, dtype=float)
        el = np.asarray(model.noise_set.lower, dtype=float)
        eu = np.asarray(model.noise_set.upper, dtype=float)
        signs = [(_signs(mode.A), _signs(mode.B), _signs(mode.C))
                 for mode in model.modes]
        self.boxes = [(xl0, xu0)]
        self.xmax, self.dyn, self.out = [], [], []
        for k in range(n_samples):
            xl, xu = self.boxes[k]
            xmax = np.maximum(np.abs(xl), np.abs(xu))
            self.xmax.append(xmax)
            out = []
            for mode, (*_, c_signs) in zip(model.modes, signs):
                clo, chi = _interval_product(c_signs, xl, xu)
                spread = mode.hatC @ xmax
                out.append((clo + el - spread, chi + eu + spread))
            self.out.append(out)
            if k == n_samples - 1:
                break
            dyn = []
            for mode, (a_signs, b_signs, _) in zip(model.modes, signs):
                alo, ahi = _interval_product(a_signs, xl, xu)
                spread = mode.hatA @ xmax + mode.hatf
                blo, bhi = _interval_product(b_signs, inputs[0][k],
                                             inputs[1][k])
                b_spread = mode.hatB @ self.umax[k]
                dlo, dhi = blo - b_spread, bhi + b_spread
                dyn.append((alo + mode.f - spread + dlo,
                            ahi + mode.f + spread + dhi))
            self.dyn.append(dyn)
            lo, hi = zip(*dyn)
            nxl = np.maximum(xl0, np.min(lo, axis=0) - _TUBE_PAD)
            nxu = np.minimum(xu0, np.max(hi, axis=0) + _TUBE_PAD)
            if np.any(nxl > nxu):
                # No window this long exists at all; keep the loose box and let
                # the rows certify the infeasibility.
                nxl, nxu = xl0, xu0
            self.boxes.append((nxl, nxu))

    def add_vars(self, sink: _RowSink, role: str) -> None:
        """Add ``x`` (inside the envelope) or ``eta`` (inside the noise set)
        for every sample."""
        p, stem = sink.p, role + self.suffix
        noise = self.model.noise_set
        bounds = self.boxes if role == "x" else \
            [(noise.lower, noise.upper)] * self.n_samples
        self.cols[role] = []
        for k, (lo, hi) in enumerate(bounds):
            sink.var_index[(stem, k)], cols = _add_vars(p, stem, k, lo, hi)
            self.cols[role].append(cols)

    def zc(self, sink: _RowSink, i: int, k: int) -> np.ndarray:
        """Columns of mode i's ``ZC`` products at sample k."""
        return _add_products(sink, "ZC" + self.suffix, i, k,
                             self.model.modes[i - 1].hatC, self.keys[i - 1][2],
                             self.xmax[k], self.absx, self.cols["x"][k])

    def emit(self, sink: _RowSink, gates: np.ndarray, outputs: bool = False,
             u=None) -> None:
        """Add the ``out`` rows when ``outputs`` is set (ungated
        ``out[k][q]`` when the side has one certain ``C``, else gated per
        mode) and the gated ``dyn`` rows of every (transition, mode).

        The ``out`` rows wait for their window's outputs: they get a zero
        rhs, and a unit big-M when gated, and ``out_rows`` lists the first
        row of each ``out`` block (per sample, or per (sample, mode) when
        gated) for ``_WindowTemplate.bind`` to write the window's numbers.
        ``gates[k, i - 1]`` holds the columns of the binaries that select
        mode i at sample k.  With a shared input, ``u`` is the pair
        (columns per step, ``_AbsCache``) of its variables; without it the
        input is data, the lower end of each point box.
        """
        modes, sfx = self.model.modes, self.suffix
        x_cols, eta_cols = self.cols["x"], self.cols["eta"]
        fingerprints = [_fingerprint(mode) for mode in modes]
        data, n_gates = u is None, gates.shape[2]
        dyn_rows = [_memo(("state", fp, n_gates, data), _state_rows,
                          mode, n_gates, data)
                    for mode, fp in zip(modes, fingerprints)]
        gated_out = outputs and self.C is None
        if gated_out:
            out_rows = [_memo(("out", fp), _output_rows, mode)
                        for mode, fp in zip(modes, fingerprints)]
        zeros, ones = np.zeros(self.model.n_y), np.ones(self.model.n_y)
        self.out_rows = []
        for k in range(self.n_samples):
            if outputs and not gated_out:
                self.out_rows.append(sink.n_rows)
                _certain_output_rows(
                    sink, [f"out{sfx}[{k}][{q}]" for q in range(self.model.n_y)],
                    self.C, [x_cols[k]], [eta_cols[k]], [1.0], zeros)
            for i, mode in enumerate(modes, start=1):
                za_keys, b_keys, _, df_keys = self.keys[i - 1]
                gate = gates[k, i - 1]
                if gated_out:
                    zc = self.zc(sink, i, k)
                    self.out_rows.append(sink.n_rows)
                    out_rows[i - 1].emit(
                        sink, f"out{sfx}[{i}][{k}]",
                        np.concatenate([x_cols[k], eta_cols[k], zc, gate]),
                        zeros, ones)
                if k == self.n_samples - 1:
                    continue
                za = _add_products(sink, "ZA" + sfx, i, k, mode.hatA, za_keys,
                                   self.xmax[k], self.absx, x_cols[k])
                df = _add_draws(sink, "Df" + sfx, i, k, df_keys)
                if data:
                    u_cols, absu = _NO_COLS, None
                    rhs = mode.B @ self.inputs[0][k] + mode.f
                else:
                    u_cols, absu = u[0][k], u[1]
                    rhs = mode.f
                zb = _add_products(sink, "ZB" + sfx, i, k, mode.hatB, b_keys,
                                   self.umax[k], absu, u_cols)
                dyn_rows[i - 1].emit(
                    sink, f"dyn{sfx}[{i}][{k}]",
                    np.concatenate([x_cols[k + 1], x_cols[k], za, df, u_cols,
                                    zb, gate]),
                    rhs, _gate_m(*self.boxes[k + 1], *self.dyn[k][i - 1]))


def _positions(row: np.ndarray, col: np.ndarray, n_vars: int,
               rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where the nonzeros at (rows[e], cols[e]) sit in the COO arrays
    ``row``/``col``, which hold each (row, col) at most once."""
    key = row * n_vars + col
    order = np.argsort(key)
    return order[np.searchsorted(key[order], rows * n_vars + cols)]


class _WindowTemplate:
    """An invalidation encoding without its outputs.

    Everything but the outputs is fixed by the model, the window length
    and the observed inputs: the variables and their bounds, the row names,
    the sparsity, the relations, the envelope and the ``dyn`` rows.  The
    template builds all of it once, with the ``out`` rows waiting for
    their numbers (``_Side.emit``), and ``bind`` writes one window's
    outputs into a copy: the ``out`` rows' rhs and, where the outputs are
    gated, their big-M coefficients.  The bound problems share the
    template's tables (``MilpProblem.with_values``).
    """

    def __init__(self, model: SwitchedAffineModel, inputs: np.ndarray):
        N = len(inputs)
        if N < 1:
            raise ValueError("the data window must contain at least one sample")
        U = model.input_set
        for k in range(N):
            if model.n_u and not U.contains(inputs[k], tol=1e-9):
                raise InputOutsideAdmissibleSet(k, inputs[k])
        # an observed input is the point box {u_k}
        side = _Side(model, N, (inputs, inputs), "")
        p = MilpProblem(name=f"invalidation[{model.name or 'model'}][N={N}]")
        sink = _RowSink(p)
        side.add_vars(sink, "x")
        side.add_vars(sink, "eta")
        # with ungated outputs the last sample's mode gates no row
        self.binary_steps = tuple(range(N - 1 if side.C is not None else N))
        a = _mode_binaries(sink, "a", "mode", N, (model.s,), self.binary_steps)
        side.emit(sink, a[:, :, None], outputs=True)
        sink.flush()
        self.problem, self.var_index = p, sink.var_index
        self.gated = side.C is None
        q = np.arange(model.n_y)
        first = np.asarray(side.out_rows)
        if not self.gated:
            self.rows = (first[:, None] + q).ravel()   # out[k][q], (k, q) order
            return
        # out[i][k][q]+ is row first + 2q and out[i][k][q]- the next one, in
        # (k, i, q) order; the gate a[i][k] carries their big-M
        self.rows = (first[:, None] + 2 * q).ravel()
        expr = np.array(side.out)               # (k, i, lower/upper, q)
        self.expr_lo, self.expr_hi = expr[:, :, 0], expr[:, :, 1]
        gate_cols = np.repeat(a.ravel(), model.n_y)
        row, col = p.sparse_arrays()[:2]
        self.m_at = [_positions(row, col, p.n_vars, self.rows + minus, gate_cols)
                     for minus in (0, 1)]

    def bind(self, model: SwitchedAffineModel,
             trajectory: Trajectory) -> InvalidationEncoding:
        """The encoding of ``trajectory``, a window with the template's
        inputs, for ``model``, which equals the template's model."""
        _, _, vals, _, rhs = self.problem.sparse_arrays()[:5]
        rhs, y = rhs.copy(), trajectory.outputs
        if not self.gated:
            rhs[self.rows] = y.ravel()
        else:
            y = y[:, None, :]
            m = _gate_m(y, y, self.expr_lo, self.expr_hi)
            rhs[self.rows], rhs[self.rows + 1] = (y + m).ravel(), (y - m).ravel()
            vals = vals.copy()
            vals[self.m_at[0]], vals[self.m_at[1]] = m.ravel(), -m.ravel()
        return InvalidationEncoding(self.problem.with_values(vals, rhs),
                                    dict(self.var_index), model,
                                    trajectory, self.binary_steps)


_WINDOWS: dict[tuple, _WindowTemplate] = {}
_WINDOWS_MAX = 4


def _box_key(box: HyperRectangle) -> bytes:
    return np.array(box.lower + box.upper, dtype=float).tobytes()


def _window_template(model: SwitchedAffineModel,
                     inputs: np.ndarray) -> _WindowTemplate:
    """The template of (model, window length, inputs), built on first use.

    The key holds the model by value, so equal models share templates.
    The cache keeps a few templates (a monitor needs one per model and
    length when its model has no inputs) and drops the oldest first."""
    key = (model.name, tuple(_fingerprint(mode) for mode in model.modes),
           *(_box_key(box) for box in (model.state_set, model.noise_set,
                                       model.input_set)),
           inputs.shape, inputs.tobytes())
    template = _WINDOWS.get(key)
    if template is None:
        template = _WindowTemplate(model, inputs)
        if len(_WINDOWS) >= _WINDOWS_MAX:
            del _WINDOWS[next(iter(_WINDOWS))]
        _WINDOWS[key] = template
    return template


def encode_invalidation(model: SwitchedAffineModel,
                        trajectory: Trajectory) -> InvalidationEncoding:
    """Build the consistency feasibility problem for one data window.

    The model is valid by construction (see :class:`SwitchedAffineModel`).
    Raises DimensionError when the window misfits the model's dimensions,
    InputOutsideAdmissibleSet when an observed input violates the model's
    input set (such data can never be explained, whatever the states), and
    UnboundedSet when the admissible sets are too loose to derive a big-M
    constant.  The problem is bound from the cached template of the
    model, the window length and the inputs (``_WindowTemplate``).

    The mode binaries ``a[i][k]`` are the first binary columns, step by
    step (k outermost, then i), at every sample whose mode gates a row;
    the sign binaries of the ``|x|`` terms that
    parameter uncertainty needs follow them.  The solver branches on the
    lowest-index fractional binary, so it decides the modes in time order.
    """
    _check_trajectory(model, trajectory)
    return _window_template(model, trajectory.inputs).bind(model, trajectory)


def encode_t_detectability(system: SwitchedAffineModel,
                           fault: SwitchedAffineModel, horizon: int, *,
                           indicator: Indicator | None = None) -> PairEncoding:
    """Couple two models over one unknown input for ``horizon`` transitions.

    The problem is feasible iff some input-output window of horizon + 1
    samples lies in both models' behaviours; infeasibility certifies
    detectability at this horizon.  Both models are valid by construction
    (see :class:`SwitchedAffineModel`).  Raises DimensionError when their
    input or output dimensions differ, and EmptyInputIntersection when the
    models share no admissible input at all.

    The pair binaries ``d[i][j][k]`` are the first binary columns, step by
    step (k outermost, then i, then j); the sign binaries of any ``|x|`` or
    ``|u|`` terms follow them, and an ``ExplicitWords`` indicator adds its
    word binaries after all of these.  The solver branches on the
    lowest-index fractional binary, so it decides the modes in time order.
    """
    if horizon < 1:
        raise ValueError("the horizon must be >= 1 (it counts transitions)")
    if system.n_y != fault.n_y:
        raise DimensionError("the two models must share the output dimension")
    if system.n_u != fault.n_u:
        raise DimensionError("the two models must share the input dimension")
    T = int(horizon)
    n_u, n_y = system.n_u, system.n_y
    s1, s2 = system.s, fault.s
    U = system.input_set.intersect(fault.input_set) if n_u \
        else HyperRectangle([], [])
    if n_u and U.is_empty:
        raise EmptyInputIntersection(
            "the models admit no common input, so no shared behaviour exists")
    if n_u:
        _require_bounded(U, "the input set")

    # both sides take the shared input box at every step
    boxes = (np.tile(np.asarray(U.lower, dtype=float), (T, 1)),
             np.tile(np.asarray(U.upper, dtype=float), (T, 1)))
    sides = (_Side(system, T + 1, boxes, ""), _Side(fault, T + 1, boxes, "b"))
    C = sides[0].C
    collapsed = C is not None and np.array_equal(C, sides[1].C)
    binary_steps = tuple(range(T)) if collapsed else tuple(range(T + 1))
    p = MilpProblem(name=f"detectability[T={T}]")
    sink = _RowSink(p)
    for role in ("x", "eta"):
        for side in sides:
            side.add_vars(sink, role)
    u_cols = []
    for k in range(T):
        sink.var_index[("u", k)], cols = _add_vars(p, "u", k, U.lower, U.upper)
        u_cols.append(cols)

    d = _mode_binaries(sink, "d", "pair", T + 1, (s1, s2), binary_steps)

    shared_u = (u_cols, _AbsCache("absu"))
    sides[0].emit(sink, d, u=shared_u)
    sides[1].emit(sink, d.transpose(0, 2, 1), u=shared_u)

    x1_cols, e1_cols = sides[0].cols["x"], sides[0].cols["eta"]
    x2_cols, e2_cols = sides[1].cols["x"], sides[1].cols["eta"]
    if collapsed:
        # one shared certain output map: C x + eta = C xb + etab, ungated
        for k in range(T + 1):
            _certain_output_rows(
                sink, [f"match[{k}][{q}]" for q in range(n_y)], C,
                [x1_cols[k], x2_cols[k]], [e1_cols[k], e2_cols[k]],
                [1.0, -1.0], np.zeros(n_y))
    else:
        fp1 = [_fingerprint(mode) for mode in system.modes]
        fp2 = [_fingerprint(mode) for mode in fault.modes]
        match_rows = {(i, j): _memo(("match", fp1[i - 1], fp2[j - 1]),
                                    _match_rows, mode1, mode2)
                      for i, mode1 in enumerate(system.modes, start=1)
                      for j, mode2 in enumerate(fault.modes, start=1)}
        for k in range(T + 1):
            zc1 = [sides[0].zc(sink, i, k) for i in range(1, s1 + 1)]
            zc2 = [sides[1].zc(sink, j, k) for j in range(1, s2 + 1)]
            for i in range(1, s1 + 1):
                side1 = np.concatenate([x1_cols[k], e1_cols[k], zc1[i - 1]])
                for j in range(1, s2 + 1):
                    m = _gate_m(*sides[0].out[k][i - 1], *sides[1].out[k][j - 1])
                    match_rows[i, j].emit(
                        sink, f"match[{i}][{j}][{k}]",
                        np.concatenate([side1, x2_cols[k], e2_cols[k],
                                        zc2[j - 1], d[k, i - 1, j - 1:j]]),
                        np.zeros(n_y), m)
    sink.flush()

    enc = PairEncoding(p, sink.var_index, system, fault, T, U, collapsed,
                       binary_steps)
    if indicator is not None:
        apply_indicator(enc, indicator)
    return enc


def apply_indicator(enc: PairEncoding, indicator: Indicator) -> None:
    """Restrict the second model's first W mode choices to the indicator.

    Raises WindowTooLong when the window exceeds the encoding horizon and
    BadMode when the indicator references a mode the second model lacks.
    Counting indicators become one linear row over the pair binaries; an
    explicit word set uses one selection binary per word with an exact
    product linearization.
    """
    if enc.indicator is not None:
        raise BadIndicator("this encoding already carries an indicator")
    W = indicator.window
    if W > enc.horizon:
        raise WindowTooLong(
            f"indicator window {W} exceeds the encoding horizon {enc.horizon}")
    p = enc.problem
    s1, s2 = enc.system.s, enc.fault.s

    def occupancy(j: int, k: int) -> list[tuple[float, str]]:
        return [(1.0, enc.var_index[("d", i, j, k)]) for i in range(1, s1 + 1)]

    def check_modes(modes) -> None:
        for m in modes:
            if not 1 <= m <= s2:
                raise BadMode(f"indicator mode {m} not in 1..{s2}")

    if isinstance(indicator, (StructuredTuple, CountBand)):
        check_modes(indicator.modes)
        terms = [t for k in range(W) for j in indicator.modes
                 for t in occupancy(j, k)]
        if isinstance(indicator, StructuredTuple):
            if indicator.relation == "<":
                p.add_constraint("ind.count", terms, LE, indicator.count - 1)
            elif indicator.relation == "=":
                p.add_constraint("ind.count", terms, EQ, indicator.count)
            else:
                p.add_constraint("ind.count", terms, GE, indicator.count)
        else:
            if indicator.at_least > 0:
                p.add_constraint("ind.count.lo", terms, GE, indicator.at_least)
            if indicator.at_most < W:
                p.add_constraint("ind.count.hi", terms, LE, indicator.at_most)
    elif isinstance(indicator, ExplicitWords):
        for w in indicator.words:
            check_modes(w)
        word_bins = []
        for widx, word in enumerate(indicator.words):
            b = p.add_binary(f"ind.word[{widx}]")
            word_bins.append(b)
            sels = []
            for k, mode_j in enumerate(word):
                sel = p.add_continuous(f"ind.sel[{widx}][{k}]", 0.0, 1.0)
                sels.append(sel)
                occ = occupancy(mode_j, k)
                p.add_constraint(f"ind.sel.b[{widx}][{k}]",
                                 [(1.0, sel), (-1.0, b)], LE, 0.0)
                p.add_constraint(f"ind.sel.d[{widx}][{k}]",
                                 [(1.0, sel)] + [(-c, v) for c, v in occ], LE, 0.0)
                p.add_constraint(f"ind.sel.lo[{widx}][{k}]",
                                 [(1.0, sel), (-1.0, b)] + [(-c, v) for c, v in occ],
                                 GE, -1.0)
            p.add_constraint(f"ind.word.all[{widx}]",
                             [(1.0, s) for s in sels] + [(-float(W), b)], EQ, 0.0)
        p.add_constraint("ind.some.word", [(1.0, b) for b in word_bins], GE, 1.0)
    else:
        raise TypeError(f"not an indicator: {indicator!r}")
    enc.indicator = indicator


# -- witness decoding --------------------------------------------------------


@dataclass(frozen=True)
class Explanation:
    """A decoded consistency witness: everything needed to replay the data."""

    states: np.ndarray          # (N, n)
    noise: np.ndarray           # (N, n_y)
    mode_sequence: tuple[int, ...]  # 0-based, per sample
    draw: SimulationDraw


def _recover_delta(z_value: float, hat: float, carrier: float) -> float:
    denom = hat * carrier
    if abs(denom) <= _TINY:
        return 0.0
    return float(np.clip(z_value / denom, -1.0, 1.0))


def _decode_side(model: SwitchedAffineModel, w: Witness, var_index: Mapping,
                 n_samples: int, suffix: str, mode_of,
                 u_data: np.ndarray) -> Explanation:
    """Decode the side whose role names end in ``suffix``.  ``u_data`` is
    the input each ``ZB`` multiplies: the data window's inputs, or the
    shared input of a pair encoding."""
    n, n_u, n_y = model.n, model.n_u, model.n_y
    states = np.array([[w[v] for v in var_index[("x" + suffix, k)]]
                       for k in range(n_samples)])
    noise = np.array([[w[v] for v in var_index[("eta" + suffix, k)]]
                      for k in range(n_samples)]).reshape(n_samples, n_y)
    modes0 = tuple(mode_of(k) for k in range(n_samples))
    DA = np.zeros((n_samples, n, n))
    DB = np.zeros((n_samples, n, n_u))
    DC = np.zeros((n_samples, n_y, n))
    Df = np.zeros((n_samples, n))
    for k in range(n_samples):
        i = modes0[k] + 1
        mode = model.modes[modes0[k]]
        for (r, c), name in var_index.get(("ZA" + suffix, i, k), {}).items():
            DA[k, r, c] = _recover_delta(w[name], mode.hatA[r, c], states[k, c])
        for (q, c), name in var_index.get(("ZC" + suffix, i, k), {}).items():
            DC[k, q, c] = _recover_delta(w[name], mode.hatC[q, c], states[k, c])
        for r, name in var_index.get(("Df" + suffix, i, k), {}).items():
            Df[k, r] = float(np.clip(w[name], -1.0, 1.0))
        for (r, c), name in var_index.get(("ZB" + suffix, i, k), {}).items():
            DB[k, r, c] = _recover_delta(w[name], mode.hatB[r, c], u_data[k, c])
    draw = SimulationDraw(states[0], modes0, noise, DA, DB, DC, Df)
    return Explanation(states, noise, modes0, draw)


def _mode_sequence(w: Witness, var_index: Mapping, role: str,
                   shape: tuple[int, ...], n_samples: int,
                   binary_steps) -> list[tuple[int, ...]]:
    """The 1-based mode choice of every sample: the one whose binary
    ``role[i]..[k]`` is largest.  A sample without binaries repeats the
    sample before it, or takes the first choice when it is the first."""
    choices = [tuple(c + 1 for c in choice) for choice in np.ndindex(*shape)]
    sequence, chosen = [], choices[0]
    for k in range(n_samples):
        if k in binary_steps:
            chosen = max(choices, key=lambda c: w[var_index[(role, *c, k)]])
        sequence.append(chosen)
    return sequence


def decode_invalidation_witness(enc: InvalidationEncoding, w: Witness) -> Explanation:
    """Invert the change of variables: recover states, noise, the mode
    sequence and normalized uncertainty draws from a feasible assignment."""
    modes = _mode_sequence(w, enc.var_index, "a", (enc.model.s,),
                           enc.n_samples, enc.binary_steps)
    return _decode_side(enc.model, w, enc.var_index, enc.n_samples, "",
                        lambda k: modes[k][0] - 1, enc.trajectory.inputs)


@dataclass(frozen=True)
class CommonBehavior:
    """A decoded shared behaviour of a model pair.

    ``inputs`` has horizon + 1 rows; the final row is zero padding so the
    arrays replay directly through ``simulate`` (which consumes one input
    per sample), and only the first ``horizon`` rows are constrained.
    """

    inputs: np.ndarray    # (T + 1, n_u)
    outputs: np.ndarray   # (T + 1, n_y)
    system: Explanation
    fault: Explanation


def decode_pair_witness(enc: PairEncoding, w: Witness) -> CommonBehavior:
    T = enc.horizon
    n_u = enc.system.n_u
    pairs = _mode_sequence(w, enc.var_index, "d", (enc.system.s, enc.fault.s),
                           T + 1, enc.binary_steps)
    u = np.zeros((T + 1, n_u))
    for k in range(T):
        u[k] = [w[v] for v in enc.var_index[("u", k)]]

    sys_expl = _decode_side(enc.system, w, enc.var_index, T + 1, "",
                            lambda k: pairs[k][0] - 1, u)
    fault_expl = _decode_side(enc.fault, w, enc.var_index, T + 1, "b",
                              lambda k: pairs[k][1] - 1, u)
    outputs = np.zeros((T + 1, enc.system.n_y))
    for k in range(T + 1):
        mode = enc.system.modes[sys_expl.mode_sequence[k]]
        C_k = mode.C + mode.hatC * sys_expl.draw.DC[k]
        outputs[k] = C_k @ sys_expl.states[k] + sys_expl.noise[k]
    return CommonBehavior(u, outputs, sys_expl, fault_expl)


# -- one-call invalidation ----------------------------------------------------


@dataclass(frozen=True)
class InvalidationResult:
    """Outcome of a consistency check on one data window.

    ``verdict`` is ``"consistent"`` (a witness explains the data),
    ``"invalidated"`` (provably no admissible explanation) or
    ``"undecided"`` (the solver hit its budget; surfaced, never silently
    mapped to either decision).
    """

    verdict: str
    reason: str
    solve: SolveResult | None = None
    explanation: Explanation | None = None
    encoding: InvalidationEncoding | None = field(default=None, repr=False)


def check_invalidation(model: SwitchedAffineModel, trajectory: Trajectory, *,
                       config: SolverConfig | None = None,
                       session: SolverSession | None = None) -> InvalidationResult:
    """Decide whether a data window lies in the model's behaviour set.

    The solve runs on the backend ``config`` names, on ``session`` when one
    is given (see :func:`solve_milp`).
    """
    try:
        enc = encode_invalidation(model, trajectory)
    except InputOutsideAdmissibleSet as err:
        return InvalidationResult(INVALIDATED, str(err))
    res = solve_milp(enc.problem, config, session=session)
    if res.status == FEASIBLE:
        return InvalidationResult(CONSISTENT, "found an admissible explanation",
                                  res, decode_invalidation_witness(enc, res.witness),
                                  enc)
    if res.status == INFEASIBLE:
        return InvalidationResult(INVALIDATED,
                                  "no admissible explanation exists", res,
                                  None, enc)
    return InvalidationResult(UNDECIDED,
                              f"solver budget exhausted ({res.message})", res,
                              None, enc)
