"""Serialization of models, trajectories and indicators.

Model files are JSON with fields ``n, n_u, n_y``, ``modes`` (one entry per
mode with row-major flat arrays ``A, B, C, f, hatA, hatB, hatC, hatf``) and
``state_bounds / noise_bounds / input_bounds`` (``{lower: [...], upper:
[...]}``); infinite bounds are spelled ``"inf"`` / ``"-inf"``, and mode
matrices must be finite.  Trajectories are CSV with header
``k,u_1..u_{n_u},y_1..y_{n_y}`` and one row per time step.  Indicators are
JSON: ``{"words": [[...], ...]}`` with 1-based mode labels, or
``{"tuple": {"S": [...], "W": ..., "m": ..., "O": "="}}``; count bands (the
prefix normal form) round-trip through the ``"band"`` key.  Command lines
can also give structured tuples inline as ``S=3,4;W=1;m=1;O==``.

Writers are deterministic: identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Union

import numpy as np

from .encoder import (BadIndicator, CountBand, ExplicitWords, Indicator,
                      StructuredTuple)
from .model import (AffineMode, DimensionError, HyperRectangle,
                    SwitchedAffineModel, Trajectory)

__all__ = [
    "FileFormatError",
    "model_to_dict", "model_from_dict", "save_model", "load_model",
    "trajectory_to_csv", "trajectory_from_csv", "save_trajectory",
    "load_trajectory",
    "indicator_to_dict", "indicator_from_dict", "save_indicator",
    "load_indicator", "parse_tuple_string", "parse_indicator_arg",
]


class FileFormatError(ValueError):
    """A model, trajectory or indicator document could not be parsed."""


# ---------------------------------------------------------------- numbers

def _num_out(v: float) -> Union[float, str]:
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        raise FileFormatError("NaN is not representable in model files")
    return v


def _num_in(v, where: str) -> float:
    if isinstance(v, str):
        text = v.strip().lower()
        if text in ("inf", "+inf"):
            return math.inf
        if text == "-inf":
            return -math.inf
        raise FileFormatError(f"{where}: bad number {v!r}")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise FileFormatError(f"{where}: bad number {v!r}")


def _flat(mat: np.ndarray) -> list:
    return [_num_out(v) for v in np.asarray(mat, dtype=float).ravel()]


def _unflat(values, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise FileFormatError(f"{where}: expected a flat array")
    if len(values) != rows * cols:
        raise FileFormatError(
            f"{where}: expected {rows * cols} entries, got {len(values)}")
    flat = np.array([_num_in(v, where) for v in values], dtype=float)
    if not np.isfinite(flat).all():
        raise FileFormatError(f"{where}: entries must be finite")
    return flat.reshape(rows, cols)


def _bounds_out(box: HyperRectangle) -> dict:
    return {"lower": [_num_out(v) for v in box.lower],
            "upper": [_num_out(v) for v in box.upper]}


def _bounds_in(obj, dim: int, where: str) -> HyperRectangle:
    if not isinstance(obj, dict) or set(obj) != {"lower", "upper"}:
        raise FileFormatError(f"{where}: expected {{lower: [...], upper: [...]}}")
    lo = [_num_in(v, where) for v in obj["lower"]]
    hi = [_num_in(v, where) for v in obj["upper"]]
    if len(lo) != dim or len(hi) != dim:
        raise FileFormatError(f"{where}: expected {dim} entries per side")
    if any(math.isnan(v) for v in lo + hi):
        raise FileFormatError(f"{where}: bounds must not be NaN")
    return HyperRectangle(lo, hi)


# ----------------------------------------------------------------- models

def model_to_dict(model: SwitchedAffineModel) -> dict:
    doc = {
        "n": model.n, "n_u": model.n_u, "n_y": model.n_y,
        "modes": [{
            "A": _flat(m.A), "B": _flat(m.B), "C": _flat(m.C),
            "f": _flat(m.f), "hatA": _flat(m.hatA), "hatB": _flat(m.hatB),
            "hatC": _flat(m.hatC), "hatf": _flat(m.hatf),
        } for m in model.modes],
        "state_bounds": _bounds_out(model.state_set),
        "noise_bounds": _bounds_out(model.noise_set),
        "input_bounds": _bounds_out(model.input_set),
    }
    if model.name:
        doc["name"] = model.name
    return doc


def model_from_dict(doc: dict) -> SwitchedAffineModel:
    if not isinstance(doc, dict):
        raise FileFormatError("model document must be an object")
    try:
        n = int(doc["n"])
        n_u = int(doc["n_u"])
        n_y = int(doc["n_y"])
        raw_modes = doc["modes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"model document is missing fields: {exc}") from exc
    if not isinstance(raw_modes, list) or not raw_modes:
        raise FileFormatError("modes must be a nonempty array")
    modes = []
    shapes = {"A": (n, n), "B": (n, n_u), "C": (n_y, n), "f": (n, 1),
              "hatA": (n, n), "hatB": (n, n_u), "hatC": (n_y, n),
              "hatf": (n, 1)}
    for idx, entry in enumerate(raw_modes):
        if not isinstance(entry, dict):
            raise FileFormatError(f"mode {idx + 1} must be an object")
        fields = {}
        for key, (r, c) in shapes.items():
            where = f"mode {idx + 1} field {key}"
            if key in entry:
                fields[key] = _unflat(entry[key], r, c, where)
            elif key.startswith("hat"):
                fields[key] = np.zeros((r, c))  # omitted uncertainty is zero
            else:
                raise FileFormatError(f"{where} is required")
        modes.append(AffineMode(
            A=fields["A"], B=fields["B"], C=fields["C"],
            f=fields["f"].ravel(), hatA=fields["hatA"], hatB=fields["hatB"],
            hatC=fields["hatC"], hatf=fields["hatf"].ravel()))
    try:
        return SwitchedAffineModel(
            modes,
            state_set=_bounds_in(doc["state_bounds"], n, "state_bounds"),
            noise_set=_bounds_in(doc["noise_bounds"], n_y, "noise_bounds"),
            input_set=_bounds_in(doc["input_bounds"], n_u, "input_bounds"),
            name=str(doc.get("name", "")))
    except (FileFormatError, DimensionError):
        raise
    except KeyError as exc:
        raise FileFormatError(f"model document is missing {exc}") from exc
    except Exception as exc:
        raise FileFormatError(f"model document is inconsistent: {exc}") from exc


def save_model(model: SwitchedAffineModel, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2, allow_nan=False) + "\n")


def load_model(path) -> SwitchedAffineModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_dict(doc)


# ------------------------------------------------------------ trajectories

def trajectory_to_csv(traj: Trajectory) -> str:
    n_u, n_y = traj.inputs.shape[1], traj.outputs.shape[1]
    header = (["k"] + [f"u_{j + 1}" for j in range(n_u)]
              + [f"y_{j + 1}" for j in range(n_y)])
    lines = [",".join(header)]
    for k in range(len(traj)):
        row = [str(k)] + [repr(float(v)) for v in traj.inputs[k]] \
            + [repr(float(v)) for v in traj.outputs[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_HEADER_TOKEN = re.compile(r"^(k|u_(\d+)|y_(\d+))$")


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FileFormatError("empty trajectory document")
    header = [tok.strip() for tok in lines[0].split(",")]
    if header[:1] != ["k"]:
        raise FileFormatError("trajectory header must start with the k column")
    n_u = n_y = 0
    for pos, tok in enumerate(header[1:]):
        match = _HEADER_TOKEN.match(tok)
        if match is None:
            raise FileFormatError(f"bad trajectory column name {tok!r}")
        if match.group(2) is not None:
            if n_y or int(match.group(2)) != n_u + 1:
                raise FileFormatError("input columns must be u_1..u_m before y_1..y_p")
            n_u += 1
        elif match.group(3) is not None:
            if int(match.group(3)) != n_y + 1:
                raise FileFormatError("output columns must be y_1..y_p in order")
            n_y += 1
    if n_y == 0:
        raise FileFormatError("a trajectory needs at least one output column")
    rows = lines[1:]
    if not rows:
        raise FileFormatError("a trajectory needs at least one sample row")
    u = np.zeros((len(rows), n_u))
    y = np.zeros((len(rows), n_y))
    for i, line in enumerate(rows):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 1 + n_u + n_y:
            raise FileFormatError(
                f"row {i}: expected {1 + n_u + n_y} cells, got {len(cells)}")
        try:
            k = int(cells[0])
            values = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise FileFormatError(f"row {i}: {exc}") from exc
        if k != i:
            raise FileFormatError(f"row {i}: time index {k} out of order")
        for name, value in zip(header[1:], values):
            if not math.isfinite(value):
                raise FileFormatError(
                    f"row {i}: non-finite value {value} in column {name}")
        u[i] = values[:n_u]
        y[i] = values[n_u:]
    return Trajectory(u, y)


def save_trajectory(traj: Trajectory, path) -> None:
    Path(path).write_text(trajectory_to_csv(traj))


def load_trajectory(path) -> Trajectory:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    try:
        return trajectory_from_csv(text)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# -------------------------------------------------------------- indicators

def indicator_to_dict(indicator: Indicator) -> dict:
    if isinstance(indicator, ExplicitWords):
        return {"words": [list(w) for w in indicator.words]}
    if isinstance(indicator, StructuredTuple):
        return {"tuple": {"S": list(indicator.modes), "W": indicator.window,
                          "m": indicator.count, "O": indicator.relation}}
    if isinstance(indicator, CountBand):
        return {"band": {"S": list(indicator.modes), "W": indicator.window,
                         "lo": indicator.at_least, "hi": indicator.at_most}}
    raise FileFormatError(f"not an indicator: {indicator!r}")


def _int_list(values, where: str) -> list[int]:
    if not isinstance(values, (list, tuple)) or not values:
        raise FileFormatError(f"{where}: expected a nonempty integer array")
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def indicator_from_dict(doc: dict) -> Indicator:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise FileFormatError(
            'an indicator document holds exactly one of "words", "tuple", "band"')
    try:
        if "words" in doc:
            return ExplicitWords(tuple(
                tuple(_int_list(w, "word")) for w in doc["words"]))
        if "tuple" in doc:
            t = doc["tuple"]
            return StructuredTuple(_int_list(t["S"], "tuple.S"),
                                   int(t["W"]), int(t["m"]), str(t["O"]))
        if "band" in doc:
            b = doc["band"]
            return CountBand(_int_list(b["S"], "band.S"),
                             int(b["W"]), int(b["lo"]), int(b["hi"]))
    except FileFormatError:
        raise
    except (BadIndicator, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad indicator document: {exc}") from exc
    raise FileFormatError(f"unknown indicator kind {set(doc)}")


def save_indicator(indicator: Indicator, path) -> None:
    Path(path).write_text(
        json.dumps(indicator_to_dict(indicator), indent=2, allow_nan=False) + "\n")


def load_indicator(path) -> Indicator:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    return indicator_from_dict(doc)


def parse_tuple_string(text: str) -> StructuredTuple:
    """Parse the inline form ``S=3,4;W=1;m=1;O==``."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        if "=" not in part:
            raise FileFormatError(f"bad indicator field {part!r} (expected key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise FileFormatError(f"duplicate indicator field {key!r}")
        fields[key] = value.strip()
    if set(fields) != {"S", "W", "m", "O"}:
        raise FileFormatError(
            f"an inline indicator needs exactly S, W, m, O; got {sorted(fields)}")
    try:
        modes = [int(v) for v in fields["S"].split(",")]
        return StructuredTuple(modes, int(fields["W"]), int(fields["m"]),
                               fields["O"])
    except (BadIndicator, ValueError) as exc:
        raise FileFormatError(f"bad inline indicator {text!r}: {exc}") from exc


def parse_indicator_arg(value: str) -> Indicator:
    """Interpret a CLI --indicator value: a file path or an inline tuple."""
    if Path(value).is_file():
        return load_indicator(value)
    if "=" in value:
        return parse_tuple_string(value)
    raise FileFormatError(
        f"indicator {value!r} is neither an existing file nor an inline tuple")
