"""Golden LP text of encodings that cover every row family.

``export_lp`` writes every variable, bound, row, term and coefficient in a
fixed order with 17 significant digits, so its SHA-256 pins an encoding
bit for bit: variable order, row order, the term order inside each row,
coefficients, right-hand sides and bounds.  The models below carry nonzero
``hatA``, ``hatB``, ``hatC`` and ``hatf`` so that the ``ZA``/``ZB``/``ZC``/
``DB``/``Df`` variables, the shared ``absx``/``absu`` rows and the
``bound_by_abs`` rows all occur, next to the ``out``/``dyn``/``match``/
``mode``/``pair`` rows and both indicator forms.
"""

import hashlib

import numpy as np
import pytest

from swainval.encoder import (CountBand, ExplicitWords, StructuredTuple,
                              apply_indicator, encode_invalidation,
                              encode_t_detectability)
from swainval.examples import builtin_pair
from swainval.milp import export_lp
from swainval.model import (AffineMode, HyperRectangle, SwitchedAffineModel,
                            Trajectory)


def uncertain_model(name: str, modes) -> SwitchedAffineModel:
    return SwitchedAffineModel(
        [AffineMode(**{k: np.array(v, dtype=float) for k, v in m.items()})
         for m in modes],
        state_set=HyperRectangle.ball(5.0, 2),
        noise_set=HyperRectangle.ball(0.1, 2),
        input_set=HyperRectangle.ball(1.0, 2), name=name)


SYSTEM = uncertain_model("golden", [
    dict(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0, 0.0], [0.2, 0.5]],
         C=[[1.0, 0.0], [0.5, 1.0]], f=[0.1, -0.2],
         hatA=[[0.05, 0.0], [0.0, 0.02]], hatB=[[0.1, 0.0], [0.0, 0.05]],
         hatC=[[0.0, 0.03], [0.0, 0.0]], hatf=[0.01, 0.0]),
    dict(A=[[0.2, 0.0], [0.1, 0.6]], B=[[0.5, 0.5], [0.0, 1.0]],
         C=[[1.0, 0.2], [0.0, 1.0]], f=[0.0, 0.3],
         hatA=[[0.0, 0.04], [0.0, 0.0]], hatB=[[0.0, 0.1], [0.05, 0.0]],
         hatC=[[0.02, 0.0], [0.0, 0.01]], hatf=[0.0, 0.02]),
])

FAULT = uncertain_model("goldenFault", [
    dict(A=[[0.4, 0.0], [0.2, 0.5]], B=[[0.8, 0.1], [0.0, 0.7]],
         C=[[1.0, 0.1], [0.3, 1.0]], f=[-0.1, 0.2],
         hatA=[[0.0, 0.03], [0.01, 0.0]], hatB=[[0.0, 0.05], [0.02, 0.0]],
         hatC=[[0.01, 0.0], [0.0, 0.02]], hatf=[0.0, 0.01]),
])

# the input samples u_0[1] and u_1[0] are exactly 0, so the DB terms that
# multiply them drop out of their rows
WINDOW = Trajectory([[0.3, 0.0], [0.0, -0.4], [0.2, 0.1]],
                    [[0.5, 0.2], [0.4, 0.1], [0.3, -0.1]])


def digest(problem) -> str:
    return hashlib.sha256(export_lp(problem.seal()).encode("utf-8")).hexdigest()


def invalidation_window():
    return encode_invalidation(SYSTEM, WINDOW).problem


def uncertain_pair():
    return encode_t_detectability(SYSTEM, FAULT, 2).problem


def explicit_words():
    system, fault = builtin_pair("sensorScenario1", uncertainty=False)
    enc = encode_t_detectability(system, fault, 2)
    apply_indicator(enc, ExplicitWords([(1, 2), (2, 2)]))
    return enc.problem


def count_band():
    enc = encode_t_detectability(SYSTEM, FAULT, 2)
    apply_indicator(enc, CountBand((1,), 2, 1, 1))
    return enc.problem


def radiant_weak_indicator():
    # the paper's radiant-weak indicator: exactly one of the fault's modes
    # 3 and 4 at the first step, one ``ind.count`` equality row
    return encode_t_detectability(
        *builtin_pair("radiantWeak"), 2,
        indicator=StructuredTuple([3, 4], 1, 1, "=")).problem


@pytest.mark.parametrize("build, expected", [
    (invalidation_window,
     "7a8726ada62c1e8ed2229e5cfdceaad3275f04eeabfe3a50ca533a17c6ccca78"),
    (uncertain_pair,
     "9c142365c893829d8695307abc0ecb5435c8f409b3c8e7109c7b06797f13386e"),
    (explicit_words,
     "358b9dd04b2e928958514e087d6ccd898d6df75a0b20c229e8b755cd566f4dfb"),
    (count_band,
     "1b3dd5ead297b4fe851719819d7d2d81c4fb48dfda5b1a0852e48f486f31e6f1"),
    (radiant_weak_indicator,
     "8ac486ea535a119d729a914debf909cd7fdab75391fe70f06408f21ca587ec40"),
])
def test_export_lp_digest(build, expected):
    assert digest(build()) == expected


def test_the_encodings_cover_every_row_family():
    def stems(problem):
        return {c.name.split("[")[0].rstrip("+-") for c in problem.constraints}

    assert {"mode", "out", "dyn", "absx"} <= stems(invalidation_window())
    pair = uncertain_pair()
    assert {"pair", "dyn", "dynb", "match", "absx", "absxb",
            "absu"} <= stems(pair)
    names = set(pair.variable_names)
    for role in ("ZA", "ZAb", "ZB", "ZBb", "ZC", "ZCb", "Df", "Dfb"):
        assert any(v.startswith(role + "[") for v in names), role
    window = invalidation_window()
    assert any(v.startswith("DB[") for v in window.variable_names)
    # DB[2][0][0][1] multiplies u_0[1] = 0: the variable exists, its term not
    assert "DB[2][0][0][1]" in window.variable_names
    assert not any(v == "DB[2][0][0][1]" for c in window.constraints
                   for _, v in c.terms)
    assert any(c.name.startswith("ind.sel") for c in explicit_words().constraints)
    assert {c.name for c in count_band().constraints} >= {"ind.count.lo",
                                                          "ind.count.hi"}
    assert "ind.count" in {c.name for c in radiant_weak_indicator().constraints}
