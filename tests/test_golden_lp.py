"""Golden LP text of encodings that cover every row family.

``export_lp`` writes every variable, bound, row, term and coefficient in a
fixed order with 17 significant digits, so its SHA-256 pins an encoding
bit for bit: variable order, row order, the term order inside each row,
coefficients, right-hand sides and bounds.  The toy models below carry
nonzero ``hatA``, ``hatB``, ``hatC`` and ``hatf`` so that the ``ZA``/
``ZB``/``ZC``/``Df`` variables, the shared ``absx``/``absu`` rows and the
``|Z| <= hat z`` rows (``z.ub[Z]``/``z.lb[Z]``) all occur, next to the
``out``/``dyn``/``match``/``mode``/``pair`` rows and both indicator
forms.  The ``ZB`` of a data window multiply observed inputs, those of a
pair the shared ``u``.  Three more digests pin the benchmark's own
encodings: a radiant monitor window, a numeric3 window and the ideal
sensorScenario3 pair at T=2.
"""

import hashlib

import numpy as np
import pytest

from swainval.encoder import (CountBand, ExplicitWords, StructuredTuple,
                              apply_indicator, encode_invalidation,
                              encode_t_detectability)
from swainval.examples import builtin_pair, load_builtin, numeric_family
from swainval.milp import export_lp
from swainval.model import (AffineMode, HyperRectangle, RandomPolicy,
                            SwitchedAffineModel, Trajectory, simulate_random)


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

# the input samples u_0[1] and u_1[0] are exactly 0, so the ZB products
# that multiply them are pinned to 0
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


def radiant_window():
    # a 4-sample window of the radiant monitor's model: ungated ``out``
    # rows, ``Df`` draws and no input
    radiant = load_builtin("radiant")
    window, _ = simulate_random(radiant, seed=0, steps=4)
    return encode_invalidation(radiant, window).problem


def numeric3_window():
    # a 6-sample window of the numeric sweep's model, with certain modes
    numeric3 = numeric_family(3)
    window, _ = simulate_random(
        numeric3, seed=0, steps=6,
        policy=RandomPolicy(input_box=HyperRectangle([-1.0], [1.0])))
    return encode_invalidation(numeric3, window).problem


def sensor_scenario3_pair():
    # the ideal sensorScenario3 pair at T=2, as find_T probes it
    return encode_t_detectability(
        *builtin_pair("sensorScenario3", uncertainty=False), 2).problem


@pytest.mark.parametrize("build, expected", [
    (invalidation_window,
     "416435347a4695fd0cf0c5973d345fd3bc6ea403986fbc5b5abb2c2a9089462d"),
    (uncertain_pair,
     "9c142365c893829d8695307abc0ecb5435c8f409b3c8e7109c7b06797f13386e"),
    (explicit_words,
     "358b9dd04b2e928958514e087d6ccd898d6df75a0b20c229e8b755cd566f4dfb"),
    (count_band,
     "1b3dd5ead297b4fe851719819d7d2d81c4fb48dfda5b1a0852e48f486f31e6f1"),
    (radiant_weak_indicator,
     "8ac486ea535a119d729a914debf909cd7fdab75391fe70f06408f21ca587ec40"),
    (radiant_window,
     "7d1b20b15b807089e74ae0804c82c7eb27753b5a622066aa78868f271daff724"),
    (numeric3_window,
     "a10065cdd5b5b3f1794f49bf1f80052ca3f8d8d7591eb262f6644e377381089e"),
    (sensor_scenario3_pair,
     "b0d5f1eb3f7837beec467890392b70380d6ebef9df6e55385ac0796e4deaa4ef"),
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
    assert any(v.startswith("ZB[") for v in window.variable_names)
    # ZB[2][0][0][1] multiplies u_0[1] = 0: its bounds pin it to 0, and its
    # term stays in its row
    assert window.bounds_of("ZB[2][0][0][1]") == (-0.0, 0.0)
    assert any(v == "ZB[2][0][0][1]" for c in window.constraints
               for _, v in c.terms)
    assert any(c.name.startswith("ind.sel") for c in explicit_words().constraints)
    assert {c.name for c in count_band().constraints} >= {"ind.count.lo",
                                                          "ind.count.hi"}
    assert "ind.count" in {c.name for c in radiant_weak_indicator().constraints}
