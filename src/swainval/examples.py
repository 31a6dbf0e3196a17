"""Bundled benchmark models and scenario descriptions.

Two model families ship with the package:

* ``numeric6`` — a three-state benchmark with six affine modes, a shared
  input/output map and generous box bounds, plus a single-mode ``numericFault``
  whose offset drives the state away from anything the healthy modes can
  produce.  ``numeric_family(t)`` restricts the system to its first ``t``
  modes.

* ``radiant`` — a four-room building heated through two concrete cores by two
  water pumps.  The continuous-time thermal balance of each room/core is
  assembled from conductances and heat capacities, then discretized with a
  300-second zero-order hold.  The four modes enumerate the pump on/off
  combinations (1 = both off, 2 = pump 1 on, 3 = pump 2 on, 4 = both on).
  ``radiantFault`` models the second valve stuck half-open: the pump-2
  conductance is halved and only the pump-1 switch remains (2 modes).
  ``radiantWeakFault`` is the variant where the valve still closes but opens
  only half-way: its first two modes equal the healthy pump-2-off modes and
  the last two run pump 2 at half conductance (4 modes).
  Ambient temperature is 10 ± 0.5; the ±0.5 spread is mapped through the
  discretization into a per-row offset uncertainty (``hatf``).

``sensorScenario1..5`` are the radiant system with a reduced sensor set; the
matching fault variants share the same output map.  All models are also
shipped as JSON files under ``assets/`` (see ``asset_path``), regenerated by
``scripts/generate_assets.py``; the in-code builders are the source of truth.

The builders return the models with their noise and parameter spread.  The
idealized variants come from ``load_builtin(name, uncertainty=False)``, which
applies ``strip_uncertainty`` as the CLI's ``--no-uncertainty`` does.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .encoder import Indicator, StructuredTuple
from .model import (AffineMode, HyperRectangle, SwitchedAffineModel,
                    discretize_affine, strip_uncertainty, submodel)

__all__ = [
    "UnknownName",
    "ScenarioSpec",
    "BUILTIN_NAMES",
    "SENSOR_SCENARIOS",
    "numeric_system",
    "numeric_fault",
    "numeric_family",
    "radiant_continuous",
    "radiant_system",
    "radiant_fault",
    "radiant_weak_fault",
    "load_builtin",
    "builtin_pair",
    "asset_path",
    "scenario_specs",
]


class UnknownName(LookupError):
    """Raised when a builtin model or pair name is not recognised."""


# -- numeric benchmark family -------------------------------------------------

_NUMERIC_A = [
    [[0.5, 0.5, 0.5], [0.1, -0.2, 0.5], [-0.4, 0.6, 0.2]],
    [[0.5, 0.5, 0.5], [-0.3, -0.2, 0.3], [0.1, -0.3, -0.5]],
    [[0.5, 0.2, 0.6], [0.2, -0.2, 0.2], [-0.9, 0.7, 0.1]],
    [[-0.5, 0.5, 0.8], [0.1, -0.2, -0.6], [0.2, -0.6, 0.3]],
    [[0.8, 0.5, 0.2], [-0.1, 0.2, -0.3], [0.5, 0.4, -0.1]],
    [[-0.3, 0.8, -0.1], [0.4, -0.1, 0.3], [0.9, -0.2, 0.6]],
]
_NUMERIC_F = [
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 1.0, 0.0],
    [0.0, 1.0, 1.0],
    [1.0, 0.0, 1.0],
]
_NUMERIC_B = [[1.0], [0.0], [1.0]]
_NUMERIC_C = [[1.0, 1.0, 1.0]]
_NUMERIC_FAULT_A = [[0.8, 0.7, 0.6], [0.1, -0.2, 0.3], [-0.4, 0.3, -0.2]]
_NUMERIC_FAULT_B = [[1.0], [0.0], [0.0]]
_NUMERIC_FAULT_F = [2.5, 2.5, 2.5]


def _numeric_sets() -> dict:
    return {
        "state_set": HyperRectangle([-11.0] * 3, [11.0] * 3),
        "input_set": HyperRectangle([-1000.0], [1000.0]),
        "noise_set": HyperRectangle([-0.1], [0.1]),
    }


def numeric_system() -> SwitchedAffineModel:
    """The six-mode, three-state benchmark system.

    Its measurement noise lies in [-0.1, 0.1]; the mode matrices carry no
    parameter uncertainty.
    """
    modes = [
        AffineMode.certain(A=np.array(a), B=np.array(_NUMERIC_B),
                           C=np.array(_NUMERIC_C), f=np.array(f))
        for a, f in zip(_NUMERIC_A, _NUMERIC_F)
    ]
    return SwitchedAffineModel(modes, name="numeric6", **_numeric_sets())


def numeric_fault() -> SwitchedAffineModel:
    """A single-mode affine fault sharing the benchmark system's bounds."""
    mode = AffineMode.certain(A=np.array(_NUMERIC_FAULT_A),
                              B=np.array(_NUMERIC_FAULT_B),
                              C=np.array(_NUMERIC_C),
                              f=np.array(_NUMERIC_FAULT_F))
    return SwitchedAffineModel([mode], name="numericFault", **_numeric_sets())


def numeric_family(t: int) -> SwitchedAffineModel:
    """The benchmark system restricted to its first ``t`` modes (1 <= t <= 6)."""
    if not 1 <= t <= 6:
        raise UnknownName(f"numeric family size must be in 1..6, got {t}")
    return replace(submodel(numeric_system(), 1, t), name=f"numeric{t}")


# -- radiant-floor heating system ---------------------------------------------

_TA = 10.0                      # ambient temperature
_K1 = _K2 = 1 / 2.1             # room-to-ambient conductances
_K3 = _K4 = 1 / 2.2
_KC1 = _KC3 = 1 / 0.125         # core-to-room conductances
_KC2 = _KC4 = 1 / 0.130
_K12 = _K13 = _K24 = _K34 = 1 / 0.16   # room-to-room conductances
_KW1 = 1 / 0.07                 # pump-1 water-to-core conductance
_KW2 = 1 / 0.05                 # pump-2 water-to-core conductance
_KW2_HALF = 0.5 / 0.05          # valve stuck/limited at half capacity
_C1, _C2, _C3, _C4 = 1900.0, 2100.0, 2000.0, 1800.0   # room heat capacities
_CC1, _CC2 = 3000.0, 4000.0     # core heat capacities
_TW1 = _TW2 = 18.0              # supply water temperatures
_DT = 300.0                     # sampling period, seconds

#: measured-state index sets, in the state order (Tc1, Tc2, T1, T2, T3, T4)
SENSOR_SCENARIOS: dict[int, tuple[int, ...]] = {
    1: (0, 1, 2, 3, 4, 5),
    2: (1, 2, 3, 4, 5),
    3: (2, 3, 4, 5),
    4: (0, 1, 2, 3),
    5: (1, 2, 4),
}


def radiant_continuous(pump1: bool, pump2: bool,
                       kw2: float = _KW2) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Continuous-time thermal balance for one pump configuration.

    Returns ``(A, f, g)`` with state order (Tc1, Tc2, T1, T2, T3, T4), where
    ``g`` is the coefficient of the ambient temperature per state row, so the
    drift decomposes as ``f = f0 + g * Ta`` and an ambient offset ``delta``
    shifts the drift by ``g * delta``.
    """
    A = np.zeros((6, 6))
    f = np.zeros(6)
    g = np.zeros(6)
    A[0, 0] = -(_KC1 + _KC3 + (_KW1 if pump1 else 0.0)) / _CC1
    A[0, 2] = _KC1 / _CC1
    A[0, 4] = _KC3 / _CC1
    if pump1:
        f[0] = _KW1 * _TW1 / _CC1
    A[1, 1] = -(_KC2 + _KC4 + (kw2 if pump2 else 0.0)) / _CC2
    A[1, 3] = _KC2 / _CC2
    A[1, 5] = _KC4 / _CC2
    if pump2:
        f[1] = kw2 * _TW2 / _CC2
    A[2, 0] = _KC1 / _C1
    A[2, 2] = -(_KC1 + _K1 + _K12 + _K13) / _C1
    A[2, 3] = _K12 / _C1
    A[2, 4] = _K13 / _C1
    f[2] = _K1 * _TA / _C1
    g[2] = _K1 / _C1
    A[3, 1] = _KC2 / _C2
    A[3, 2] = _K12 / _C2
    A[3, 3] = -(_KC2 + _K2 + _K12 + _K24) / _C2
    A[3, 5] = _K24 / _C2
    f[3] = _K2 * _TA / _C2
    g[3] = _K2 / _C2
    A[4, 0] = _KC1 / _C3
    A[4, 2] = _K13 / _C3
    A[4, 4] = -(_KC1 + _K3 + _K13 + _K34) / _C3
    A[4, 5] = _K34 / _C3
    f[4] = _K3 * _TA / _C3
    g[4] = _K3 / _C3
    A[5, 1] = _KC2 / _C4
    A[5, 3] = _K24 / _C4
    A[5, 4] = _K34 / _C4
    A[5, 5] = -(_KC2 + _K4 + _K24 + _K34) / _C4
    f[5] = _K4 * _TA / _C4
    g[5] = _K4 / _C4
    return A, f, g


def _radiant_mode(pump1: bool, pump2: bool, kw2: float,
                  measured) -> AffineMode:
    Ac, fc, gc = radiant_continuous(pump1, pump2, kw2)
    Ad, Gd, fd = discretize_affine(Ac, gc.reshape(6, 1), fc, _DT)
    C = np.eye(6)[list(measured)]
    return AffineMode(A=Ad, B=np.zeros((6, 0)), C=C, f=fd,
                      hatA=np.zeros((6, 6)), hatB=np.zeros((6, 0)),
                      hatC=np.zeros_like(C), hatf=np.abs(Gd.ravel()) * 0.5)


def _radiant_sets(measured) -> dict:
    p = len(measured)
    return {
        "state_set": HyperRectangle([15.0] * 6, [19.0] * 6),
        "noise_set": HyperRectangle([-0.05] * p, [0.05] * p),
        "input_set": HyperRectangle([], []),
    }


def radiant_system(*, measured=SENSOR_SCENARIOS[1],
                   name: str = "radiant") -> SwitchedAffineModel:
    """The healthy four-mode radiant heating system."""
    modes = [_radiant_mode(p1, p2, _KW2, measured)
             for p1, p2 in [(False, False), (True, False),
                            (False, True), (True, True)]]
    return SwitchedAffineModel(modes, name=name, **_radiant_sets(measured))


def radiant_fault(*, measured=SENSOR_SCENARIOS[1],
                  name: str = "radiantFault") -> SwitchedAffineModel:
    """Pump-2 valve stuck half-open: pump 2 always runs at half conductance."""
    modes = [_radiant_mode(p1, True, _KW2_HALF, measured)
             for p1 in [False, True]]
    return SwitchedAffineModel(modes, name=name, **_radiant_sets(measured))


def radiant_weak_fault(*, measured=SENSOR_SCENARIOS[1],
                       name: str = "radiantWeakFault") -> SwitchedAffineModel:
    """Pump-2 valve limited to half capacity but still able to close.

    Modes 1-2 equal the healthy pump-2-off modes; modes 3-4 run pump 2 at
    half conductance.  Because the first two modes coincide with healthy
    behaviour, this fault is only separable on windows where one of the last
    two modes is known to be active (an indicator constraint).
    """
    modes = [_radiant_mode(False, False, _KW2, measured),
             _radiant_mode(True, False, _KW2, measured),
             _radiant_mode(False, True, _KW2_HALF, measured),
             _radiant_mode(True, True, _KW2_HALF, measured)]
    return SwitchedAffineModel(modes, name=name, **_radiant_sets(measured))


# -- builtin registry ----------------------------------------------------------


_BUILDERS = {
    "numeric6": numeric_system,
    "numericFault": numeric_fault,
    "radiant": radiant_system,
    "radiantFault": radiant_fault,
    "radiantWeakFault": radiant_weak_fault,
}
for _i, _measured in SENSOR_SCENARIOS.items():
    _BUILDERS[f"sensorScenario{_i}"] = partial(
        radiant_system, measured=_measured, name=f"sensorScenario{_i}")
    _BUILDERS[f"sensorScenario{_i}Fault"] = partial(
        radiant_fault, measured=_measured, name=f"sensorScenario{_i}Fault")

#: every name accepted by load_builtin
BUILTIN_NAMES: tuple[str, ...] = tuple(_BUILDERS)

_PAIRS = {
    "numeric6": ("numeric6", "numericFault"),
    "radiant": ("radiant", "radiantFault"),
    "radiantWeak": ("radiant", "radiantWeakFault"),
}
for _i in SENSOR_SCENARIOS:
    _PAIRS[f"sensorScenario{_i}"] = (f"sensorScenario{_i}",
                                     f"sensorScenario{_i}Fault")


def load_builtin(name: str, *,
                 uncertainty: bool = True) -> SwitchedAffineModel:
    """Build a bundled model by name.

    ``uncertainty=False`` returns its idealized variant,
    ``strip_uncertainty`` of the model: zero measurement noise and zero
    parameter spread.
    """
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise UnknownName(
            f"unknown builtin model {name!r}; known names: "
            + ", ".join(sorted(_BUILDERS))) from None
    model = build()
    return model if uncertainty else strip_uncertainty(model)


def builtin_pair(name: str, *, uncertainty: bool = True
                 ) -> tuple[SwitchedAffineModel, SwitchedAffineModel]:
    """Build a bundled (system, fault) pair by scenario name."""
    try:
        sys_name, fault_name = _PAIRS[name]
    except KeyError:
        raise UnknownName(
            f"unknown builtin pair {name!r}; known names: "
            + ", ".join(sorted(_PAIRS))) from None
    return (load_builtin(sys_name, uncertainty=uncertainty),
            load_builtin(fault_name, uncertainty=uncertainty))


# -- shipped assets and scenario descriptions ----------------------------------

_ASSET_DIR = Path(__file__).resolve().parent / "assets"


def asset_path(name: str) -> Path:
    """Path of the shipped JSON file for a builtin model name."""
    if name not in _BUILDERS:
        raise UnknownName(f"unknown builtin model {name!r}")
    return _ASSET_DIR / f"{name}.json"


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible study: a model pair, a probe grid and what to expect."""

    name: str
    system_model_path: Path
    fault_model_path: Path
    indicator: Indicator | None = None
    horizon_grid: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    expected: str = ""
    uncertainty: bool = True

    def __post_init__(self):
        object.__setattr__(self, "horizon_grid",
                           tuple(int(t) for t in self.horizon_grid))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


def scenario_specs() -> tuple[ScenarioSpec, ...]:
    """The bundled studies, in the order the experiment scripts run them."""
    specs = [
        ScenarioSpec(
            name="numeric-invalidation",
            system_model_path=asset_path("numeric6"),
            fault_model_path=asset_path("numericFault"),
            horizon_grid=(5, 10, 15, 20),
            seeds=tuple(range(10)),
            expected="invalidated at every horizon (system limited to its "
                     "first three modes)",
        ),
        ScenarioSpec(
            name="radiant-detectability",
            system_model_path=asset_path("radiant"),
            fault_model_path=asset_path("radiantFault"),
            horizon_grid=tuple(range(1, 11)),
            expected="T=8",
        ),
        ScenarioSpec(
            name="radiant-weak-detectability",
            system_model_path=asset_path("radiant"),
            fault_model_path=asset_path("radiantWeakFault"),
            indicator=StructuredTuple([3, 4], 1, 1, "="),
            horizon_grid=tuple(range(1, 11)),
            expected="T in [6,10]",
        ),
    ]
    ideal_t = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    for idx, expected_t in ideal_t.items():
        specs.append(ScenarioSpec(
            name=f"sensor-scenario-{idx}",
            system_model_path=asset_path(f"sensorScenario{idx}"),
            fault_model_path=asset_path(f"sensorScenario{idx}Fault"),
            horizon_grid=tuple(range(1, 6)),
            expected=f"T={expected_t}",
            uncertainty=False,
        ))
    return tuple(specs)
