"""Bundled models: builder values, shipped assets and scenario descriptions."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from swainval.encoder import StructuredTuple
from swainval.examples import (BUILTIN_NAMES, SENSOR_SCENARIOS, ScenarioSpec,
                               UnknownName, asset_path, builtin_pair,
                               load_builtin, numeric_family, numeric_fault,
                               numeric_system, radiant_continuous,
                               radiant_fault, radiant_system,
                               radiant_weak_fault, scenario_specs)
from swainval.fileio import load_model, model_to_dict


def assert_models_equal(a, b):
    assert a.name == b.name
    assert a.s == b.s
    for ma, mb in zip(a.modes, b.modes):
        for attr in ("A", "B", "C", "f", "hatA", "hatB", "hatC", "hatf"):
            assert np.array_equal(getattr(ma, attr), getattr(mb, attr)), attr
    for box_attr in ("state_set", "noise_set", "input_set"):
        assert np.array_equal(np.asarray(getattr(a, box_attr).lower),
                              np.asarray(getattr(b, box_attr).lower))
        assert np.array_equal(np.asarray(getattr(a, box_attr).upper),
                              np.asarray(getattr(b, box_attr).upper))


class TestNumericFamily:
    def test_shapes_and_bounds(self):
        g6 = numeric_system()
        assert (g6.s, g6.n, g6.n_u, g6.n_y) == (6, 3, 1, 1)
        assert np.asarray(g6.state_set.upper).tolist() == [11.0] * 3
        assert np.asarray(g6.input_set.upper).tolist() == [1000.0]
        assert np.asarray(g6.noise_set.upper).tolist() == [0.1]

    def test_spot_values(self):
        g6 = numeric_system()
        assert g6.modes[2].A[2, 0] == -0.9
        assert g6.modes[4].f.tolist() == [0.0, 1.0, 1.0]
        assert g6.modes[0].B.ravel().tolist() == [1.0, 0.0, 1.0]
        assert all(m.C.tolist() == [[1.0, 1.0, 1.0]] for m in g6.modes)

    def test_no_parameter_uncertainty(self):
        for mode in numeric_system().modes:
            assert not mode.hatA.any() and not mode.hatB.any()
            assert not mode.hatC.any() and not mode.hatf.any()

    def test_fault_values(self):
        gf = numeric_fault()
        assert gf.s == 1
        assert gf.modes[0].B.ravel().tolist() == [1.0, 0.0, 0.0]
        assert gf.modes[0].f.tolist() == [2.5, 2.5, 2.5]
        assert gf.modes[0].A[0].tolist() == [0.8, 0.7, 0.6]

    def test_family_restriction(self):
        g3 = numeric_family(3)
        assert g3.s == 3 and g3.name == "numeric3"
        g6 = numeric_system()
        for k in range(3):
            assert np.array_equal(g3.modes[k].A, g6.modes[k].A)
        with pytest.raises(UnknownName):
            numeric_family(7)

    def test_ideal_variant_zeroes_noise(self):
        g = load_builtin("numeric6", uncertainty=False)
        assert np.asarray(g.noise_set.upper).tolist() == [0.0]


class TestRadiantContinuous:
    def test_core_rows_follow_pump_status(self):
        A_off, f_off, _ = radiant_continuous(False, False)
        A_on, f_on, _ = radiant_continuous(True, True)
        assert A_off[0, 0] == -(1 / 0.125 + 1 / 0.125) / 3000.0
        assert A_on[0, 0] == -(1 / 0.125 + 1 / 0.125 + 1 / 0.07) / 3000.0
        assert f_off[0] == 0.0 and f_off[1] == 0.0
        assert f_on[0] == (1 / 0.07) * 18.0 / 3000.0
        assert f_on[1] == (1 / 0.05) * 18.0 / 4000.0

    def test_half_conductance_fault(self):
        A_half, f_half, _ = radiant_continuous(False, True, kw2=0.5 / 0.05)
        assert A_half[1, 1] == -(1 / 0.130 + 1 / 0.130 + 10.0) / 4000.0
        assert f_half[1] == 10.0 * 18.0 / 4000.0

    def test_ambient_coefficient_rows(self):
        _, _, g = radiant_continuous(False, False)
        assert g[0] == 0.0 and g[1] == 0.0
        assert g[2] == pytest.approx((1 / 2.1) / 1900.0)
        assert g[5] == pytest.approx((1 / 2.2) / 1800.0)

    def test_room_rows_are_diffusively_coupled(self):
        A, _, _ = radiant_continuous(False, False)
        # every off-diagonal coupling is nonnegative and each row's entries
        # sum to the negative of its ambient leakage
        assert np.all(A - np.diag(np.diag(A)) >= 0.0)
        row_sums = A.sum(axis=1)
        assert row_sums[0] == pytest.approx(0.0)
        assert row_sums[3] == pytest.approx(-(1 / 2.1) / 2100.0)


class TestRadiantDiscrete:
    def test_shapes_and_output_map(self):
        system = radiant_system()
        assert (system.s, system.n, system.n_u, system.n_y) == (4, 6, 0, 6)
        assert all(np.array_equal(m.C, np.eye(6)) for m in system.modes)
        assert np.asarray(system.state_set.lower).tolist() == [15.0] * 6
        assert np.asarray(system.state_set.upper).tolist() == [19.0] * 6

    def test_all_modes_stable(self):
        for model in (radiant_system(), radiant_fault(), radiant_weak_fault()):
            for mode in model.modes:
                assert np.max(np.abs(np.linalg.eigvals(mode.A))) < 1.0

    def test_discretization_matches_ode_integration(self):
        # one zero-order-hold step must agree with integrating the
        # continuous thermal balance, including a constant ambient offset
        Ac, fc, gc = radiant_continuous(True, True)
        mode = radiant_system().modes[3]
        x0 = np.array([16.0, 18.5, 15.5, 17.0, 18.0, 16.5])
        for delta in (0.0, 0.5):
            sol = solve_ivp(lambda _, x: Ac @ x + fc + gc * delta,
                            (0.0, 300.0), x0, rtol=1e-11, atol=1e-12)
            stepped = mode.A @ x0 + mode.f + np.sign(delta) * mode.hatf
            assert np.allclose(stepped, sol.y[:, -1], atol=1e-7)

    def test_uncertainty_mapping(self):
        system = radiant_system()
        for mode in system.modes:
            assert mode.hatf.shape == (6,)
            assert np.all(mode.hatf >= 0.0)
            # room rows carry most of the ambient spread
            assert np.all(mode.hatf[2:] > 0.01)
            assert np.all(mode.hatf <= 0.05)
        for mode in load_builtin("radiant", uncertainty=False).modes:
            assert not mode.hatf.any()

    def test_fault_is_half_capacity_always_on(self):
        fault = radiant_fault()
        assert fault.s == 2
        system = radiant_system()
        # fault modes differ from the pump2-on healthy modes only through
        # the halved conductance, so their core-2 drift is strictly smaller
        assert fault.modes[0].f[1] < system.modes[2].f[1]
        assert fault.modes[1].f[1] < system.modes[3].f[1]

    def test_weak_fault_shares_healthy_off_modes(self):
        system = radiant_system()
        weak = radiant_weak_fault()
        fault = radiant_fault()
        assert weak.s == 4
        for k in (0, 1):
            assert np.array_equal(weak.modes[k].A, system.modes[k].A)
            assert np.array_equal(weak.modes[k].f, system.modes[k].f)
        for k, fk in ((2, 0), (3, 1)):
            assert np.array_equal(weak.modes[k].A, fault.modes[fk].A)
            assert np.array_equal(weak.modes[k].f, fault.modes[fk].f)

    def test_noise_box(self):
        assert np.asarray(radiant_system().noise_set.upper).tolist() == \
            [0.05] * 6
        ideal = load_builtin("radiant", uncertainty=False)
        assert np.asarray(ideal.noise_set.upper).tolist() == [0.0] * 6


class TestSensorScenarios:
    def test_measured_sets(self):
        assert SENSOR_SCENARIOS[1] == (0, 1, 2, 3, 4, 5)
        assert SENSOR_SCENARIOS[2] == (1, 2, 3, 4, 5)
        assert SENSOR_SCENARIOS[3] == (2, 3, 4, 5)
        assert SENSOR_SCENARIOS[4] == (0, 1, 2, 3)
        assert SENSOR_SCENARIOS[5] == (1, 2, 4)

    @pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
    def test_selector_output_maps(self, idx):
        system, fault = builtin_pair(f"sensorScenario{idx}")
        rows = SENSOR_SCENARIOS[idx]
        expected_C = np.eye(6)[list(rows)]
        assert np.array_equal(system.modes[0].C, expected_C)
        assert np.array_equal(fault.modes[0].C, expected_C)
        assert system.n_y == len(rows) == fault.n_y
        assert np.asarray(system.noise_set.upper).shape == (len(rows),)


class TestBuiltinRegistry:
    def test_names(self):
        assert set(BUILTIN_NAMES) >= {"numeric6", "numericFault", "radiant",
                                      "radiantFault", "radiantWeakFault",
                                      "sensorScenario1", "sensorScenario5"}

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownName):
            load_builtin("nope")
        with pytest.raises(UnknownName):
            builtin_pair("nope")
        with pytest.raises(UnknownName):
            asset_path("nope")

    def test_pairs(self):
        system, fault = builtin_pair("radiant")
        assert system.name == "radiant" and fault.name == "radiantFault"
        system, weak = builtin_pair("radiantWeak")
        assert weak.name == "radiantWeakFault"
        g6, gf = builtin_pair("numeric6")
        assert g6.s == 6 and gf.s == 1

    def test_all_builtins_validate(self):
        # the model constructor admits only valid models
        for name in BUILTIN_NAMES:
            assert load_builtin(name).name == name


class TestShippedAssets:
    @pytest.mark.parametrize("name", list(BUILTIN_NAMES))
    def test_assets_match_builders(self, name):
        shipped = load_model(asset_path(name))
        assert_models_equal(shipped, load_builtin(name))

    @pytest.mark.parametrize("name", list(BUILTIN_NAMES))
    def test_assets_validate(self, name):
        assert load_model(asset_path(name)).name == name

    def test_assets_are_regenerable_byte_identically(self):
        for name in BUILTIN_NAMES:
            current = asset_path(name).read_text()
            regenerated = json.dumps(model_to_dict(load_builtin(name)),
                                     indent=2, allow_nan=False) + "\n"
            assert current == regenerated, name


class TestScenarioSpecs:
    def test_referenced_files_exist_and_validate(self):
        for spec in scenario_specs():
            assert spec.system_model_path.is_file(), spec.name
            assert spec.fault_model_path.is_file(), spec.name
            load_model(spec.system_model_path)
            load_model(spec.fault_model_path)

    def test_weak_scenario_carries_indicator(self):
        by_name = {s.name: s for s in scenario_specs()}
        weak = by_name["radiant-weak-detectability"]
        assert isinstance(weak.indicator, StructuredTuple)
        assert (weak.indicator.modes, weak.indicator.window,
                weak.indicator.count, weak.indicator.relation) == \
            ((3, 4), 1, 1, "=")

    def test_sensor_scenarios_are_ideal(self):
        for spec in scenario_specs():
            if spec.name.startswith("sensor-scenario-"):
                assert spec.uncertainty is False
                assert spec.expected in {"T=1", "T=2"}

    def test_spec_normalises_grids(self):
        spec = ScenarioSpec(name="x",
                            system_model_path=asset_path("radiant"),
                            fault_model_path=asset_path("radiantFault"),
                            horizon_grid=[np.int64(3)], seeds=[np.int64(1)])
        assert spec.horizon_grid == (3,) and spec.seeds == (1,)
