"""Scenario files: round trips and the checks made when one is loaded."""
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from canf.bench import MonteCarloConfig, run_monte_carlo, run_trial
from canf.channel import synthesize
from canf.geometry import CoprimeParams, build_dense_layout
from canf.scenario import Scenario, default_benchmark_scenario


def test_round_trip_of_default_scenario(tmp_path):
    scenario = default_benchmark_scenario()
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    path = tmp_path / "scenario.json"
    scenario.save(path)
    assert Scenario.load(path) == scenario


def test_unknown_model_rejected_at_load():
    data = default_benchmark_scenario().to_dict()
    data["model"] = "planar"
    with pytest.raises(ValueError, match="planar"):
        Scenario.from_dict(data)


def test_unknown_model_rejected_at_construction():
    # A sweep over a directly built scenario must refuse it, not fail every trial.
    with pytest.raises(ValueError, match="model must be one of .*'bogus'"):
        dataclasses.replace(default_benchmark_scenario(), model="bogus")


@pytest.mark.parametrize(
    "drop, message",
    [
        ({"targets"}, "scenario is missing 'targets'"),
        ({"M", "N"}, "scenario is missing 'M', 'N'"),
    ],
)
def test_missing_key_rejected_at_load(drop, message):
    data = {k: v for k, v in default_benchmark_scenario().to_dict().items() if k not in drop}
    with pytest.raises(ValueError, match=message):
        Scenario.from_dict(data)


@pytest.mark.parametrize("targets", [None, 5, [5], {"theta_deg": 10, "range_m": 30}, [[10, 30]]])
def test_targets_that_are_not_a_list_of_objects_rejected_at_load(targets):
    data = default_benchmark_scenario().to_dict()
    data["targets"] = targets
    with pytest.raises(ValueError, match="targets must be a list of objects"):
        Scenario.from_dict(data)


@pytest.mark.parametrize("data", [5, None, "MNtargets", [1]])
def test_scenario_that_is_not_an_object_rejected_at_load(data):
    with pytest.raises(ValueError, match="scenario must be an object"):
        Scenario.from_dict(data)


@pytest.mark.parametrize("key", ["snr_db", "d_mm", "freq_ghz", "theta_deg", "range_m"])
def test_an_integer_too_large_for_a_float_rejected_at_load(key):
    # float() of such an integer raises OverflowError, which used to escape
    # the load; the message names the key and leaves the 400 digits out.
    data = default_benchmark_scenario().to_dict()
    (data["targets"][0] if key in ("theta_deg", "range_m") else data)[key] = 10**400
    with pytest.raises(ValueError, match=f"^{key} is too large for a float$"):
        Scenario.from_dict(data)


@pytest.mark.parametrize(
    "key, value, derived, got",
    [
        ("freq_ghz", 1e300, "wavelength", 0.0),
        ("freq_ghz", 1e-320, "wavelength", math.inf),
        ("d_mm", 5e-324, "spacing", 0.0),
        # 4.0 * d_mm overflows before it is scaled to meters.
        ("d_mm", 1e308, "wavelength", math.inf),
    ],
)
def test_a_spacing_or_wavelength_out_of_float_range_names_its_key(key, value, derived, got):
    # Each value is finite and positive, but the spacing or wavelength it
    # gives underflows to 0 or overflows; the message used to name the
    # derived d or wavelength, which the file does not have.
    message = f"the {derived} from {key}={value!r} must be finite and positive, got {got!r}"
    data = default_benchmark_scenario().to_dict()
    del data["d_mm" if key == "freq_ghz" else "freq_ghz"]
    data[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Scenario.from_dict(data)


@pytest.mark.parametrize(
    "d_mm",
    [
        2.5,
        pytest.param(
            3.7,
            marks=pytest.mark.xfail(
                strict=True,
                reason="to_dict writes d * 1e3 and c / wavelength / 1e9, and reading them"
                " back rounds again: a wavelength of 0.0148 reloads as 0.014799999999999999",
            ),
        ),
    ],
)
def test_a_spacing_alone_gives_four_spacings_per_wavelength(tmp_path, d_mm):
    data = default_benchmark_scenario().to_dict()
    del data["freq_ghz"]
    data["d_mm"] = d_mm
    scenario = Scenario.from_dict(data)
    assert scenario.params.d == d_mm * 1e-3
    assert scenario.params.wavelength == 4 * scenario.params.d
    path = tmp_path / "scenario.json"
    scenario.save(path)
    assert Scenario.load(path) == scenario


def test_missing_target_key_rejected_at_load():
    data = default_benchmark_scenario().to_dict()
    del data["targets"][0]["range_m"]
    with pytest.raises(ValueError, match="scenario target 0 is missing 'range_m'"):
        Scenario.from_dict(data)


def test_integral_floats_load_as_integers(tmp_path):
    # JSON has one number type: 1e3 and 9.0 are integers, 50.7 is not
    # (test_cli::test_bad_scenario_value_is_a_usage_error).
    path = tmp_path / "scenario.json"
    text = default_benchmark_scenario().to_dict()
    text.update({"M": 9.0, "N": 11.0, "T": 1000, "seed": 2.0})
    path.write_text(json.dumps(text).replace('"T": 1000', '"T": 1e3'), encoding="utf-8")
    scenario = Scenario.load(path)
    loaded = (scenario.params.m, scenario.params.n, scenario.n_snapshots, scenario.seed)
    assert loaded == (9, 11, 1000, 2) and all(type(v) is int for v in loaded)


def test_warns_when_targets_exceed_capacity():
    data = default_benchmark_scenario().to_dict()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Scenario.from_dict(data)
    # max_targets(2, 3)[0] == 3, and the scenario has 4 targets.
    data["M"], data["N"] = 2, 3
    with pytest.warns(UserWarning, match="4 targets exceed the capacity 3"):
        Scenario.from_dict(data)


def test_snapshots_draw_at_the_scenario_snr():
    # Another SNR is another scenario; +inf and None are both the noise-free
    # synthesis, bit for bit.
    scenario = default_benchmark_scenario(snr_db=10.0)
    assert scenario.snapshots().sigma2 == 0.1
    noise_free = synthesize(
        scenario.layout(), scenario.targets, scenario.n_snapshots, None, 3, scenario.model
    )
    for snr_db in (math.inf, None):
        snaps = dataclasses.replace(scenario, snr_db=snr_db).snapshots(seed=3)
        assert snaps.sigma2 == 0.0 and snaps.snr_db is None
        assert np.array_equal(snaps.y, noise_free.y) and np.array_equal(snaps.x, noise_free.x)


def test_reversed_pair_loads_to_the_same_params_and_saves_ordered(tmp_path):
    data = default_benchmark_scenario().to_dict()
    data["M"], data["N"] = 11, 9
    reversed_pair = Scenario.from_dict(data)
    assert reversed_pair.params == default_benchmark_scenario().params
    assert reversed_pair.layout() == default_benchmark_scenario().layout()
    path = tmp_path / "scenario.json"
    reversed_pair.save(path)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert (saved["M"], saved["N"]) == (9, 11)


def test_wide_spacing_warns_once_at_load_and_not_on_layout():
    data = default_benchmark_scenario().to_dict()
    data["d_mm"] *= 2.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = Scenario.from_dict(data)
        assert len(caught) == 1 and "exceeds lambda/4" in str(caught[0].message)
        scenario.layout()
        scenario.layout()
        scenario.snapshots()
        assert len(caught) == 1
        scenario.dense_layout()
        config = MonteCarloConfig(scenario, (20.0,), q_trials=1, methods=("dense",))
        for trial in range(3):
            run_trial("dense", scenario, 20.0, trial, config)
        assert len(caught) == 1
        assert not run_monte_carlo(config).records[0].failed
        assert len(caught) == 1


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (9, 11)])
def test_dense_layout_is_the_dense_array_of_the_coprime_size(m, n):
    scenario = default_benchmark_scenario()
    p = scenario.params
    scenario = dataclasses.replace(scenario, params=CoprimeParams(m, n, p.d, p.wavelength))
    dense = scenario.dense_layout()
    assert dense == build_dense_layout(scenario.layout().size, p.d, p.wavelength)
    assert dense.coprime is None


def test_null_snr_and_integer_numbers_load():
    # A null snr_db is noise-free, and a JSON integer is a number.
    data = default_benchmark_scenario().to_dict()
    del data["d_mm"]
    data.update({"snr_db": None, "freq_ghz": 30})
    data["targets"][0]["theta_deg"] = -35
    assert Scenario.from_dict(data) == default_benchmark_scenario(snr_db=None)
