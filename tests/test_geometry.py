"""Geometry: layouts, coarrays, target-capacity arithmetic, and the integer,
number and finite-and-positive rules that every config applies to its fields."""
import dataclasses
import fractions
import functools
import math

import numpy as np
import pytest

from canf import (
    CoprimeParams,
    MusicConfig,
    PseudoSpectrum,
    Scenario,
    SensorLayout,
    SpectrumGrid,
    Target,
    TargetSet,
    associate,
    build_coprime_layout,
    build_dense_layout,
    build_subarrays,
    detect_peaks,
    difference_coarray,
    max_targets,
    synthesize_sweep,
)
from canf.bench import MonteCarloConfig
from canf.geometry import _integer, _real
from canf.scenario import default_benchmark_scenario

import oracles

LAM = 10e-3
COPRIME_PAIRS = [
    (m, n)
    for m in range(1, 13)
    for n in range(m + 1, 13)
    if math.gcd(m, n) == 1
]
# Pairs that CoprimeParams and max_targets reject, with the message.
BAD_PAIRS = [
    (2.5, 3, "m must be an integer, got 2.5"),
    (2, 3.9, "n must be an integer, got 3.9"),
    (True, 2, "m must be an integer, got True"),
    (3, False, "n must be an integer, got False"),
    ("2", 3, "m must be an integer"),
    (math.nan, 3, "m must be an integer"),
    (0, 1, "m must be at least 1, got 0"),
    (-2, 3, "m must be at least 1, got -2"),
    (2, -3.0, "n must be at least 1, got -3.0"),
]


class TestCoprimeParams:
    def test_swaps_reversed_pair(self):
        p = CoprimeParams(11, 9, 2.5e-3, LAM)
        assert (p.m, p.n) == (9, 11)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="not coprime"):
            CoprimeParams(4, 6, 2.5e-3, LAM)

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            CoprimeParams(3, 3, 2.5e-3, LAM)

    def test_wide_spacing_warns(self):
        with pytest.warns(UserWarning, match="lambda/4"):
            CoprimeParams(2, 3, LAM / 2.0, LAM)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CoprimeParams(2, 3, LAM / 2.0, LAM),
            lambda: build_dense_layout(5, LAM / 2.0, LAM),
        ],
        ids=["CoprimeParams", "build_dense_layout"],
    )
    def test_wide_spacing_warning_names_the_callers_line(self, build):
        # Through the dataclass-generated __init__ too, not a "<string>" line.
        with pytest.warns(UserWarning, match="lambda/4") as caught:
            build()
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("m,n,message", BAD_PAIRS)
    def test_rejects_what_is_not_a_positive_integer(self, m, n, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            CoprimeParams(m, n, 2.5e-3, LAM)

    def test_integral_floats_and_numpy_integers_become_ints(self):
        for m, n in [(3.0, 4.0), (np.int64(3), np.int32(4))]:
            p = CoprimeParams(m, n, 2.5e-3, LAM)
            assert (p.m, p.n) == (3, 4) and type(p.m) is int and type(p.n) is int


class TestCoprimeLayout:
    def test_m2_n3_positions(self, layout23):
        assert layout23.grid == (-4, -3, -2, 0, 2, 3, 4)
        assert layout23.size == 7

    def test_m9_n11_counts(self, layout911):
        assert layout911.size == 37

    def test_m9_n11_field_boundaries(self, layout911):
        # d = 2.5 mm, lambda = 10 mm
        assert layout911.aperture == pytest.approx(0.45, abs=1e-12)
        assert layout911.fresnel_distance == pytest.approx(0.54, abs=1e-12)
        assert layout911.rayleigh_distance == pytest.approx(40.5, abs=1e-9)

    def test_positions_in_meters(self, layout23, params23):
        np.testing.assert_allclose(
            layout23.positions, np.array(layout23.grid) * params23.d
        )

    @pytest.mark.parametrize("m,n", COPRIME_PAIRS)
    def test_symmetry_exact(self, m, n):
        layout = build_coprime_layout(CoprimeParams(m, n, LAM / 4.0, LAM))
        g = layout.grid
        assert all(g[i] == -g[len(g) - 1 - i] for i in range(len(g)))
        assert layout.size == 2 * (m + n - 1) - 1


class TestSensorLayout:
    @pytest.mark.parametrize(
        "grid, message",
        [
            ((), "at least one sensor"),
            ((0, 2, 1), "strictly ascending"),
            ((-1, 0, 0, 1), "strictly ascending"),
        ],
    )
    def test_grid_must_be_nonempty_and_strictly_ascending(self, grid, message):
        with pytest.raises(ValueError, match=message):
            SensorLayout(grid, LAM / 4.0, LAM)


class TestDenseLayout:
    def test_grid(self):
        layout = build_dense_layout(7, LAM / 4.0, LAM)
        assert layout.grid == (-3, -2, -1, 0, 1, 2, 3)

    def test_aperture_37(self):
        layout = build_dense_layout(37, 2.5e-3, LAM)
        assert layout.aperture == pytest.approx(0.09, abs=1e-12)

    @pytest.mark.parametrize("u", [2, 0, 4])
    def test_even_count_rejected(self, u):
        with pytest.raises(ValueError, match="odd"):
            build_dense_layout(u, LAM / 4.0, LAM)

    def test_smaller_aperture_than_coprime(self):
        for m, n in [(2, 3), (3, 4), (9, 11), (5, 7)]:
            cop = build_coprime_layout(CoprimeParams(m, n, LAM / 4.0, LAM))
            dense = build_dense_layout(cop.size, LAM / 4.0, LAM)
            assert dense.aperture < cop.aperture

    @pytest.mark.parametrize(
        "d, wavelength",
        [(math.inf, 1.0), (1e-3, math.inf), (0.0, LAM), (LAM / 4.0, -LAM), (math.nan, LAM)],
    )
    def test_spacing_and_wavelength_must_be_finite_and_positive(self, d, wavelength):
        with pytest.raises(ValueError, match="finite and positive"):
            build_dense_layout(5, d, wavelength)


class TestSubarrays:
    def test_m2_n3_positions(self, params23):
        sub1, sub2 = build_subarrays(params23)
        np.testing.assert_allclose(sub1.positions, np.array([-3, 0, 3]) * params23.d)
        np.testing.assert_allclose(
            sub2.positions, np.array([-4, -2, 0, 2, 4]) * params23.d
        )

    def test_m9_n11_counts(self, params911):
        sub1, sub2 = build_subarrays(params911)
        assert sub1.size == 17
        assert sub2.size == 21

    @pytest.mark.parametrize("m,n", COPRIME_PAIRS)
    def test_union_equals_coprime_layout(self, m, n):
        params = CoprimeParams(m, n, LAM / 4.0, LAM)
        layout = build_coprime_layout(params)
        sub1, sub2 = build_subarrays(params)
        union = {g * n for g in sub1.grid} | {g * m for g in sub2.grid}
        assert union == set(layout.grid)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (9, 11)])
    def test_subarrays_carry_no_parameters_and_smooth_their_whole_run(self, m, n):
        for sub in build_subarrays(CoprimeParams(m, n, LAM / 4.0, LAM)):
            assert sub.coprime is None
            ca = difference_coarray(sub)
            assert ca.smoothing_segment == ca.consecutive_segment


class TestDifferenceCoarray:
    def test_m2_n3_lags(self, layout23):
        ca = difference_coarray(layout23)
        assert ca.lags == tuple(range(-8, 9))
        assert len(ca.consecutive_segment) == 17
        assert ca.smoothing_segment == tuple(range(-6, 7))

    def test_lag_zero_multiplicity(self, layout23, layout911):
        for layout in (layout23, layout911):
            ca = difference_coarray(layout)
            assert ca.multiplicity[ca.lags.index(0)] == layout.size

    def test_m9_n11_segment_length(self, layout911):
        ca = difference_coarray(layout911)
        assert len(ca.consecutive_segment) >= 199
        assert len(ca.smoothing_segment) == 199

    def test_matches_bruteforce(self, layout911):
        ca = difference_coarray(layout911)
        ref = oracles.difference_set(layout911.grid)
        assert ca.lags == tuple(sorted(ref))
        assert ca.multiplicity == tuple(ref[lag] for lag in sorted(ref))

    @pytest.mark.parametrize("m,n", COPRIME_PAIRS)
    def test_segment_covers_guaranteed_span(self, m, n):
        layout = build_coprime_layout(CoprimeParams(m, n, LAM / 4.0, LAM))
        ca = difference_coarray(layout)
        ref = oracles.difference_set(layout.grid)
        assert oracles.central_run_length(ref) >= 2 * m * n + 1
        assert len(ca.consecutive_segment) == oracles.central_run_length(ref)


class TestMaxTargets:
    @pytest.mark.parametrize(
        "m,n,k_v,k_p", [(9, 11, 13, 9), (3, 4, 4, 3), (2, 3, 3, 2)]
    )
    def test_known_values(self, m, n, k_v, k_p):
        assert max_targets(m, n) == (k_v, k_p)

    @pytest.mark.parametrize("m,n", COPRIME_PAIRS)
    def test_matches_bruteforce(self, m, n):
        k_v, k_p = max_targets(m, n)
        assert k_v == oracles.capacity_bruteforce(m, n)
        assert k_p == min(m, n)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            max_targets(4, 6)

    @pytest.mark.parametrize("m,n,message", BAD_PAIRS)
    def test_rejects_what_coprime_params_rejects(self, m, n, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            max_targets(m, n)


def _scenario(**changes):
    return dataclasses.replace(default_benchmark_scenario(), **changes)


def _sweep(**kwargs):
    fields = {"scenario": default_benchmark_scenario(), "snr_db_list": (10.0,), **kwargs}
    return MonteCarloConfig(**fields)


def _loaded(key, value):
    """The default scenario read from its dict with one key changed."""
    data = default_benchmark_scenario().to_dict()
    (data["targets"][0] if key == "range_m" else data)[key] = value
    return Scenario.from_dict(data)


LAYOUT23 = build_coprime_layout(CoprimeParams(2, 3, LAM / 4.0, LAM))
ONE_TARGET = TargetSet((Target.from_degrees(12, 1.0),))
# Every scalar boundary: the name it rejects by, the least integer it takes
# (None for a finite and positive number), and a call that applies it.
BOUNDARIES = [
    ("angle_step_deg", None, lambda v: MusicConfig(angle_step_deg=v)),
    ("range_step_m", None, lambda v: MusicConfig(range_step_m=v)),
    ("angle_step_deg", None, lambda v: SpectrumGrid.for_layout(LAYOUT23, v, 0.1)),
    ("range_step_m", None, lambda v: SpectrumGrid.for_layout(LAYOUT23, 1.0, v)),
    ("r", None, lambda v: Target(0.1, v)),
    ("d", None, lambda v: CoprimeParams(9, 11, v, LAM)),
    ("wavelength", None, lambda v: CoprimeParams(9, 11, 2.5e-3, v)),
    ("d", None, lambda v: build_dense_layout(3, v, LAM)),
    ("wavelength", None, lambda v: build_dense_layout(3, 2.5e-3, v)),
    ("range_scale", None, lambda v: associate([0.0], None, [0.0], None, v)),
    ("d_mm", None, lambda v: _loaded("d_mm", v)),
    ("freq_ghz", None, lambda v: _loaded("freq_ghz", v)),
    ("range_m", None, lambda v: _loaded("range_m", v)),
    ("m", 1, lambda v: CoprimeParams(v, 11, 2.5e-3, LAM)),
    ("n", 1, lambda v: max_targets(9, v)),
    ("n_snapshots", 1, lambda v: synthesize_sweep(LAYOUT23, ONE_TARGET, v, (10.0,), 0)),
    ("seed", 0, lambda v: synthesize_sweep(LAYOUT23, ONE_TARGET, 8, (10.0,), v)),
    ("T", 1, lambda v: _scenario(n_snapshots=v)),
    ("seed", 0, lambda v: _scenario(seed=v)),
    ("q_trials", 1, lambda v: _sweep(q_trials=v)),
    ("base_seed", 0, lambda v: _sweep(base_seed=v)),
    ("k_targets", 1, lambda v: MusicConfig(k_targets=v)),
    ("max_count", 0, lambda v: detect_peaks(PseudoSpectrum(np.arange(3.0), np.ones(3)), v)),
    ("M", 1, lambda v: _loaded("M", v)),
    ("N", 1, lambda v: _loaded("N", v)),
]


def _boundary_message(name, least, value):
    if least is None:
        return f"{name} must be finite and positive, got {value!r}"
    if math.isfinite(value):
        return f"{name} must be at least {least}, got {value!r}"
    return f"{name} must be an integer, got {value!r}"


# 0, -1, NaN and inf at each boundary, but for a 0 that it takes.
BOUNDARY_ROWS = [
    (functools.partial(build, value), _boundary_message(name, least, value))
    for name, least, build in BOUNDARIES
    for value in (0, -1, math.nan, math.inf)
    if (least, value) != (0, 0)
]


class TestNumberRules:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _scenario(n_snapshots=2.5), "T must be an integer, got 2.5"),
            (lambda: _scenario(seed=True), "seed must be an integer, got True"),
            (lambda: _scenario(snr_db=True), "snr_db must be a number, got True"),
            (lambda: _scenario(snr_db="10"), "snr_db must be a number, got '10'"),
            (lambda: MusicConfig(k_targets=True), "k_targets must be an integer, got True"),
            (lambda: MusicConfig(k_targets=2.5), "k_targets must be an integer, got 2.5"),
            (lambda: MusicConfig(angle_step_deg=True), "angle_step_deg must be a number, got True"),
            (lambda: MusicConfig(range_step_m="0.1"), "range_step_m must be a number, got '0.1'"),
            (lambda: _sweep(snr_db_list=(True,)), "snr_db must be a number, got True"),
            (lambda: Target(True, True), "theta must be a number, got True"),
            (lambda: Target("0.1", 1.0), "theta must be a number, got '0.1'"),
            (lambda: Target(0.1, "1"), "r must be a number, got '1'"),
            (lambda: Target.from_degrees("10", 5.0), "theta_deg must be a number, got '10'"),
            (lambda: CoprimeParams(9, 11, True, True), "d must be a number, got True"),
            (lambda: CoprimeParams(9, 11, 2.5e-3, "1"), "wavelength must be a number, got '1'"),
            (lambda: build_dense_layout(True, 2.5e-3, LAM), "u must be an integer, got True"),
            (lambda: build_dense_layout(3, True, LAM), "d must be a number, got True"),
            (lambda: build_dense_layout(3, 2.5e-3, None), "wavelength must be a number, got None"),
            # The SNR rule of the noise power, which the sweep applies too.
            (lambda: _scenario(snr_db=math.nan), r"snr_db must be a number or \+inf, got nan"),
            (lambda: _scenario(snr_db=-math.inf), r"snr_db must be a number or \+inf, got -inf"),
            (
                lambda: _scenario(snr_db=-4000),
                r"snr_db=-4000\.0 is too low: its noise power overflows a float",
            ),
            # Messages these entry points gave before the rules were shared.
            (lambda: CoprimeParams(2.5, 3, 2.5e-3, LAM), "m must be an integer, got 2.5"),
            (lambda: _sweep(q_trials=2.5), "q_trials must be an integer, got 2.5"),
            # An integer too large for a float is named, without its digits.
            (lambda: _real("x", 10**400), "x is too large for a float"),
            (lambda: _real("x", -(10**400)), "x is too large for a float"),
            (lambda: _scenario(snr_db=10**400), "snr_db is too large for a float"),
            (lambda: MusicConfig(angle_step_deg=10**400), "angle_step_deg is too large for a float"),
            (lambda: _sweep(snr_db_list=(10**400,)), "snr_db is too large for a float"),
            # So is a real that only a float conversion could test for integrality.
            (lambda: _integer("x", fractions.Fraction(10**400)), "x is too large for a float"),
            (
                lambda: MusicConfig(k_targets=fractions.Fraction(10**400)),
                "k_targets is too large for a float",
            ),
        ]
        + BOUNDARY_ROWS,
    )
    def test_every_entry_point_rejects_by_the_shared_rules(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_accepted_values_are_stored_converted(self):
        snrs = _sweep(snr_db_list=[0, np.int64(10)]).snr_db_list
        assert snrs == (0.0, 10.0) and all(type(s) is float for s in snrs)
        scenario = _scenario(n_snapshots=100.0, seed=np.int64(3), snr_db=np.float32(10))
        assert (scenario.n_snapshots, scenario.seed, scenario.snr_db) == (100, 3, 10.0)
        assert type(scenario.n_snapshots) is int and type(scenario.seed) is int
        assert type(scenario.snr_db) is float
        config = MusicConfig(k_targets=np.int64(4), angle_step_deg=1, range_step_m=np.float64(0.1))
        assert (config.k_targets, config.angle_step_deg, config.range_step_m) == (4, 1.0, 0.1)
        assert [type(v) for v in dataclasses.astuple(config)] == [int, float, float]
        target = Target(np.float32(0.5), np.int64(2))
        assert (target.theta, target.r) == (0.5, 2.0)
        assert type(target.theta) is float and type(target.r) is float
        targets = TargetSet([target])
        assert targets.targets == (target,) and hash(targets) == hash(TargetSet((target,)))
        params = CoprimeParams(9, 11, np.float64(2.5e-3), 1)
        assert type(params.d) is float and type(params.wavelength) is float
        assert build_dense_layout(3.0, 2.5e-3, LAM).size == 3
