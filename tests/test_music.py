"""Eigen-subspace machinery and the two-phase MUSIC estimator."""
import dataclasses

import numpy as np
import pytest

from canf import (
    CoprimeParams,
    MusicConfig,
    SpectrumGrid,
    Target,
    TargetSet,
    build_coprime_layout,
    build_dense_layout,
    build_subarrays,
    eig_hermitian,
    localize,
    range_spectrum,
    synthesize,
)
from canf import music
from canf.baselines import localize_subarray
from canf.channel import SnapshotSet, fresnel_phase_terms, steering_fresnel, steering_matrix
from canf.covariance import build_bundle, decouple, spatial_smooth, vectorize_to_coarray
from canf.music import (
    CANCELLATION_FLOOR,
    CHIRP_RESTART,
    MAX_GRID_ENTRIES,
    MIN_ANGLE_SEPARATION_DEG,
    PseudoSpectrum,
    Subspace,
    _chirp_plan,
    _fresnel_chirp,
    _real_angle_manifold,
    _row_peaks,
    angle_spectrum,
    classify_range_spectrum,
    detect_peaks,
)
from canf.bench import associate
from canf.scenario import SPEED_OF_LIGHT

import oracles

LAM = 10e-3
STEPS = (MusicConfig().angle_step_deg, MusicConfig().range_step_m)  # the default grid


def ideal_bundle(layout, targets):
    """Analysis covariances built directly from the quadratic-phase model."""
    b = steering_matrix(layout, targets, "fresnel")
    r_hat = b @ b.conj().T
    r_v = spatial_smooth(vectorize_to_coarray(decouple(r_hat, layout), layout))
    return r_hat, r_v


def carrying(layout, k):
    """A snapshot set on ``layout`` that carries K known waveforms: all that
    :meth:`MusicConfig.plan` reads of it."""
    y, x = np.zeros((layout.size, 1), complex), np.zeros((k, 1), complex)
    return SnapshotSet(layout, y, x, 0.0, None, 0, "fresnel")


def row_peak_indices(spec, include_edges, distance=None):
    """Grid indices of one spectrum's peaks, strongest first, from the
    row-wise finder with the given edge setting and sample distance."""
    return [int(i) for i in _row_peaks(spec.db[None], spec.axis, include_edges, distance)[1]]


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(5, dtype=complex))
        np.testing.assert_allclose(w, np.ones(5))
        np.testing.assert_allclose(v @ v.conj().T, np.eye(5), atol=1e-12)

    def test_rank_one_gram(self, layout911):
        b = steering_fresnel(layout911, Target.from_degrees(14.0, 8.0))
        w, _ = eig_hermitian(np.outer(b, b.conj()))
        assert w[0] == pytest.approx(layout911.size, rel=1e-12)
        np.testing.assert_allclose(w[1:], 0.0, atol=1e-9)

    def test_matches_independent_jacobi_solver(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = a + a.conj().T
        w, _ = eig_hermitian(a)
        np.testing.assert_allclose(np.sort(w), oracles.jacobi_eigvalsh(a), atol=1e-8)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        a = a @ a.conj().T
        w, v = eig_hermitian(a)
        err = np.linalg.norm(a - (v * w) @ v.conj().T) / np.linalg.norm(a)
        assert err <= 1e-9

    def test_descending_order(self, rng):
        a = rng.standard_normal((9, 9))
        w, _ = eig_hermitian(a + a.T)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(bad)

    def test_rejects_non_finite(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eig_hermitian(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_an_empty_matrix(self):
        # It used to fail inside numpy's max of an empty gap.
        with pytest.raises(ValueError, match="^matrix is empty"):
            eig_hermitian(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "place",
        [
            lambda a: a.__setitem__((1, 2), np.nan),
            lambda a: a.__setitem__((3, 3), np.nan),
            lambda a: a.__setitem__((0, 0), np.inf),
            lambda a: a.__setitem__((2, 2), 1.0 + 1j * np.inf),
            lambda a: (a.__setitem__((0, 3), np.inf), a.__setitem__((3, 0), np.inf)),
            lambda a: (a.__setitem__((0, 3), np.inf), a.__setitem__((3, 0), -np.inf)),
        ],
        ids=["nan-off-diagonal", "nan-diagonal", "inf-diagonal", "imaginary-inf-diagonal",
             "symmetric-inf-pair", "opposite-inf-pair"],
    )
    def test_a_non_finite_entry_is_named_before_the_hermitian_gap(self, rng, place):
        # The gap of A - A^H is non-finite, NaN or inf, and fails; the finite
        # scan that follows names the fault, whatever the gap would say.
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        place(a)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            eig_hermitian(a)

    def test_a_finite_matrix_off_hermitian_is_named_so(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            eig_hermitian(a + a.conj().T + 1e-6 * np.triu(np.ones((4, 4)), 1))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_exactly_hermitian_matrix_decomposes_as_its_symmetrized_copy(self, rng, dtype):
        a = rng.standard_normal((9, 9)).astype(dtype)
        if dtype is complex:
            a = a + 1j * rng.standard_normal((9, 9))
        a = a + a.conj().T
        assert np.array_equal(a, a.conj().T)
        w, v = eig_hermitian(a)
        w_ref, v_ref = np.linalg.eigh(0.5 * (a + a.conj().T))
        assert np.array_equal(w, w_ref[::-1]) and np.array_equal(v, v_ref[:, ::-1])

    def test_a_nearly_hermitian_matrix_is_symmetrized_first(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a + a.conj().T
        a[0, 1] += 1e-12
        w, v = eig_hermitian(a)
        w_ref, v_ref = np.linalg.eigh(0.5 * (a + a.conj().T))
        assert np.array_equal(w, w_ref[::-1]) and np.array_equal(v, v_ref[:, ::-1])


class TestNoiseSubspace:
    def test_fixed_size_and_orthonormality(self, rng):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        sub = Subspace.split(a @ a.conj().T, 3)
        un = sub.eigvecs[:, sub.rank :]
        assert un.shape == (10, 7)
        np.testing.assert_allclose(un.conj().T @ un, np.eye(7), atol=1e-10)

    @pytest.mark.parametrize(
        "split, k",
        [
            ("split", 0), ("split", 10), ("split", 11), ("split_coarray", 0), ("split_coarray", 10),
            ("split", 2.5), ("split", True), ("split_coarray", 2.5), ("split_coarray", True),
        ],
    )
    def test_fixed_rejects_bad_rank(self, rng, split, k):
        # Both splits of a W = 10 input need an integer 0 < rank < W.  A
        # fractional rank used to fail in the range scan's slicing, and True
        # used to run as rank 1.
        if split == "split":
            a = rng.standard_normal((10, 10))
            given = a + a.T
        else:  # a conjugate-symmetric coarray vector of length 2W - 1
            half = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            given = np.concatenate((half[::-1].conj(), [rng.standard_normal()], half))
        with pytest.raises(ValueError, match="rank"):
            getattr(Subspace, split)(given, k)

    def test_an_integral_float_rank_is_kept_as_an_int(self, rng):
        a = rng.standard_normal((10, 10))
        rank = Subspace.split(a + a.T, 2.0).rank
        assert rank == 2 and type(rank) is int


class TestSpectrumGrid:
    def test_for_layout(self, layout911):
        grid = SpectrumGrid.for_layout(layout911, *STEPS)
        assert grid.angle_deg[0] == pytest.approx(-89.95)
        assert grid.angle_deg[-1] == pytest.approx(89.95)
        assert grid.range_m[0] == pytest.approx(layout911.fresnel_distance)
        assert grid.range_m[-1] <= layout911.rayleigh_distance + 1e-9

    @pytest.mark.parametrize("step", [0.05, 180.0 / 1001.0])
    def test_for_layout_angles_are_exactly_antisymmetric(self, layout911, step):
        # So the angle scan mirrors the upper half (odd and even sizes); the
        # lower half moves off np.linspace by roundoff only.
        angles = SpectrumGrid.for_layout(layout911, step, 0.1).angle_deg
        half = angles.size // 2
        assert np.array_equal(angles[:half], -angles[::-1][:half])
        plain = np.linspace(-90.0 + step, 90.0 - step, angles.size)
        np.testing.assert_allclose(angles, plain, rtol=0.0, atol=1e-12)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SpectrumGrid((), (1.0, 2.0))
        with pytest.raises(ValueError):
            SpectrumGrid((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            SpectrumGrid((-90.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("name", ["angle_step_deg", "range_step_m"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_for_layout_rejects_a_step_that_is_not_finite_and_positive(self, layout911, name, bad):
        # The rule MusicConfig applies: 0 used to raise ZeroDivisionError, -1
        # numpy's sample-count error, NaN a grid-point count and an infinite
        # range step a RuntimeWarning (an error here).
        steps = {"angle_step_deg": 0.05, "range_step_m": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {bad!r}$"):
            SpectrumGrid.for_layout(layout911, **steps)

    @pytest.mark.parametrize(
        "ranges", [(-5.0, 0.0, np.inf), (0.0, 1.0), (1.0, np.inf), (-np.inf, 1.0)]
    )
    def test_rejects_a_range_axis_that_is_not_finite_and_positive(self, ranges):
        # (-5, 0, inf) used to be accepted, and its range scan divided by zero.
        with pytest.raises(ValueError, match="^range grid must be finite and positive$"):
            SpectrumGrid((0.0,), ranges)

    @pytest.mark.parametrize("step", [90.0 + 1e-9, 100.0, 170.0, 200.0])
    def test_for_layout_rejects_an_angle_step_above_90(self, layout911, step):
        # 100 used to give the one angle 10, outside its span [-80, 80].
        with pytest.raises(ValueError, match=f"^angle_step_deg={step!r} is above 90"):
            SpectrumGrid.for_layout(layout911, step, 0.1)

    def test_for_layout_takes_an_angle_step_of_90_as_broadside_alone(self, layout911):
        assert SpectrumGrid.for_layout(layout911, 90.0, 0.1).angle_deg.tolist() == [0.0]

    def test_for_layout_is_built_once_as_read_only_arrays(self, layout911):
        grid = SpectrumGrid.for_layout(layout911, 0.05, 0.1)
        assert SpectrumGrid.for_layout(layout911, 0.05, 0.1) is grid
        for axis in (grid.angle_deg, grid.range_m):
            assert axis.dtype == float and not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 0.0

    @pytest.mark.parametrize(
        "steps, name",
        [
            ((1e-5, 0.1), "angle_step_deg"),
            ((5e-324, 0.1), "angle_step_deg"),
            ((0.05, 1e-300), "range_step_m"),
        ],
    )
    def test_rejects_steps_above_the_entry_cap(self, layout911, steps, name):
        limit = MAX_GRID_ENTRIES // layout911.size
        with pytest.raises(
            ValueError, match=f"^{name}=.* grid points, more than the {limit} that 37 sensors allow"
        ):
            SpectrumGrid.for_layout(layout911, *steps)

    def test_the_cap_counts_the_points_each_axis_gets(self, layout911, monkeypatch):
        # 1000 points for 37 sensors.  A step between two counts is judged by
        # the count it rounds (angles) or floors (ranges) to.
        monkeypatch.setattr(music, "MAX_GRID_ENTRIES", 1000 * layout911.size)
        span = layout911.rayleigh_distance - layout911.fresnel_distance
        grid = SpectrumGrid.for_layout(layout911, 180.0 / 1001.0, span / 999.5)
        assert grid.angle_deg.size == grid.range_m.size == 1000
        for steps, name in [
            ((180.0 / 1001.75, 0.1), "angle_step_deg"),
            ((180.0 / 1001.0, span / 1000.5), "range_step_m"),
        ]:
            with pytest.raises(ValueError, match=f"^{name}=.* gives 1001 grid points"):
                SpectrumGrid.for_layout(layout911, *steps)

    def test_a_large_array_keeps_its_default_steps(self):
        # (21, 23) at 3 GHz with d = lambda/4: 85 sensors, and over 100,000
        # ranges at the default 0.1 m step.
        wavelength = SPEED_OF_LIGHT / 3e9
        layout = build_coprime_layout(CoprimeParams(21, 23, wavelength / 4.0, wavelength))
        grid = SpectrumGrid.for_layout(layout, 0.05, 0.1)
        assert layout.size == 85 and grid.range_m.size > 100_000

    def test_the_finest_accepted_steps_plan_scans_within_the_cap(self, layout911):
        # The benchmark array with its 4 targets: W = 9 * 11 + 1 virtual
        # sensors, F = 9 + 11 - 1 folded sensors on 2 chirp runs, C = 10
        # candidates.
        k, w, f, runs = 4, 100, 19, 2
        c = k * (k + 1) // 2
        n_a, n_r = MAX_GRID_ENTRIES // w, MAX_GRID_ENTRIES // (c * (f + 4 * runs + k))
        span = layout911.rayleigh_distance - layout911.fresnel_distance
        snaps = carrying(layout911, k)
        config = MusicConfig(angle_step_deg=180.0 / (n_a + 1), range_step_m=span / (n_r - 0.5))
        planned, grid = config.plan(snaps, layout911)
        assert planned == k
        assert (grid.angle_deg.size, grid.range_m.size) == (n_a, n_r)
        # What these scans would build, counted from the shapes, not allocated:
        # the real (W, A) manifold, and the complex (F, C, R) chirp, four
        # (runs, C, R) chirp temporaries and the (C, R, K) projection.
        angle_bytes = 8 * w * n_a
        range_bytes = 16 * c * n_r * (f + 4 * runs + k)
        assert angle_bytes <= 2**29 and range_bytes <= 2**30
        for steps, name in [
            ((180.0 / (n_a + 2), STEPS[1]), "angle_step_deg"),
            ((STEPS[0], span / (n_r + 0.5)), "range_step_m"),
        ]:
            with pytest.raises(ValueError, match=f"would hold .* raise {name}$"):
                MusicConfig(angle_step_deg=steps[0], range_step_m=steps[1]).plan(snaps, layout911)

    def test_the_scan_counts_are_the_shapes_the_scans_build(self, layout911):
        # At the default steps: the angle manifold of the whole grid is
        # (W, A), the bound the plan counts (the scan caches its upper half),
        # and the range chirp (C, R, F) over the layout's 2 chirp runs.
        grid = SpectrumGrid.for_layout(layout911, *STEPS)
        manifold = _real_angle_manifold(100, 2.0 * layout911.d, LAM, grid.angle_deg.tobytes())
        assert manifold.T.shape == (100, grid.angle_deg.size)
        plan = _chirp_plan(layout911.grid)
        thetas = np.linspace(-30.0, 30.0, 10)
        _, q_unit = fresnel_phase_terms(layout911, np.deg2rad(thetas)[:, None], 1.0)
        chirp = _fresnel_chirp(plan, q_unit[..., plan.first], grid.range_m)
        assert chirp.shape == (10, grid.range_m.size, 19) and len(plan.runs) == 2

    def test_a_large_array_scans_its_default_steps_for_four_targets(self):
        wavelength = SPEED_OF_LIGHT / 3e9
        layout = build_coprime_layout(CoprimeParams(21, 23, wavelength / 4.0, wavelength))
        assert MusicConfig().plan(carrying(layout, 4), layout)[0] == 4


class TestMusicConfig:
    def test_three_knobs(self):
        names = [f.name for f in dataclasses.fields(MusicConfig)]
        assert names == ["k_targets", "angle_step_deg", "range_step_m"]

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"angle_step_deg": 0.0}, "angle_step_deg"),
            ({"angle_step_deg": -0.05}, "angle_step_deg"),
            ({"angle_step_deg": float("nan")}, "angle_step_deg"),
            ({"range_step_m": 0.0}, "range_step_m"),
            ({"range_step_m": float("inf")}, "range_step_m"),
            ({"k_targets": 0}, "k_targets"),
            ({"k_targets": -1}, "k_targets"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            MusicConfig(**kwargs)


class TestDetectPeaks:
    def test_monotone_spectrum_has_no_peaks(self):
        spec = PseudoSpectrum(np.arange(10.0), np.linspace(1.0, 5.0, 10))
        assert detect_peaks(spec) == []

    def test_equal_peaks_tie_broken_by_location(self):
        values = np.array([1.0, 10.0, 1.0, 10.0, 1.0])
        spec = PseudoSpectrum(np.arange(5.0), values)
        peaks = detect_peaks(spec)
        assert [p.location for p in peaks] == [1.0, 3.0]

    def test_max_count_keeps_strongest(self):
        values = np.array([1.0, 5.0, 1.0, 50.0, 1.0, 7.0, 1.0])
        spec = PseudoSpectrum(np.arange(7.0), values)
        peaks = detect_peaks(spec, max_count=2)
        assert [p.location for p in peaks] == [3.0, 5.0]

    @pytest.mark.parametrize("max_count", [-1, 2.5, True])
    def test_max_count_must_be_a_count(self, max_count):
        # -1 used to drop the weakest peak, as a[:-1] does.
        values = np.array([1.0, 5.0, 1.0, 50.0, 1.0, 7.0, 1.0])
        with pytest.raises(ValueError, match="^max_count must be"):
            detect_peaks(PseudoSpectrum(np.arange(7.0), values), max_count=max_count)

    def test_prominence_threshold(self):
        values = 10.0 ** (np.array([0.0, 0.04, 0.0, 1.0, 0.0]))
        spec = PseudoSpectrum(np.arange(5.0), values)
        assert len(detect_peaks(spec)) == 1

    def test_edge_peak_needs_flag(self):
        values = np.linspace(1.0, 100.0, 8)
        spec = PseudoSpectrum(np.arange(8.0), values)
        # The angle-peak stage never counts an endpoint; the range stage does.
        assert detect_peaks(spec) == []
        assert row_peak_indices(spec, include_edges=False) == []
        assert row_peak_indices(spec, include_edges=True) == [7]

    def test_min_separation_merges_ridge(self):
        values = np.array([1.0, 80.0, 60.0, 79.0, 1.0, 1.0, 90.0, 1.0])
        spec = PseudoSpectrum(np.arange(8.0), values)
        assert len(detect_peaks(spec)) == 3
        assert row_peak_indices(spec, False, distance=3) == [6, 1]

    def test_angle_peaks_closer_than_the_separation_merge(self):
        # Two lobes 0.3 degrees apart on a 0.05-degree grid are one angle
        # peak under MIN_ANGLE_SEPARATION_DEG; without a distance both count.
        axis = np.linspace(-89.95, 89.95, 3599)
        values = np.ones(axis.size)
        values[[2000, 2006]] = [100.0, 90.0]
        spec = PseudoSpectrum(axis, values)
        assert MIN_ANGLE_SEPARATION_DEG > 0.3
        assert [p.index for p in detect_peaks(spec)] == [2000]
        assert row_peak_indices(spec, False) == [2000, 2006]

    @pytest.mark.parametrize("include_edges", [False, True])
    def test_min_separation_keeps_a_peak_near_the_last_sample(self, include_edges):
        # A +inf separator after the last row, followed by any sample, would
        # be a peak within the 10-sample distance MIN_ANGLE_SEPARATION_DEG
        # sets on this grid, and would suppress this one.
        axis = np.linspace(-89.95, 89.95, 3599)
        values = np.ones(axis.size)
        values[-4] = 100.0
        values[1000] = 50.0
        spec = PseudoSpectrum(axis, values)
        assert row_peak_indices(spec, include_edges, distance=10) == [axis.size - 4, 1000]
        if not include_edges:
            assert [p.index for p in detect_peaks(spec)] == [axis.size - 4, 1000]

    def test_one_spectrum_only(self):
        spec = PseudoSpectrum(np.arange(5.0), np.ones((2, 5)))
        with pytest.raises(ValueError, match="1-D"):
            detect_peaks(spec)

    def test_parabolic_refinement_recovers_offgrid_vertex(self):
        axis = np.linspace(-1.0, 1.0, 21)
        vertex = 0.137
        db = -40.0 * (axis - vertex) ** 2
        spec = PseudoSpectrum(axis, 10.0 ** (db / 10.0))
        peaks = detect_peaks(spec)
        assert peaks[0].location == pytest.approx(vertex, abs=1e-9)

    def test_parabolic_refinement_on_an_integer_axis_is_not_truncated(self):
        axis = np.arange(21)
        vertex = 10.37
        db = -0.4 * (axis - vertex) ** 2
        peaks = detect_peaks(PseudoSpectrum(axis, 10.0 ** (db / 10.0)))
        assert peaks[0].location == pytest.approx(vertex, abs=1e-9)


class TestAngleSpectrum:
    def test_single_target_peak_at_truth(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        _, r_v = ideal_bundle(layout911, targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        spec = angle_spectrum(
            Subspace.split(oracles.real_form(r_v), 1), 2.0 * layout911.d, LAM, grid
        )
        peaks = detect_peaks(spec, max_count=1)
        assert peaks[0].location == pytest.approx(10.0, abs=0.05)

    def test_values_positive_finite(self, layout911, rng):
        targets = TargetSet((Target.from_degrees(-25.0, 10.0),))
        snaps = synthesize(layout911, targets, 50, 0.0, 3)
        bundle = build_bundle(snaps)
        spec = angle_spectrum(
            Subspace.split(oracles.real_form(spatial_smooth(bundle.r_tilde)), 1),
            2.0 * layout911.d, LAM, np.linspace(-89.95, 89.95, 720),
        )
        assert np.all(np.isfinite(spec.values)) and np.all(spec.values > 0)

    def test_power_of_two_scaling_bit_identical(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        _, r_v = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        rank = 10
        spacing, lam = 2.0 * layout.d, layout.wavelength
        p1, p2 = (
            detect_peaks(
                angle_spectrum(Subspace.split(oracles.real_form(r), rank), spacing, lam, grid),
                10,
            )
            for r in (r_v, 4.0 * r_v)
        )
        assert [p.location for p in p1] == [p.location for p in p2]

    def test_arbitrary_scaling_same_peak_indices(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        _, r_v = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        rank = 10
        spacing, lam = 2.0 * layout.d, layout.wavelength
        p1, p3 = (
            detect_peaks(
                angle_spectrum(Subspace.split(oracles.real_form(r), rank), spacing, lam, grid),
                10,
            )
            for r in (r_v, 3.7 * r_v)
        )
        assert [p.index for p in p1] == [p.index for p in p3]
        np.testing.assert_allclose(
            [p.location for p in p1], [p.location for p in p3], atol=1e-9
        )

    def test_manifold_unit_scale_matches_single_position_phase(self):
        # The cached real row is Q^H of the single-position phase vector,
        # centred on the array (a unit phase factor), for even and odd W.
        grid = np.array([20.0])
        phase = -1j * 2 * np.pi / LAM * 1e-3 * np.sin(np.deg2rad(20.0))
        for w in (4, 5):
            man = _real_angle_manifold(w, 1e-3, LAM, grid.tobytes())
            centred = np.exp(phase * np.arange(w)) * np.exp(-phase * 0.5 * (w - 1))
            rotated = oracles.unitary_q(w).conj().T @ centred
            np.testing.assert_allclose(rotated.imag, 0.0, atol=1e-12)
            np.testing.assert_allclose(man[0], rotated.real, atol=1e-12)
            assert not man.flags.writeable

    @pytest.mark.parametrize("size", [3599, 3600])
    def test_an_antisymmetric_grid_builds_and_projects_its_upper_half(
        self, benchmark_scenario, size
    ):
        # Each lower row is its mirror's with the sine block negated; the
        # spectrum matches the plain (A, W) x (W, r) scan of the whole
        # manifold, rows below the cancellation floor on both sides included.
        snaps = benchmark_scenario.snapshots()
        layout = snaps.layout
        virtual = Subspace.split_coarray(build_bundle(snaps).r_tilde, 10)
        w = virtual.eigvals.size
        grid = np.linspace(-89.95, 89.95, size)
        grid[: size // 2] = -grid[::-1][: size // 2]
        spacing = 2.0 * layout.d
        spec = angle_spectrum(virtual, spacing, layout.wavelength, grid)
        before = _real_angle_manifold.cache_info()
        upper_bytes = grid[size // 2 :].tobytes()
        upper = _real_angle_manifold(w, spacing, layout.wavelength, upper_bytes)
        assert _real_angle_manifold.cache_info().hits == before.hits + 1
        assert upper.shape == (size - size // 2, w)
        man = _real_angle_manifold.__wrapped__(w, spacing, layout.wavelength, grid.tobytes())
        signal = virtual.eigvecs[:, : virtual.rank]
        proj = man @ signal
        denom = 1.0 - np.sum(proj**2, axis=1) / w
        near = denom < CANCELLATION_FLOOR
        assert near[grid < 0].any() and near[grid > 0].any()
        denom[near] = np.sum((man[near] - proj[near] @ signal.T) ** 2, axis=1) / w
        np.testing.assert_allclose(spec.values, 1.0 / denom, rtol=1e-12, atol=0.0)

    def test_manifold_is_cached_sensor_major_and_read_only(self):
        grid = np.linspace(-89.95, 89.95, 3599)
        man = _real_angle_manifold(100, 2e-3, LAM, grid.tobytes())
        assert man.shape == (3599, 100)
        assert man.T.flags.c_contiguous and not man.flags.writeable
        assert _real_angle_manifold(100, 2e-3, LAM, grid.tobytes()) is man

    def test_a_manifold_too_large_for_the_cache_is_built_per_call(self, benchmark_scenario):
        # 16 cached manifolds of at most MAX_GRID_ENTRIES // 16 entries each.
        snaps = benchmark_scenario.snapshots()
        virtual = Subspace.split_coarray(build_bundle(snaps).r_tilde, 10)
        grid = np.linspace(-80.0, 80.0, 50001)
        assert virtual.eigvals.size * grid.size > MAX_GRID_ENTRIES // 16
        before = _real_angle_manifold.cache_info()
        spec = angle_spectrum(virtual, 2.0 * snaps.layout.d, snaps.layout.wavelength, grid)
        assert _real_angle_manifold.cache_info() == before
        assert spec.values.shape == grid.shape

    def test_rejects_a_split_of_a_complex_matrix(self, rng):
        # Only the real split of Subspace.split_coarray has real rows to scan.
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        virtual = Subspace.split(a @ a.conj().T, 1)
        with pytest.raises(ValueError, match="scans a real subspace"):
            angle_spectrum(virtual, LAM / 4.0, LAM, np.array([-10.0, 0.0, 10.0]))

    def test_scan_matches_an_angle_major_product(self, benchmark_scenario):
        # The (r, W) x (W, A) projection of the sensor-major manifold agrees
        # with the plain (A, W) x (W, r) one on the benchmark input.
        snaps = benchmark_scenario.snapshots()
        bundle = build_bundle(snaps)
        w = (bundle.r_tilde.size + 1) // 2
        virtual = Subspace.split_coarray(bundle.r_tilde, 10)
        layout = snaps.layout
        grid = SpectrumGrid.for_layout(layout, *STEPS).angle_deg
        spacing = 2.0 * layout.d
        spec = angle_spectrum(virtual, spacing, layout.wavelength, grid)
        man = np.ascontiguousarray(
            _real_angle_manifold(w, spacing, layout.wavelength, grid.tobytes())
        )
        signal = virtual.eigvecs[:, : virtual.rank]
        proj = man @ signal
        denom = 1.0 - np.sum(proj**2, axis=1) / w
        near = denom < CANCELLATION_FLOOR
        denom[near] = np.sum((man[near] - proj[near] @ signal.T) ** 2, axis=1) / w
        np.testing.assert_allclose(spec.values, 1.0 / denom, rtol=1e-12, atol=0.0)


class TestRangeSpectrum:
    def test_single_target_peak(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        r_hat, _ = ideal_bundle(layout911, targets)
        grid = np.arange(0.54, 40.5, 0.1)
        spec = range_spectrum(Subspace.split(r_hat, 1), layout911, 10.0, grid)
        location = _row_peaks(spec.db[None], grid, include_edges=True)[2]
        assert location[0] == pytest.approx(30.0, abs=0.1)

    def test_co_angle_pair_resolved_on_ideal_covariance(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _ = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.asarray(SpectrumGrid.for_layout(layout, *STEPS).range_m)
        initial = Subspace.split(r_hat, 4)
        spec = range_spectrum(initial, layout, 30.0, grid)
        locs = sorted(_row_peaks(spec.db[None], grid, include_edges=True)[2][:2])
        assert locs[0] == pytest.approx(20.0, abs=0.1)
        assert locs[1] == pytest.approx(40.0, abs=0.1)

    def test_angle_array_gives_one_scan_per_angle(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _ = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.asarray(SpectrumGrid.for_layout(layout, *STEPS).range_m)
        initial = Subspace.split(r_hat, 4)
        thetas = np.array([-35.0, 10.0, 30.0])
        stacked = range_spectrum(initial, layout, thetas, grid)
        assert stacked.values.shape == (3, grid.size)
        for theta, row in zip(thetas, stacked.values):
            single = range_spectrum(initial, layout, float(theta), grid)
            np.testing.assert_allclose(row, single.values, rtol=1e-9)

    def test_near_rows_of_several_candidates_match_the_full_manifold(self, layout911):
        # One source on a grid range at each of three candidate angles: every
        # candidate has rows below CANCELLATION_FLOOR on the signal basis,
        # and each must be recomputed as the residual of its own candidate's
        # unfolded steering vector.
        u = layout911.size
        grid = np.linspace(layout911.fresnel_distance, layout911.rayleigh_distance, 12)
        thetas = np.array([-20.0, 15.0, 40.0])
        full = oracles.range_steering_matrix(layout911, thetas, grid)
        columns = full[[0, 1, 2], [3, 8, 5]].T
        power = np.array([1.0, 2.0, 0.5])
        matrix = (columns * power) @ columns.conj().T + 1e-6 * np.eye(u)
        sub = Subspace.split(matrix, 3)
        signal = sub.eigvecs[:, :3]
        from_signal = 1.0 - np.sum(np.abs(full @ signal.conj()) ** 2, axis=-1) / u
        near = from_signal < CANCELLATION_FLOOR
        assert np.count_nonzero(near.any(axis=1)) == 3
        expected = oracles.noise_power_reference(sub.eigvecs[:, 3:], full.reshape(-1, u))
        spec = range_spectrum(sub, layout911, thetas, grid)
        np.testing.assert_allclose(1.0 / spec.values.ravel(), expected, rtol=1e-9, atol=1e-20)


def _chirp_layout(params911, case):
    sub1, sub2 = build_subarrays(params911)
    d, lam = params911.d, params911.wavelength
    return {
        "coprime": build_coprime_layout(params911),
        "subarray-1": sub1,
        "subarray-2": sub2,
        "dense-37": build_dense_layout(37, d, lam),
        "dense-201": build_dense_layout(201, d, lam),
    }[case]


class TestFresnelChirp:
    @pytest.mark.parametrize(
        "case, runs",
        [
            ("coprime", ((9, 10), (11, 8))),
            ("subarray-1", ((1, 8),)),
            ("subarray-2", ((1, 10),)),
            ("dense-37", ((1, 18),)),
            ("dense-201", ((1, 100),)),
        ],
    )
    def test_runs_cover_each_folded_sensor_once(self, params911, case, runs):
        layout = _chirp_layout(params911, case)
        plan = _chirp_plan(layout.grid)
        assert plan.runs == runs
        mags = np.abs(np.asarray(layout.grid))[plan.first]
        covered = [plan.index[j, m - 1] for j, (_, n) in enumerate(runs) for m in range(1, n + 1)]
        assert sorted(covered + [plan.zero]) == list(range(plan.first.size))
        for j, (stride, n) in enumerate(runs):
            np.testing.assert_array_equal(mags[plan.index[j, :n]], stride * np.arange(1, n + 1))
        assert _chirp_plan(layout.grid) is plan

    @pytest.mark.parametrize(
        "case", ["coprime", "subarray-1", "subarray-2", "dense-37", "dense-201"]
    )
    def test_matches_the_direct_fresnel_factor(self, params911, case):
        # The chirp against exp(1j * q) of every sensor at every grid range;
        # the 100-element run of dense-201 crosses several restarts.
        layout = _chirp_layout(params911, case)
        grid = np.asarray(SpectrumGrid.for_layout(layout, *STEPS).range_m)
        theta = np.deg2rad(np.array([-70.0, -35.0, 0.0, 10.0, 30.0, 55.0]))
        plan = _chirp_plan(layout.grid)
        _, q_unit = fresnel_phase_terms(layout, theta[:, None], 1.0)
        chirp = _fresnel_chirp(plan, q_unit[:, plan.first], grid)
        assert chirp.shape == (theta.size, grid.size, plan.first.size)
        _, q = fresnel_phase_terms(layout, theta[:, None, None], grid[:, None])
        np.testing.assert_allclose(chirp[..., plan.unfold], np.exp(1j * q), rtol=0, atol=1e-13)
        if case == "dense-201":
            assert plan.runs[0][1] > 6 * CHIRP_RESTART

    def test_cos_and_sin_run_per_range_and_run_not_per_sensor(
        self, benchmark_scenario, monkeypatch
    ):
        layout = benchmark_scenario.layout()
        r_hat, _ = ideal_bundle(layout, benchmark_scenario.targets)
        initial = Subspace.split(r_hat, 4)
        grid = np.asarray(SpectrumGrid.for_layout(layout, *STEPS).range_m)
        thetas = np.linspace(-60.0, 60.0, 10)
        expected = range_spectrum(initial, layout, thetas, grid).values
        evaluated = {"cos": 0, "sin": 0}
        for name in evaluated:

            def counting(x, *args, _ufunc=getattr(np, name), _name=name, **kwargs):
                evaluated[_name] += np.size(x)
                return _ufunc(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        got = range_spectrum(initial, layout, thetas, grid).values
        monkeypatch.undo()
        np.testing.assert_array_equal(got, expected)
        c, r = thetas.size, grid.size
        runs = len(_chirp_plan(layout.grid).runs)
        # One per (candidate, range, run), plus the angle terms of each candidate.
        assert evaluated == {"cos": runs * c * r + c, "sin": runs * c * r + c}


def _without_noise_columns(sub):
    eigvecs = sub.eigvecs.copy()
    eigvecs[:, sub.rank :] = np.nan
    return Subspace(sub.eigvals, eigvecs, sub.rank)


@pytest.mark.parametrize("case", ["angle", "range", "subarray-1 angle"])
def test_scans_never_read_the_noise_columns(benchmark_scenario, case):
    # NaN noise columns: every scan must still return the intact split's
    # finite values, near rows included.  Subarray 1 (W = 17, rank 10) has
    # the wider signal basis.
    snaps = benchmark_scenario.snapshots()
    layout = snaps.layout
    if case == "subarray-1 angle":
        sub1 = build_subarrays(layout.coprime)[0]
        index = {g: i for i, g in enumerate(layout.grid)}
        rows = [index[g * layout.coprime.n] for g in sub1.grid]
        snaps = dataclasses.replace(snaps, layout=sub1, y=snaps.y[rows])
    bundle = build_bundle(snaps)
    grid = SpectrumGrid.for_layout(layout, *STEPS)
    if case == "range":
        sub = Subspace.split(bundle.r_hat, 4)
        thetas = np.array([-35.0, 10.0, 30.0])

        def scan(s):
            return range_spectrum(s, layout, thetas, grid.range_m).values

    else:
        r_v = spatial_smooth(bundle.r_tilde)
        sub = Subspace.split(oracles.real_form(r_v), 10)

        def scan(s):
            return angle_spectrum(s, 2.0 * snaps.layout.d, layout.wavelength, grid.angle_deg).values

    expected = scan(sub)
    if case == "subarray-1 angle":
        assert 2 * sub.rank >= sub.eigvals.size
    else:
        assert np.any(1.0 / expected < CANCELLATION_FLOOR)
    got = scan(_without_noise_columns(sub))
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, expected)


class TestClassification:
    def test_benchmark_figure_behavior(self, benchmark_scenario):
        # Analysis covariance: true angles produce significant in-region
        # range peaks (two at the shared angle), cross angles do not.
        layout = benchmark_scenario.layout()
        r_hat, r_v = ideal_bundle(layout, benchmark_scenario.targets)
        grid = SpectrumGrid.for_layout(layout, *STEPS)
        virtual = Subspace.split(oracles.real_form(r_v), 10)
        spec = angle_spectrum(virtual, 2.0 * layout.d, layout.wavelength, grid.angle_deg)
        peaks = detect_peaks(spec, 10)
        found = sorted(p.location for p in peaks[:6])
        for truth in (-35.0, 10.0, 30.0):
            assert min(abs(f - truth) for f in found) < 0.05
        initial = Subspace.split(r_hat, 4)
        thetas = np.array([p.location for p in peaks])
        bounds = (layout.fresnel_distance, layout.rayleigh_distance)
        classified = classify_range_spectrum(
            thetas, range_spectrum(initial, layout, thetas, grid.range_m), bounds
        )
        trues = sorted((c.theta_deg, c.range_m) for c in classified if c.is_true)
        assert len(trues) == 4
        expected = [(-35.0, 25.0), (10.0, 30.0), (30.0, 20.0), (30.0, 40.0)]
        for (th, r), (eth, er) in zip(trues, expected):
            assert th == pytest.approx(eth, abs=0.05)
            assert r == pytest.approx(er, abs=0.1)
        crosses = [c for c in classified if not c.is_true]
        assert len(crosses) >= 3
        assert all(c.significance_db < 10.0 for c in crosses)

    def test_scalar_angle_classifies_one_spectrum(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _ = ideal_bundle(layout, benchmark_scenario.targets)
        initial = Subspace.split(r_hat, 4)
        grid = SpectrumGrid.for_layout(layout, *STEPS).range_m
        spec = range_spectrum(initial, layout, 30.0, grid)
        bounds = (layout.fresnel_distance, layout.rayleigh_distance)
        got = classify_range_spectrum(30.0, spec, bounds)
        assert got == oracles.classify_range_spectrum(30.0, spec, bounds)
        assert [c.label for c in got] == ["true", "true"]
        with pytest.raises(ValueError, match="2 angles for 1 range spectra"):
            classify_range_spectrum([30.0, 10.0], spec, bounds)

    def test_no_candidates_gives_empty_result(self, benchmark_scenario, monkeypatch):
        # An angle stage that finds nothing leaves an empty range phase: no
        # labels and a (0, R) range spectrum, for one input or two fused.
        snaps = benchmark_scenario.snapshots()
        grid = SpectrumGrid.for_layout(snaps.layout, *STEPS)
        monkeypatch.setattr(music, "detect_peaks", lambda spectrum, max_count: [])
        for method in (localize, localize_subarray):
            res = method(snaps, MusicConfig(k_targets=4))
            assert res.candidates == () and res.classified == ()
            assert res.range_spectrum.values.shape == (0, grid.range_m.size)


def _range_phase_inputs(method, snaps):
    """The (layout, ``r_hat`` split) of every input whose range scans
    ``method`` fuses: the whole array, or the two uniform subarrays."""
    layout = snaps.layout
    inputs = [snaps]
    if method is localize_subarray:
        params = layout.coprime
        index = {g: i for i, g in enumerate(layout.grid)}
        inputs = [
            dataclasses.replace(snaps, layout=sub, y=snaps.y[[index[g * f] for g in sub.grid]])
            for sub, f in zip(build_subarrays(params), (params.n, params.m))
        ]
    return [(s.layout, Subspace.split(build_bundle(s).r_hat, 4)) for s in inputs]


@pytest.mark.parametrize("method", [localize, localize_subarray])
def test_range_spectrum_holds_one_fused_scan_per_candidate(benchmark_scenario, method):
    # Row k of the result's range spectrum is the scan at candidate k, the
    # geometric mean over the inputs, and the labels are read from it.
    snaps = benchmark_scenario.snapshots()
    layout = snaps.layout
    config = MusicConfig(k_targets=4)
    res = method(snaps, config)
    grid = SpectrumGrid.for_layout(layout, *STEPS).range_m
    spec = res.range_spectrum
    assert len(res.candidates) > 1
    assert spec.values.shape == (len(res.candidates), grid.size)
    np.testing.assert_array_equal(spec.axis, grid)
    inputs = _range_phase_inputs(method, snaps)
    for row, peak in zip(spec.values, res.candidates):
        scans = [range_spectrum(sub, lay, peak.location, grid).values for lay, sub in inputs]
        expected = np.prod(scans, axis=0) ** (1.0 / len(scans))
        np.testing.assert_allclose(row, expected, rtol=1e-9, atol=0.0)
    bounds = (layout.fresnel_distance, layout.rayleigh_distance)
    assert res.classified == tuple(
        classify_range_spectrum(res.candidate_angles_deg, spec, bounds)
    )


class TestLocalize:
    def test_single_target_exact_to_grid(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        snaps = synthesize(layout911, targets, 64, None, 0, "fresnel")
        res = localize(snaps, MusicConfig(k_targets=1))
        trues = res.true_targets
        assert len(trues) == 1
        assert trues[0].theta_deg == pytest.approx(10.0, abs=0.05)
        assert trues[0].range_m == pytest.approx(30.0, abs=0.1)

    def test_deterministic(self, layout911):
        targets = TargetSet((Target.from_degrees(-20.0, 15.0),))
        snaps = synthesize(layout911, targets, 64, 10.0, 5)
        cfg = MusicConfig(k_targets=1)
        a = localize(snaps, cfg)
        b = localize(snaps, cfg)
        assert a.candidates == b.candidates
        assert a.classified == b.classified
        np.testing.assert_array_equal(a.angle_spectrum.values, b.angle_spectrum.values)
        np.testing.assert_array_equal(a.virtual_eigvals, b.virtual_eigvals)

    def test_grid_refinement_consistency(self, layout911):
        targets = TargetSet((Target.from_degrees(23.4, 18.3),))
        snaps = synthesize(layout911, targets, 64, None, 3, "fresnel")
        coarse = localize(snaps, MusicConfig(k_targets=1, angle_step_deg=0.1, range_step_m=0.2))
        fine = localize(snaps, MusicConfig(k_targets=1, angle_step_deg=0.05, range_step_m=0.1))
        ct, ft = coarse.true_targets[0], fine.true_targets[0]
        assert abs(ct.theta_deg - ft.theta_deg) <= 0.1
        assert abs(ct.range_m - ft.range_m) <= 0.2

    def test_benchmark_candidates_contain_true_angles(self, benchmark_scenario):
        res = localize(benchmark_scenario.snapshots(), MusicConfig(k_targets=4))
        assert len(res.candidates) >= 3
        for truth in (-35.0, 10.0, 30.0):
            assert min(abs(c - truth) for c in res.candidate_angles_deg) <= 0.5

    def test_subspace_orthogonality_noise_free(self, benchmark_scenario):
        # Matched quadratic-phase synthesis: the noise space annihilates
        # the steering vectors at every true target.
        layout = benchmark_scenario.layout()
        snaps = synthesize(layout, benchmark_scenario.targets, 100, None, 0, "fresnel")
        bundle = build_bundle(snaps)
        sub = Subspace.split(bundle.r_hat, 4)
        un = sub.eigvecs[:, sub.rank :]
        for t in benchmark_scenario.targets:
            b = steering_fresnel(layout, t)
            resid = np.linalg.norm(b.conj() @ un) ** 2 / layout.size
            assert resid <= 1e-6
        # angle stage, single target: exact annihilation as well
        t1 = TargetSet((Target.from_degrees(10.0, 30.0),))
        b1 = build_bundle(synthesize(layout, t1, 100, None, 0, "fresnel"))
        r_v1 = spatial_smooth(b1.r_tilde)
        sub1 = Subspace.split(r_v1, 1)
        un1 = sub1.eigvecs[:, sub1.rank :]
        row = oracles.virtual_steering_matrix(
            r_v1.shape[0], 2.0 * layout.d, layout.wavelength, np.array([10.0])
        )[0]
        assert np.linalg.norm(row.conj() @ un1) ** 2 / r_v1.shape[0] <= 1e-6

    def test_capacity_overload_fails_visibly(self):
        # One target past the pairwise-component budget of the (3, 4) array:
        # the estimator must miss targets or raise spurious detections.
        lam = 0.01
        layout = build_coprime_layout(CoprimeParams(3, 4, lam / 4.0, lam))
        sines = [-0.82, -0.45, -0.05, 0.38, 0.76]
        ranges = [0.12, 0.28, 0.2, 0.33, 0.16]
        targets = TargetSet(
            tuple(
                Target(float(np.arcsin(s)), r) for s, r in zip(sines, ranges)
            )
        )
        snaps = synthesize(layout, targets, 100, None, 7, "exact")
        res = localize(snaps, MusicConfig(k_targets=5, range_step_m=0.002))
        trues = res.true_targets
        truth_theta = np.degrees(np.arcsin(sines))
        match = associate(
            [c.theta_deg for c in trues],
            [c.range_m for c in trues],
            truth_theta,
            ranges,
            layout.rayleigh_distance,
        )
        hits = sum(
            1
            for i, j in match.pairs
            if abs(trues[i].theta_deg - truth_theta[j]) <= 2.0
            and abs(trues[i].range_m - ranges[j]) <= 0.05
        )
        assert hits < 5 or len(trues) > 5

    def test_one_input_fuses_to_its_own_scans(self, benchmark_scenario, monkeypatch):
        # The minimum and the geometric mean of one scan are that scan, bitwise.
        scans = {}
        for name in ("angle_spectrum", "range_spectrum"):
            original = getattr(music, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                scans[_name] = _original(*args, **kwargs)
                return scans[_name]

            monkeypatch.setattr(music, name, recording)
        res = localize(benchmark_scenario.snapshots(), MusicConfig(k_targets=4))
        for name in ("angle_spectrum", "range_spectrum"):
            assert np.array_equal(getattr(res, name).values, scans[name].values)

    def test_result_dict_round_trip(self, benchmark_scenario):
        res = localize(benchmark_scenario.snapshots(), MusicConfig(k_targets=4))
        payload = res.to_dict()
        assert len(payload["classified"]) == len(res.classified)
        assert payload["angle_signal_rank"] == res.angle_signal_rank
