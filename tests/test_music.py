"""Eigen-subspace machinery and the two-phase MUSIC estimator."""
import dataclasses

import numpy as np
import pytest

from canf import (
    CoprimeParams,
    MusicConfig,
    SpectrumGrid,
    SubspaceRule,
    Target,
    TargetSet,
    build_coprime_layout,
    difference_coarray,
    eig_hermitian,
    localize,
    range_spectrum,
    synthesize,
)
from canf.channel import steering_fresnel, steering_matrix
from canf.covariance import build_bundle, decouple, spatial_smooth, vectorize_to_coarray
from canf.music import (
    CANCELLATION_FLOOR,
    PseudoSpectrum,
    Subspace,
    _classify_candidates,
    _real_angle_manifold,
    angle_spectrum,
    detect_peaks,
    real_form,
    signal_rank,
)
from canf.bench import associate

import oracles

LAM = 10e-3


def ideal_bundle(layout, targets):
    """Analysis covariances built directly from the quadratic-phase model."""
    b = steering_matrix(layout, targets, "fresnel")
    r_hat = b @ b.conj().T
    _, r_d = decouple(r_hat, layout)
    ca = difference_coarray(layout)
    r_v = spatial_smooth(vectorize_to_coarray(r_d, layout))
    return r_hat, r_v, ca


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


class TestNoiseSubspace:
    def test_fixed_size_and_orthonormality(self, rng):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        sub = Subspace.split(a @ a.conj().T, SubspaceRule.fixed(3))
        un = sub.eigvecs[:, sub.rank :]
        assert un.shape == (10, 7)
        np.testing.assert_allclose(un.conj().T @ un, np.eye(7), atol=1e-10)

    @pytest.mark.parametrize("k", [0, 10, 11])
    def test_fixed_rejects_bad_rank(self, rng, k):
        a = rng.standard_normal((10, 10))
        w, _ = eig_hermitian(a + a.T)
        with pytest.raises(ValueError):
            signal_rank(w, SubspaceRule.fixed(k))

    def test_gap_rule_finds_noise_free_cliff(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        _, r_v, _ = ideal_bundle(layout911, targets)
        w, _ = eig_hermitian(r_v)
        assert signal_rank(w, SubspaceRule.eig_gap(5)) == 1

    def test_gap_rule_flat_spectrum_falls_back(self):
        w = np.linspace(2.0, 1.0, 8)
        assert signal_rank(w, SubspaceRule.eig_gap(3)) == 3

    def test_gap_rule_search_limit(self):
        # A huge tail ratio beyond the fallback rank must not capture the
        # split; the gap of ratio 30/9 > 3 inside it does.
        w = np.array([30.0, 9.0, 8.5, 8.0, 1e-12])
        assert signal_rank(w, SubspaceRule.eig_gap(2)) == 1
        assert signal_rank(w, SubspaceRule.eig_gap(4)) == 4

    def test_gap_rule_on_benchmark_selects_at_least_k(self, benchmark_scenario):
        # Cross components inflate the virtual signal dimension past K.
        layout = benchmark_scenario.layout()
        _, r_v, _ = ideal_bundle(layout, benchmark_scenario.targets)
        w, _ = eig_hermitian(r_v)
        k = signal_rank(w, SubspaceRule.eig_gap(10))
        assert k >= len(benchmark_scenario.targets)


class TestSpectrumGrid:
    def test_for_layout(self, layout911):
        grid = SpectrumGrid.for_layout(layout911)
        assert grid.angle_deg[0] == pytest.approx(-89.95)
        assert grid.angle_deg[-1] == pytest.approx(89.95)
        assert grid.range_m[0] == pytest.approx(layout911.fresnel_distance)
        assert grid.range_m[-1] <= layout911.rayleigh_distance + 1e-9

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SpectrumGrid((), (1.0, 2.0))
        with pytest.raises(ValueError):
            SpectrumGrid((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            SpectrumGrid((-90.0, 0.0), (1.0, 2.0))

    def test_for_layout_is_built_once_as_read_only_arrays(self, layout911):
        grid = SpectrumGrid.for_layout(layout911, 0.05, 0.1)
        assert SpectrumGrid.for_layout(layout911, 0.05, 0.1) is grid
        for axis in (grid.angle_deg, grid.range_m):
            assert axis.dtype == float and not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 0.0


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

    def test_prominence_threshold(self):
        values = 10.0 ** (np.array([0.0, 0.04, 0.0, 1.0, 0.0]))
        spec = PseudoSpectrum(np.arange(5.0), values)
        assert len(detect_peaks(spec)) == 1

    def test_edge_peak_needs_flag(self):
        values = np.linspace(1.0, 100.0, 8)
        spec = PseudoSpectrum(np.arange(8.0), values)
        assert detect_peaks(spec) == []
        edge = detect_peaks(spec, include_edges=True)
        assert len(edge) == 1 and edge[0].location == 7.0

    def test_min_separation_merges_ridge(self):
        values = np.array([1.0, 80.0, 60.0, 79.0, 1.0, 1.0, 90.0, 1.0])
        spec = PseudoSpectrum(np.arange(8.0), values)
        assert len(detect_peaks(spec)) == 3
        merged = detect_peaks(spec, min_separation=3.0)
        assert [p.index for p in merged] == [6, 1]

    def test_parabolic_refinement_recovers_offgrid_vertex(self):
        axis = np.linspace(-1.0, 1.0, 21)
        vertex = 0.137
        db = -40.0 * (axis - vertex) ** 2
        spec = PseudoSpectrum(axis, 10.0 ** (db / 10.0))
        peaks = detect_peaks(spec)
        assert peaks[0].location == pytest.approx(vertex, abs=1e-9)


class TestAngleSpectrum:
    def test_single_target_peak_at_truth(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        _, r_v, ca = ideal_bundle(layout911, targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        spec = angle_spectrum(
            Subspace.split(real_form(r_v), SubspaceRule.fixed(1)), ca.unit, LAM, grid
        )
        peaks = detect_peaks(spec, max_count=1)
        assert peaks[0].location == pytest.approx(10.0, abs=0.05)

    def test_values_positive_finite(self, layout911, rng):
        targets = TargetSet((Target.from_degrees(-25.0, 10.0),))
        snaps = synthesize(layout911, targets, 50, 0.0, 3)
        bundle = build_bundle(snaps)
        ca = difference_coarray(layout911)
        spec = angle_spectrum(
            Subspace.split(real_form(bundle.r_v), SubspaceRule.fixed(1)),
            ca.unit, LAM, np.linspace(-89.95, 89.95, 720),
        )
        assert np.all(np.isfinite(spec.values)) and np.all(spec.values > 0)

    def test_power_of_two_scaling_bit_identical(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        _, r_v, ca = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        rule = SubspaceRule.fixed(10)
        lam = layout.wavelength
        p1, p2 = (
            detect_peaks(
                angle_spectrum(Subspace.split(real_form(r), rule), ca.unit, lam, grid),
                10,
                min_separation=0.5,
            )
            for r in (r_v, 4.0 * r_v)
        )
        assert [p.location for p in p1] == [p.location for p in p2]

    def test_arbitrary_scaling_same_peak_indices(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        _, r_v, ca = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.linspace(-89.95, 89.95, 3599)
        rule = SubspaceRule.fixed(10)
        lam = layout.wavelength
        p1, p3 = (
            detect_peaks(
                angle_spectrum(Subspace.split(real_form(r), rule), ca.unit, lam, grid),
                10,
                min_separation=0.5,
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
            man = _real_angle_manifold(w, 1e-3, LAM, 1.0, grid.tobytes())
            centred = np.exp(phase * np.arange(w)) * np.exp(-phase * 0.5 * (w - 1))
            rotated = oracles.unitary_q(w).conj().T @ centred
            np.testing.assert_allclose(rotated.imag, 0.0, atol=1e-12)
            np.testing.assert_allclose(man[0], rotated.real, atol=1e-12)
            assert not man.flags.writeable


class TestRangeSpectrum:
    def test_single_target_peak(self, layout911):
        targets = TargetSet((Target.from_degrees(10.0, 30.0),))
        r_hat, _, _ = ideal_bundle(layout911, targets)
        grid = np.arange(0.54, 40.5, 0.1)
        spec = range_spectrum(Subspace.split(r_hat, SubspaceRule.fixed(1)), layout911, 10.0, grid)
        peaks = detect_peaks(spec, max_count=1, include_edges=True)
        assert peaks[0].location == pytest.approx(30.0, abs=0.1)

    def test_co_angle_pair_resolved_on_ideal_covariance(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _, _ = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.asarray(SpectrumGrid.for_layout(layout).range_m)
        initial = Subspace.split(r_hat, SubspaceRule.fixed(4))
        spec = range_spectrum(initial, layout, 30.0, grid)
        peaks = detect_peaks(spec, max_count=2, include_edges=True)
        locs = sorted(p.location for p in peaks)
        assert locs[0] == pytest.approx(20.0, abs=0.1)
        assert locs[1] == pytest.approx(40.0, abs=0.1)

    def test_angle_array_gives_one_scan_per_angle(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _, _ = ideal_bundle(layout, benchmark_scenario.targets)
        grid = np.asarray(SpectrumGrid.for_layout(layout).range_m)
        initial = Subspace.split(r_hat, SubspaceRule.fixed(4))
        thetas = np.array([-35.0, 10.0, 30.0])
        stacked = range_spectrum(initial, layout, thetas, grid)
        assert stacked.values.shape == (3, grid.size)
        for theta, row in zip(thetas, stacked.values):
            single = range_spectrum(initial, layout, float(theta), grid)
            np.testing.assert_allclose(row, single.values, rtol=1e-9)

    def test_near_rows_of_several_candidates_match_the_full_manifold(self, layout911):
        # One source on a grid range at each of three candidate angles: every
        # candidate has rows below CANCELLATION_FLOOR on the signal basis,
        # and each must be recomputed on its own candidate's noise basis.
        u = layout911.size
        grid = np.linspace(layout911.fresnel_distance, layout911.rayleigh_distance, 12)
        thetas = np.array([-20.0, 15.0, 40.0])
        full = oracles.range_steering_matrix(layout911, thetas, grid)
        columns = full[[0, 1, 2], [3, 8, 5]].T
        power = np.array([1.0, 2.0, 0.5])
        matrix = (columns * power) @ columns.conj().T + 1e-6 * np.eye(u)
        sub = Subspace.split(matrix, SubspaceRule.fixed(3))
        signal = sub.eigvecs[:, :3]
        from_signal = 1.0 - np.sum(np.abs(full @ signal.conj()) ** 2, axis=-1) / u
        near = from_signal < CANCELLATION_FLOOR
        assert np.count_nonzero(near.any(axis=1)) == 3
        expected = oracles.noise_power_reference(sub.eigvecs[:, 3:], full.reshape(-1, u))
        spec = range_spectrum(sub, layout911, thetas, grid)
        np.testing.assert_allclose(1.0 / spec.values.ravel(), expected, rtol=1e-9, atol=1e-20)


class TestClassification:
    def test_benchmark_figure_behavior(self, benchmark_scenario):
        # Analysis covariance: true angles produce significant in-region
        # range peaks (two at the shared angle), cross angles do not.
        layout = benchmark_scenario.layout()
        r_hat, r_v, ca = ideal_bundle(layout, benchmark_scenario.targets)
        cfg = MusicConfig(k_targets=4)
        grid = SpectrumGrid.for_layout(layout)
        virtual = Subspace.split(real_form(r_v), cfg.angle_rule(r_v.shape[0]))
        spec = angle_spectrum(virtual, ca.unit, layout.wavelength, grid.angle_deg)
        peaks = detect_peaks(spec, cfg.candidate_limit(), min_separation=0.5)
        found = sorted(p.location for p in peaks[:6])
        for truth in (-35.0, 10.0, 30.0):
            assert min(abs(f - truth) for f in found) < 0.05
        initial = Subspace.split(r_hat, cfg.range_rule(layout.size))
        classified, _ = _classify_candidates(
            [p.location for p in peaks], [(layout, initial)], layout, grid
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

    def test_no_candidates_gives_empty_result(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        r_hat, _, _ = ideal_bundle(layout, benchmark_scenario.targets)
        initial = Subspace.split(r_hat, MusicConfig(k_targets=4).range_rule(layout.size))
        classified, spectra = _classify_candidates(
            [], [(layout, initial)], layout, SpectrumGrid.for_layout(layout)
        )
        assert classified == [] and spectra == []


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
        sub = Subspace.split(bundle.r_hat, SubspaceRule.fixed(4))
        un = sub.eigvecs[:, sub.rank :]
        for t in benchmark_scenario.targets:
            b = steering_fresnel(layout, t)
            resid = np.linalg.norm(b.conj() @ un) ** 2 / layout.size
            assert resid <= 1e-6
        # angle stage, single target: exact annihilation as well
        t1 = TargetSet((Target.from_degrees(10.0, 30.0),))
        b1 = build_bundle(synthesize(layout, t1, 100, None, 0, "fresnel"))
        sub1 = Subspace.split(b1.r_v, SubspaceRule.eig_gap(1))
        un1 = sub1.eigvecs[:, sub1.rank :]
        ca = difference_coarray(layout)
        row = oracles.virtual_steering_matrix(
            b1.r_v.shape[0], ca.unit, layout.wavelength, np.array([10.0])
        )[0]
        assert np.linalg.norm(row.conj() @ un1) ** 2 / b1.r_v.shape[0] <= 1e-6

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

    def test_result_dict_round_trip(self, benchmark_scenario):
        res = localize(benchmark_scenario.snapshots(), MusicConfig(k_targets=4))
        payload = res.to_dict()
        assert len(payload["classified"]) == len(res.classified)
        assert payload["angle_signal_rank"] == res.angle_signal_rank
