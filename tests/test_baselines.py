"""Dense-array, far-field virtual-array and subarray comparison schemes."""
import dataclasses
import re

import numpy as np
import pytest

from canf import (
    CoprimeParams,
    MusicConfig,
    Target,
    TargetSet,
    build_coprime_layout,
    build_dense_layout,
    build_subarrays,
    localize,
    localize_dense,
    localize_farfield_virtual,
    localize_subarray,
    synthesize,
)
from canf.channel import SnapshotSet
from canf.covariance import build_bundle, spatial_smooth
from canf.music import Subspace, angle_spectrum, detect_peaks
from oracles import real_form

LAM = 10e-3
# What the benchmark scenario's 4 targets would scan at each too-fine step:
# 1,799,999 angles (a (100, A) manifold, 1.44 GB) and 1,736,190 ranges (the
# range stage's 310 entries per range, 8.6 GB).  Both pass the per-axis cap.
TOO_FINE = {
    "angle": (
        {"angle_step_deg": 1e-4},
        "the angle scan of 4 targets over 1799999 grid points would hold 179999900 "
        "entries, more than 67108864: raise angle_step_deg",
    ),
    "range": (
        {"range_step_m": 2.3e-5},
        "the range scan of 4 targets over 1736190 grid points would hold 538218900 "
        "entries, more than 67108864: raise range_step_m",
    ),
}


@pytest.mark.parametrize("stage", sorted(TOO_FINE))
@pytest.mark.parametrize("scheme", [localize, localize_subarray, localize_farfield_virtual])
def test_every_scheme_rejects_a_config_too_fine_to_scan(
    benchmark_scenario, monkeypatch, stage, scheme
):
    # One plan for every scheme: the far-field scheme scans no ranges, and it
    # still refuses the range step the proposed method refuses.  The two
    # manifolds fail if reached, so a scheme that skips the plan fails fast.
    def no_manifold(*args, **kwargs):
        raise AssertionError("a scan manifold was built")

    for name in ("_real_angle_manifold", "_fresnel_chirp"):
        monkeypatch.setattr(f"canf.music.{name}", no_manifold)
    steps, message = TOO_FINE[stage]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scheme(benchmark_scenario.snapshots(), MusicConfig(**steps))


class TestDenseBaseline:
    def test_single_target_exact_recovery(self):
        layout = build_dense_layout(37, LAM / 4.0, LAM)
        target = Target.from_degrees(12.0, 0.8)  # inside the dense region
        snaps = synthesize(layout, TargetSet((target,)), 64, None, 0, "fresnel")
        res = localize_dense(snaps, MusicConfig(k_targets=1, range_step_m=0.01))
        trues = res.true_targets
        assert len(trues) == 1
        assert trues[0].theta_deg == pytest.approx(12.0, abs=0.05)
        assert trues[0].range_m == pytest.approx(0.8, abs=0.01)

    def test_rejects_non_dense_layout(self, layout911):
        snaps = synthesize(
            layout911, TargetSet((Target.from_degrees(0, 10),)), 8, None, 0
        )
        with pytest.raises(ValueError, match="dense"):
            localize_dense(snaps)


class TestFarfieldBaseline:
    def test_planar_target_angle_recovered(self, layout911):
        # Effectively planar synthesis: enormous range kills the curvature.
        targets = TargetSet((Target.from_degrees(-18.0, 1e9),))
        snaps = synthesize(layout911, targets, 100, None, 2, "fresnel")
        res = localize_farfield_virtual(snaps, MusicConfig(k_targets=1))
        assert len(res.angles_deg) == 1
        assert res.angles_deg[0] == pytest.approx(-18.0, abs=0.05)

    def test_rejects_an_angle_grid_too_large_to_scan_before_the_scan(
        self, benchmark_scenario, monkeypatch
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("angle_spectrum ran")

        monkeypatch.setattr("canf.baselines.angle_spectrum", no_scan)
        steps, message = TOO_FINE["angle"]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            localize_farfield_virtual(benchmark_scenario.snapshots(), MusicConfig(**steps))

    def test_no_range_estimates(self, benchmark_scenario):
        res = localize_farfield_virtual(
            benchmark_scenario.snapshots(), MusicConfig(k_targets=4)
        )
        assert not hasattr(res, "classified")
        assert len(res.angles_deg) <= 4

    def test_near_field_angle_error_persists_at_high_snr(self, benchmark_scenario):
        # The planar method sees the two co-ranged 30-degree targets as one
        # source, so under a known-K protocol its fourth strongest peak is
        # spurious: large matched angle errors persist at high SNR.
        from canf.bench import associate

        truth = np.array([-35.0, 10.0, 30.0, 30.0])
        for seed in (8, 23):
            snaps = dataclasses.replace(benchmark_scenario, snr_db=20.0).snapshots(seed=seed)
            res = localize_farfield_virtual(snaps, MusicConfig(k_targets=4))
            assert len(res.angles_deg) == 4
            match = associate(res.angles_deg, None, truth, None, 1.0)
            errors = [abs(res.angles_deg[i] - truth[j]) for i, j in match.pairs]
            assert max(errors) > 0.25


class TestSubarrayBaseline:
    def test_single_target_alias_rejection(self, benchmark_scenario):
        layout = benchmark_scenario.layout()
        targets = TargetSet((Target.from_degrees(20.0, 25.0),))
        snaps = synthesize(layout, targets, 100, None, 11, "exact")
        res = localize_subarray(snaps, MusicConfig(k_targets=1))
        trues = res.true_targets
        assert len(trues) == 1
        assert trues[0].theta_deg == pytest.approx(20.0, abs=0.1)
        assert trues[0].range_m == pytest.approx(25.0, abs=0.5)

    def test_requires_coprime_layout(self):
        layout = build_dense_layout(7, LAM / 4.0, LAM)
        snaps = synthesize(
            layout, TargetSet((Target.from_degrees(0, 0.2),)), 8, None, 0
        )
        with pytest.raises(ValueError, match="coprime"):
            localize_subarray(snaps)

    def test_rejects_a_single_sensor_subarray(self):
        # M = 1: subarray 1 has 2M - 1 = 1 sensor, so its coarray has W = 1
        # and no split could leave a noise subspace.
        layout = build_coprime_layout(CoprimeParams(1, 4, 0.0025, LAM))
        snaps = synthesize(layout, TargetSet((Target.from_degrees(10.0, 0.05),)), 20, 20.0, 0)
        message = "subarray baseline needs M >= 2: with M = 1, subarray 1 has 2M - 1 = 1 sensor"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            localize_subarray(snaps)

    def test_single_subarray_spectrum_is_aliased(self, params911, benchmark_scenario):
        # One sparse subarray alone cannot pin the angle: several grating
        # peaks of comparable height appear for a single target.
        layout = benchmark_scenario.layout()
        sub1, _ = build_subarrays(params911)
        targets = TargetSet((Target.from_degrees(20.0, 25.0),))
        snaps = synthesize(layout, targets, 100, None, 11, "exact")
        parent_index = {g: i for i, g in enumerate(layout.grid)}
        rows = [parent_index[g * params911.n] for g in sub1.grid]
        sub_snaps = SnapshotSet(
            sub1, snaps.y[rows, :], snaps.x, snaps.sigma2, snaps.snr_db,
            snaps.seed, snaps.model,
        )
        bundle = build_bundle(sub_snaps)
        spec = angle_spectrum(
            Subspace.split(real_form(spatial_smooth(bundle.r_tilde)), 1),
            sub1.d,
            sub1.wavelength,
            np.linspace(-89.95, 89.95, 3599),
        )
        peaks = detect_peaks(spec, max_count=10)
        # grating-lobe peaks recur at multiples of 2/n in the sine domain
        strong = [p for p in peaks if p.height_db >= 25.0]
        assert len(strong) >= 2
        sines = np.sort(np.sin(np.deg2rad([p.location for p in strong])))
        steps = np.diff(sines) / (2.0 / params911.n)
        np.testing.assert_allclose(steps, np.round(steps), atol=0.02)

    def test_union_identity_at_baseline_boundary(self, params911, layout911):
        sub1, sub2 = build_subarrays(params911)
        union = {g * params911.n for g in sub1.grid} | {
            g * params911.m for g in sub2.grid
        }
        assert union == set(layout911.grid)

    def test_benchmark_scenario_finds_true_angles(self, benchmark_scenario):
        res = localize_subarray(benchmark_scenario.snapshots(), MusicConfig(k_targets=4))
        trues = [c.theta_deg for c in res.true_targets]
        for truth in (-35.0, 10.0, 30.0):
            assert min(abs(t - truth) for t in trues) <= 0.5
