"""Steering vectors and synthetic snapshot generation."""
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from canf import (
    Target,
    TargetSet,
    build_dense_layout,
    steering_exact,
    steering_fresnel,
    synthesize,
)
from canf.channel import fresnel_phase_terms, steering_matrix
from canf.scenario import default_benchmark_scenario

SYNTHESIS_SHA256 = Path(__file__).parent / "data" / "synthesis_sha256.json"


def random_targets(rng, n=20):
    thetas = rng.uniform(-1.4, 1.4, n)
    ranges = rng.uniform(0.6, 50.0, n)
    return [Target(float(t), float(r)) for t, r in zip(thetas, ranges)]


class TestSteeringVectors:
    def test_unit_modulus(self, layout911, rng):
        for t in random_targets(rng):
            for fn in (steering_exact, steering_fresnel):
                np.testing.assert_allclose(np.abs(fn(layout911, t)), 1.0, atol=1e-12)

    def test_center_sensor_is_one(self, layout911, rng):
        center = layout911.grid.index(0)
        for t in random_targets(rng, 5):
            assert steering_exact(layout911, t)[center] == pytest.approx(1.0)
            assert steering_fresnel(layout911, t)[center] == pytest.approx(1.0)

    def test_exact_broadside_form(self, layout911):
        t = Target(0.0, 5.0)
        s = layout911.positions
        expected = np.exp(
            1j
            * 2.0
            * np.pi
            / layout911.wavelength
            * (np.sqrt(t.r**2 + s**2) - t.r)
        )
        np.testing.assert_allclose(steering_exact(layout911, t), expected, atol=1e-9)

    def test_fresnel_far_limit_is_linear_phase(self, layout911):
        t = Target.from_degrees(25.0, 1e9)
        p, _ = fresnel_phase_terms(layout911, t.theta, t.r)
        delta = np.angle(steering_fresnel(layout911, t) * np.exp(-1j * p))
        assert np.max(np.abs(delta)) < 1e-6

    def test_fresnel_matches_exact_in_region(self, layout911):
        # (30 deg, 20 m) on the 0.45 m aperture: quadratic-phase residual
        # stays below 0.05 rad elementwise.
        t = Target.from_degrees(30.0, 20.0)
        be = steering_exact(layout911, t)
        bf = steering_fresnel(layout911, t)
        err = np.abs(np.angle(bf * be.conj()))
        assert np.max(err) <= 0.05

    @pytest.mark.parametrize("theta_deg", [-40.0, 0.0, 55.0])
    def test_fresnel_error_decreases_with_range(self, layout911, theta_deg):
        grid = np.geomspace(
            layout911.fresnel_distance, layout911.rayleigh_distance, 12
        )
        errs = []
        for r in grid:
            t = Target.from_degrees(theta_deg, float(r))
            err = np.abs(
                np.angle(steering_fresnel(layout911, t) * steering_exact(layout911, t).conj())
            )
            errs.append(np.max(err))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_phase_term_parity(self, layout911, rng):
        # p is odd and q is even in the sensor coordinate; the layout is
        # symmetric so reversing the array realizes the mirror.
        for t in random_targets(rng, 5):
            p, q = fresnel_phase_terms(layout911, t.theta, t.r)
            np.testing.assert_allclose(p, -p[::-1], atol=1e-9)
            np.testing.assert_allclose(q, q[::-1], atol=1e-9)


def selfspectrum(layout, theta):
    """Doubled-position far-field steering ``exp(2j * p)``: the manifold the
    decoupled covariance lives on, built from the first-order phase term."""
    p, _ = fresnel_phase_terms(layout, theta, 1.0)
    return np.exp(2j * p)


class TestSelfSpectrumSteering:
    def test_broadside_all_ones(self, layout911):
        np.testing.assert_allclose(selfspectrum(layout911, 0.0), np.ones(layout911.size))

    def test_is_squared_first_order_phase(self, layout911, rng):
        # a_u * conj(a_{-u}) keeps only the odd (angle) phase, doubled: the
        # range term q is even and cancels, whatever the range.
        s = layout911.positions
        for t in random_targets(rng, 10):
            a = steering_fresnel(layout911, t)
            phase = -2.0 * np.pi / layout911.wavelength * 2.0 * s * np.sin(t.theta)
            expected = np.exp(1j * phase)
            np.testing.assert_allclose(selfspectrum(layout911, t.theta), expected, atol=1e-12)
            np.testing.assert_allclose(a * a[::-1].conj(), expected, atol=1e-9)

    def test_quarter_wavelength_grid_unambiguous(self):
        # On a dense lambda/4 layout the doubled-position manifold has no
        # second angle reproducing the same vector.
        lam = 10e-3
        layout = build_dense_layout(7, lam / 4.0, lam)
        theta0 = np.deg2rad(20.0)
        a0 = selfspectrum(layout, theta0)
        scan = np.deg2rad(np.arange(-89.5, 90.0, 0.5))
        corr = np.array(
            [np.abs(a0.conj() @ selfspectrum(layout, t)) / layout.size for t in scan]
        )
        far = np.abs(np.rad2deg(scan - theta0)) > 1.0
        assert np.max(corr[far]) < 0.999


class TestSynthesize:
    def test_noise_free_is_exact_mixture(self, layout911):
        targets = TargetSet((Target.from_degrees(10, 20), Target.from_degrees(-5, 30)))
        snaps = synthesize(layout911, targets, 16, None, 3)
        b = steering_matrix(layout911, targets, "exact")
        np.testing.assert_allclose(snaps.y, b @ snaps.x, atol=1e-12)
        assert snaps.sigma2 == 0.0

    def test_noise_variance_matches_snr(self, layout23):
        targets = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, targets, 100_000, 3.0, 7)
        b = steering_matrix(layout23, targets, "exact")
        noise = snaps.y - b @ snaps.x
        sigma2 = 10 ** (-3.0 / 10.0)
        cov = noise @ noise.conj().T / snaps.n_snapshots
        tol = 3.0 / np.sqrt(snaps.n_snapshots)
        np.testing.assert_allclose(cov, sigma2 * np.eye(layout23.size), atol=tol)

    def test_source_power_near_unity(self, layout23):
        targets = TargetSet((Target.from_degrees(5, 1.0), Target.from_degrees(-25, 1.0)))
        snaps = synthesize(layout23, targets, 50_000, 10.0, 11)
        power = np.mean(np.abs(snaps.x) ** 2, axis=1)
        np.testing.assert_allclose(power, 1.0, atol=0.02)

    def test_deterministic_given_seed(self, layout23):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        a = synthesize(layout23, targets, 32, 5.0, 42)
        b = synthesize(layout23, targets, 32, 5.0, 42)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)

    def test_infinite_snr_means_noise_free(self, layout23):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        snaps = synthesize(layout23, targets, 8, np.inf, 0)
        assert snaps.sigma2 == 0.0 and snaps.snr_db is None

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_nan_and_minus_infinite_snr_rejected(self, layout23, snr_db):
        # -inf dB is infinite noise, not none; NaN has no noise level at all.
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match="snr_db"):
            synthesize(layout23, targets, 8, snr_db, 0)

    @pytest.mark.parametrize("snr_db", [-3100.0, -1e6, np.float64(-3100.0)])
    def test_snr_whose_noise_power_overflows_rejected(self, layout23, snr_db):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match=re.escape(f"snr_db={snr_db!r}")):
            synthesize(layout23, targets, 8, snr_db, 0)

    @pytest.mark.parametrize("n_snapshots", [1, 7, 100, 20000])
    def test_draw_is_bitwise_pinned(self, n_snapshots):
        # The SHA-256 of y and x for every case was recorded from the tree
        # that drew its normals in four calls and built y = B x + z out of
        # place; the one-call, in-place synthesis must reproduce each byte.
        # The pin is of this numpy and BLAS build: B x sums K products.
        pinned = json.loads(SYNTHESIS_SHA256.read_text(encoding="utf-8"))["cases"]
        scenario = default_benchmark_scenario()
        layout = scenario.layout()
        mismatched = []
        for snr_db in (0.0, 10.0, 37.3, math.inf):
            for model in ("exact", "fresnel"):
                for k in (1, 4):
                    targets = TargetSet(scenario.targets.targets[:k])
                    for seed in (0, 5, 123):
                        snaps = synthesize(layout, targets, n_snapshots, snr_db, seed, model)
                        key = f"T={n_snapshots} snr={snr_db} model={model} K={k} seed={seed}"
                        digests = [
                            hashlib.sha256(a.tobytes()).hexdigest() for a in (snaps.y, snaps.x)
                        ]
                        if digests != pinned.pop(key):
                            mismatched.append(key)
        assert mismatched == []
        assert not any(key.startswith(f"T={n_snapshots} ") for key in pinned)

    def test_benchmark_scenario_shape(self, benchmark_scenario):
        snaps = benchmark_scenario.snapshots()
        assert snaps.y.shape == (37, 100)
        assert snaps.x.shape == (4, 100)

    def test_empty_target_set_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(())


class TestTargetValidation:
    def test_angle_domain(self):
        with pytest.raises(ValueError):
            Target(np.pi / 2, 1.0)
        with pytest.raises(ValueError):
            Target(0.0, -1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_range_must_be_finite_and_positive(self, r):
        # NaN fails no ordering test, so "r <= 0" alone would let it through.
        with pytest.raises(ValueError, match="finite and positive"):
            Target(0.0, r)
