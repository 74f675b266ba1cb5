"""Covariance chain: estimators, decoupling identities, coarray, smoothing."""
import dataclasses
import re
import threading

import numpy as np
import pytest

from canf import (
    CoprimeParams,
    SensorLayout,
    Target,
    TargetSet,
    build_coprime_layout,
    covariance_ls,
    covariance_sample,
    decouple,
    difference_coarray,
    spatial_smooth,
    synthesize,
    vectorize_to_coarray,
)
from canf.channel import steering_fresnel, steering_matrix
from canf import covariance
from canf._helper import beside
from canf.covariance import build_bundle, mirror_antidiagonal
from conftest import random_fresnel_scenario

import oracles

LAM = 10e-3


def ideal_covariance(layout, targets):
    b = steering_matrix(layout, targets, "fresnel")
    return b @ b.conj().T


class TestCovarianceLS:
    def test_single_target_noise_free_rank_one(self, layout911):
        t = TargetSet((Target.from_degrees(17.0, 12.0),))
        snaps = synthesize(layout911, t, 40, None, 5)
        r_hat = covariance_ls(snaps)
        b = steering_matrix(layout911, t, "exact")[:, 0]
        np.testing.assert_allclose(r_hat, np.outer(b, b.conj()), atol=1e-10)
        np.testing.assert_allclose(np.abs(r_hat), 1.0, atol=1e-10)

    def test_diagonal_real_positive(self, layout911):
        t = TargetSet((Target.from_degrees(5, 10), Target.from_degrees(-25, 20)))
        snaps = synthesize(layout911, t, 64, None, 2)
        d = np.diag(covariance_ls(snaps))
        assert np.all(np.abs(d.imag) < 1e-12) and np.all(d.real > 0)

    def test_matches_straight_line_reference(self, layout23):
        t = TargetSet((Target.from_degrees(5, 1.0), Target.from_degrees(-30, 1.5)))
        snaps = synthesize(layout23, t, 100, 10.0, 9)
        np.testing.assert_allclose(
            covariance_ls(snaps),
            oracles.ls_covariance_reference(snaps.y, snaps.x),
            atol=1e-12,
        )

    def test_zero_power_snapshot_rejected(self, layout23):
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 4, None, 0)
        snaps.x[:, 2] = 0.0
        with pytest.raises(ValueError, match="zero source power"):
            covariance_ls(snaps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_waveform_rejected(self, layout23, bad):
        # An infinite source power would otherwise zero its snapshot silently.
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 4, None, 0)
        snaps.x[0, 1] = bad
        with pytest.raises(ValueError, match="waveforms x have non-finite"):
            covariance_ls(snaps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_snapshot_rejected(self, layout23, bad):
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 4, 10.0, 0)
        snaps.y[1, 3] = bad
        with pytest.raises(ValueError, match="snapshots y have non-finite"):
            covariance_ls(snaps)

    @pytest.mark.filterwarnings("error")
    def test_finite_snapshots_whose_covariance_overflows_are_rejected(self, layout23):
        # At -3080 dB the noise is about 1e154: every snapshot is finite,
        # but its squared magnitude is not.
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 4, -3080.0, 0)
        assert np.all(np.isfinite(snaps.y))
        for estimate in (covariance_ls, covariance_sample):
            with pytest.raises(ValueError, match="covariance that overflows a float"):
                estimate(snaps)


class TestGram:
    """The Gram product summed over snapshot blocks against one product."""

    @pytest.mark.parametrize("n_snapshots", [1, 100, covariance._GRAM_BLOCK])
    def test_one_block_is_bitwise_the_single_product(self, layout911, n_snapshots):
        t = TargetSet((Target.from_degrees(5, 10), Target.from_degrees(-25, 20)))
        snaps = synthesize(layout911, t, n_snapshots, 10.0, 3)
        weight = 1.0 / np.sqrt(np.sum(np.abs(snaps.x) ** 2, axis=0))
        for w in (None, weight):
            np.testing.assert_array_equal(
                covariance._gram(snaps.y, w), oracles.gram_one_matmul(snaps.y, w)
            )

    def test_many_blocks_match_the_single_product(self, layout911):
        t = TargetSet((Target.from_degrees(5, 10), Target.from_degrees(-25, 20)))
        snaps = synthesize(layout911, t, 20_000, 10.0, 3)
        assert snaps.n_snapshots > 2 * covariance._GRAM_BLOCK
        weight = 1.0 / np.sqrt(np.sum(np.abs(snaps.x) ** 2, axis=0))
        for w in (None, weight):
            expected = oracles.gram_one_matmul(snaps.y, w)
            gram = covariance._gram(snaps.y, w)
            assert np.max(np.abs(gram - expected)) <= 1e-14 * np.max(np.abs(expected))
            np.testing.assert_array_equal(gram, gram.conj().T)

    @pytest.mark.parametrize("n_snapshots", [1024, 1280, 20_000])
    def test_blocks_are_summed_in_order_bitwise(self, layout911, n_snapshots):
        # 2, 2.5 and about 39 blocks: the helper thread makes the second
        # half's products, and the sum must still be one loop's, in order.
        t = TargetSet((Target.from_degrees(5, 10), Target.from_degrees(-25, 20)))
        snaps = synthesize(layout911, t, n_snapshots, 10.0, 3)
        weight = 1.0 / np.sqrt(np.sum(np.abs(snaps.x) ** 2, axis=0))
        for w in (None, weight):
            np.testing.assert_array_equal(
                covariance._gram(snaps.y, w),
                oracles.gram_blocks_in_order(snaps.y, w, covariance._GRAM_BLOCK),
            )

    @pytest.mark.parametrize("n_snapshots, helpers", [(100, 0), (512, 0), (513, 1), (20_000, 1)])
    def test_a_helper_starts_only_past_one_block(
        self, layout911, monkeypatch, n_snapshots, helpers
    ):
        started = []

        def counted(work, stop=None):
            started.append(work)
            return beside(work, stop)

        monkeypatch.setattr(covariance, "beside", counted)
        t = TargetSet((Target.from_degrees(5, 10),))
        covariance_ls(synthesize(layout911, t, n_snapshots, 10.0, 3))
        assert len(started) == helpers

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("estimate", [covariance_ls, covariance_sample])
    def test_a_non_finite_snapshot_in_the_helpers_half_is_rejected(self, layout911, bad, estimate):
        # Of 4 blocks the helper takes blocks 2 and 3.  numpy's error state
        # does not pass to a new thread, so an unsilenced helper would raise
        # a RuntimeWarning (an error here) instead of the check's ValueError.
        n = 4 * covariance._GRAM_BLOCK
        t = TargetSet((Target.from_degrees(5, 10),))
        snaps = synthesize(layout911, t, n, 10.0, 3)
        snaps.y[3, 3 * covariance._GRAM_BLOCK + 7] = bad
        threads = threading.active_count()
        with pytest.raises(ValueError, match="snapshots y have non-finite"):
            estimate(snaps)
        assert threading.active_count() == threads

    def test_ls_weight_is_bitwise_the_division(self, layout911):
        # covariance_ls multiplies by 1 / sqrt(power) where the definition
        # divides by sqrt(power); numpy's complex-by-real division is that
        # product, bit for bit.
        t = TargetSet((Target.from_degrees(5, 10),))
        snaps = synthesize(layout911, t, 100, 10.0, 3)
        root = np.sqrt(np.einsum("kt,kt->t", snaps.x.conj(), snaps.x).real)
        np.testing.assert_array_equal(
            covariance_ls(snaps), oracles.gram_one_matmul(snaps.y / root[None, :])
        )


class TestBeside:
    """The helper thread: joined on every exit, its failure the caller's."""

    def test_the_helpers_exception_is_raised_in_the_caller(self):
        threads = threading.active_count()
        with pytest.raises(KeyError, match="helper"):
            with beside(lambda: {}["helper"]):
                pass
        assert threading.active_count() == threads

    def test_a_failing_body_stops_and_joins_the_helper(self):
        release, ran = threading.Event(), threading.Event()

        def work():
            if release.wait(60):
                ran.set()

        with pytest.raises(ZeroDivisionError):
            with beside(work, stop=release.set):
                1 / 0
        assert ran.is_set()

    def test_when_both_fail_the_helpers_exception_carries_the_bodys(self):
        with pytest.raises(KeyError) as raised:
            with beside(lambda: {}["helper"]):
                1 / 0
        assert isinstance(raised.value.__context__, ZeroDivisionError)

    def test_the_helper_runs_under_the_callers_error_state(self):
        seen = []
        with np.errstate(over="raise", invalid="ignore"):
            with beside(lambda: seen.append(np.geterr())):
                pass
        assert (seen[0]["over"], seen[0]["invalid"]) == ("raise", "ignore")


class TestCovarianceSample:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_snapshot_rejected(self, layout23, bad):
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 4, 10.0, 0)
        snaps.y[0, 0] = bad
        with pytest.raises(ValueError, match="snapshots y have non-finite"):
            covariance_sample(snaps)

    def test_hermitian_exact(self, layout23):
        t = TargetSet((Target.from_degrees(10, 1.0),))
        snaps = synthesize(layout23, t, 50, 0.0, 3)
        r = covariance_sample(snaps)
        np.testing.assert_array_equal(r, r.conj().T)

    def test_single_target_convergence(self, layout23):
        t = TargetSet((Target.from_degrees(20, 1.0),))
        snaps = synthesize(layout23, t, 50_000, None, 1)
        r = covariance_sample(snaps)
        b = steering_matrix(layout23, t, "exact")[:, 0]
        tol = 3.0 / np.sqrt(snaps.n_snapshots)
        np.testing.assert_allclose(r, np.outer(b, b.conj()), atol=tol)

    def test_noise_only_gives_scaled_identity(self, layout23):
        t = TargetSet((Target.from_degrees(0, 1.0),))
        snaps = synthesize(layout23, t, 100_000, -40.0, 4)
        noise = snaps.y - steering_matrix(layout23, t, "exact") @ snaps.x
        object.__setattr__(snaps, "y", noise)
        r = covariance_sample(snaps)
        sigma2 = 10.0 ** 4.0
        np.testing.assert_allclose(
            r / sigma2, np.eye(layout23.size), atol=3.0 / np.sqrt(snaps.n_snapshots)
        )


class TestDecouple:
    def test_mirror_indexing(self, layout23, rng):
        u = layout23.size
        r = rng.standard_normal((u, u)) + 1j * rng.standard_normal((u, u))
        r_a = mirror_antidiagonal(r)
        for i in range(u):
            for j in range(u):
                assert r_a[i, j] == r[u - 1 - j, u - 1 - i]

    def test_requires_symmetric_layout(self):
        asymmetric = SensorLayout((0, 1, 3), 1e-3, LAM)
        with pytest.raises(ValueError, match="symmetric"):
            decouple(np.eye(3, dtype=complex), asymmetric)

    def test_shape_mismatch_rejected(self, layout23):
        with pytest.raises(ValueError, match="does not match"):
            decouple(np.eye(5, dtype=complex), layout23)

    def test_single_target_phase_is_doubled_first_order(self, layout911):
        theta, r = np.deg2rad(22.0), 17.0
        targets = TargetSet((Target(theta, r),))
        r_d = decouple(ideal_covariance(layout911, targets), layout911)
        p_mat, _ = oracles.first_second_order_terms(
            layout911.positions, LAM, theta, r
        )
        np.testing.assert_allclose(r_d, np.exp(2j * p_mat), atol=1e-9)

    def test_antidiagonal_is_angle_only(self, layout911):
        theta, r = np.deg2rad(-31.0), 25.0
        r_hat = ideal_covariance(layout911, TargetSet((Target(theta, r),)))
        u = layout911.size
        s = layout911.positions
        anti = np.array([r_hat[i, u - 1 - i] for i in range(u)])
        expected = np.exp(-1j * 2.0 * np.pi / LAM * 2.0 * s * np.sin(theta))
        np.testing.assert_allclose(anti, expected, atol=1e-9)

    def test_lemma_self_plus_cross(self, layout911, rng):
        targets = random_fresnel_scenario(layout911, rng, k_max=3)
        r_hat = ideal_covariance(layout911, targets)
        r_d = decouple(r_hat, layout911)
        s_ref, c_ref = oracles.self_cross_reference(
            layout911.positions, LAM, targets.thetas, targets.ranges
        )
        np.testing.assert_allclose(r_d, s_ref + c_ref, atol=1e-9)

    def test_mirror_identity_random_scenarios(self, layout911, rng):
        for _ in range(8):
            targets = random_fresnel_scenario(layout911, rng)
            r_hat = ideal_covariance(layout911, targets)
            r_a = mirror_antidiagonal(r_hat)
            ref = oracles.mirror_reference(
                layout911.positions, LAM, targets.thetas, targets.ranges
            )
            np.testing.assert_allclose(r_a, ref, atol=1e-9)

    def test_antidiagonal_invariant_to_ranges(self, layout911, rng):
        thetas = np.array([-0.5, 0.2, 0.9])
        u = layout911.size
        antis = []
        for ranges in ([5.0, 12.0, 30.0], [9.0, 22.0, 38.0]):
            targets = TargetSet(
                tuple(Target(float(t), float(r)) for t, r in zip(thetas, ranges))
            )
            r_hat = ideal_covariance(layout911, targets)
            antis.append(np.array([r_hat[i, u - 1 - i] for i in range(u)]))
        np.testing.assert_allclose(antis[0], antis[1], atol=1e-9)


class TestVectorizeToCoarray:
    @pytest.mark.parametrize("shape", [(37 * 37,), (36, 36), (37, 38), (1, 37, 37)])
    def test_a_matrix_that_is_not_u_by_u_is_rejected(self, layout911, shape):
        # A flat 37 * 37 array used to be binned as if it were 37 x 37, and
        # another size failed inside np.bincount.
        message = f"covariance shape {shape} does not match U=37"
        with pytest.raises(ValueError, match=re.escape(message)):
            vectorize_to_coarray(np.zeros(shape, dtype=complex), layout911)

    def test_single_target_pure_exponential(self, layout911):
        theta = np.deg2rad(10.0)
        targets = TargetSet((Target(theta, 20.0),))
        r_d = decouple(ideal_covariance(layout911, targets), layout911)
        ca = difference_coarray(layout911)
        r_t = vectorize_to_coarray(r_d, layout911)
        lags = np.array(ca.smoothing_segment)
        expected = np.exp(
            -1j * 2.0 * np.pi / LAM * 2.0 * lags * layout911.d * np.sin(theta)
        )
        np.testing.assert_allclose(r_t, expected, atol=1e-9)

    def test_conjugate_symmetry_single_target(self, layout911):
        targets = TargetSet((Target.from_degrees(-12.0, 30.0),))
        r_d = decouple(ideal_covariance(layout911, targets), layout911)
        r_t = vectorize_to_coarray(r_d, layout911)
        np.testing.assert_allclose(r_t, r_t[::-1].conj(), atol=1e-12)

    def test_lag_zero_is_diag_mean(self, layout911, rng):
        targets = random_fresnel_scenario(layout911, rng)
        r_d = decouple(ideal_covariance(layout911, targets), layout911)
        ca = difference_coarray(layout911)
        r_t = vectorize_to_coarray(r_d, layout911)
        mid = len(ca.smoothing_segment) // 2
        assert r_t[mid] == pytest.approx(np.mean(np.diag(r_d)))
        # noise-free the lag-0 sample equals the defining element sums
        s_ref, c_ref = oracles.self_cross_reference(
            layout911.positions, LAM, targets.thetas, targets.ranges
        )
        assert r_t[mid] == pytest.approx(np.mean(np.diag(s_ref + c_ref)), abs=1e-9)


class TestSpatialSmooth:
    def test_single_target_rank_one(self, layout911):
        targets = TargetSet((Target.from_degrees(25.0, 15.0),))
        bundle = build_bundle(synthesize(layout911, targets, 20, None, 0, "fresnel"))
        ev = np.linalg.eigvalsh(spatial_smooth(bundle.r_tilde))[::-1]
        assert np.sum(ev > 1e-9 * ev[0]) == 1

    def test_two_targets_rank_at_least_two(self, layout911):
        targets = TargetSet(
            (Target.from_degrees(-20.0, 15.0), Target.from_degrees(35.0, 25.0))
        )
        bundle = build_bundle(synthesize(layout911, targets, 20, None, 0, "fresnel"))
        ev = np.linalg.eigvalsh(spatial_smooth(bundle.r_tilde))[::-1]
        assert np.sum(ev > 1e-9 * ev[0]) >= 2

    def test_hermitian_psd(self, layout911, rng):
        targets = random_fresnel_scenario(layout911, rng)
        snaps = synthesize(layout911, targets, 60, 5.0, 8)
        bundle = build_bundle(snaps)
        r_v = spatial_smooth(bundle.r_tilde)
        assert np.max(np.abs(r_v - r_v.conj().T)) < 1e-12 * np.abs(np.trace(r_v))
        assert np.linalg.eigvalsh(r_v).min() >= -1e-9 * np.abs(np.trace(r_v))

    def test_window_geometry(self, params911):
        mn = params911.m * params911.n
        r_t = np.exp(1j * np.linspace(0.0, 1.0, 2 * mn + 1))
        r_v = spatial_smooth(r_t)
        assert r_v.shape == (mn + 1, mn + 1)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            spatial_smooth(np.ones(10, dtype=complex))

    def test_matches_window_average(self):
        rng = np.random.default_rng(0)
        r_t = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        expected = np.zeros((5, 5), dtype=complex)
        for i in range(5):
            w = r_t[i : i + 5]
            expected += np.outer(w, w.conj())
        np.testing.assert_allclose(spatial_smooth(r_t), expected / 5.0, atol=1e-12)


class TestBundle:
    def test_stage_shapes(self, layout911, params911):
        targets = TargetSet((Target.from_degrees(8.0, 20.0),))
        snaps = synthesize(layout911, targets, 16, None, 1)
        bundle = build_bundle(snaps)
        u = layout911.size
        mn = params911.m * params911.n
        assert bundle.r_hat.shape == (u, u)
        assert [f.name for f in dataclasses.fields(bundle)] == ["r_hat", "r_d", "r_tilde"]
        assert bundle.r_d.shape == (u, u)
        assert bundle.r_tilde.shape == (2 * mn + 1,)
        assert spatial_smooth(bundle.r_tilde).shape == (mn + 1, mn + 1)
