"""Steering vectors and synthetic snapshot generation."""
import hashlib
import json
import math
import re
import sys
import threading
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
    synthesize_sweep,
)
from canf import channel
from canf.channel import DRAW_BLOCK, HANDOFF_ROWS, fresnel_phase_terms, steering_matrix
from canf.scenario import default_benchmark_scenario

import oracles

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

    def test_unknown_model_rejected(self, layout911):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match="model must be one of .*'planar'"):
            steering_matrix(layout911, targets, "planar")

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



class TestSynthesizeSweep:
    SNRS = (None, 10.0, math.inf, -5.0, 37.3, None, 0.0)

    @pytest.mark.parametrize("n_snapshots", [1, 100, DRAW_BLOCK + 1])
    @pytest.mark.parametrize("model", ["exact", "fresnel"])
    def test_each_entry_is_the_one_snr_draw(self, n_snapshots, model):
        # Noise-free and noisy entries in any order: each is bitwise the
        # single-SNR synthesis and the bulk reference, and owns its arrays.
        scenario = default_benchmark_scenario()
        layout = scenario.layout()
        sets = synthesize_sweep(layout, scenario.targets, n_snapshots, self.SNRS, 4, model)
        b = steering_matrix(layout, scenario.targets, model)
        assert len(sets) == len(self.SNRS)
        for snr_db, snaps in zip(self.SNRS, sets):
            one = synthesize(layout, scenario.targets, n_snapshots, snr_db, 4, model)
            for name in ("y", "x"):
                assert getattr(snaps, name).tobytes() == getattr(one, name).tobytes()
            assert (snaps.sigma2, snaps.snr_db, snaps.seed, snaps.model) == (
                one.sigma2, one.snr_db, one.seed, one.model
            )
            x, y = oracles.synthesize_bulk(b, n_snapshots, snaps.sigma2, 4)
            np.testing.assert_array_equal(snaps.x, x)
            np.testing.assert_array_equal(snaps.y, y)
        arrays = [a for snaps in sets for a in (snaps.y, snaps.x)]
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        )

    @pytest.mark.parametrize(
        "snr_db_list, message",
        [
            ((10.0, np.nan), "snr_db must be a number"),
            ((10.0, -np.inf), "snr_db must be a number"),
            ((10.0, -4000.0), "snr_db=-4000.0 is too low"),
            ((), "at least one SNR"),
        ],
    )
    def test_every_snr_is_checked_before_the_draw(self, layout23, monkeypatch, snr_db_list, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking every SNR")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match=message):
            synthesize_sweep(layout23, targets, 8, snr_db_list, 0)

    @pytest.mark.parametrize(
        "n_snapshots, snr_db_list, seed, message",
        [
            (True, (10.0,), 0, "n_snapshots must be an integer, got True"),
            (8.5, (10.0,), 0, "n_snapshots must be an integer, got 8.5"),
            ("8", (10.0,), 0, "n_snapshots must be an integer"),
            (8, (10.0,), True, "seed must be an integer, got True"),
            (8, (10.0,), 1.5, "seed must be an integer, got 1.5"),
            (8, (10.0,), -1, "seed must be non-negative, got -1"),
            (8, (10.0, True), 0, "snr_db must be a number, got True"),
            (8, ("10",), 0, "snr_db must be a number"),
        ],
    )
    def test_an_input_that_is_not_an_integer_or_number_is_rejected_before_the_draw(
        self, layout23, monkeypatch, n_snapshots, snr_db_list, seed, message
    ):
        # A bool used to draw as 1, and a non-integral count or seed failed
        # inside numpy.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking every input")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match=re.escape(message)):
            synthesize_sweep(layout23, targets, n_snapshots, snr_db_list, seed)

    @pytest.mark.parametrize(
        "n_snapshots, snr_db, seed",
        [(8.0, 10, 3.0), (np.int64(8), np.float64(10.0), np.int64(3)), (8, np.int32(10), 3)],
    )
    def test_integral_and_numpy_inputs_draw_what_python_numbers_draw(
        self, layout23, n_snapshots, snr_db, seed
    ):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        got = synthesize(layout23, targets, n_snapshots, snr_db, seed)
        expected = synthesize(layout23, targets, 8, 10.0, 3)
        assert got.y.tobytes() == expected.y.tobytes()
        assert got.x.tobytes() == expected.x.tobytes()
        assert (type(got.seed), got.seed) == (int, 3)
        assert (type(got.snr_db), got.snr_db, got.sigma2) == (float, 10.0, expected.sigma2)


@pytest.mark.parametrize(
    "snr_db, message",
    [
        (True, "snr_db must be a number, got True"),
        (False, "snr_db must be a number, got False"),
        ("10", "snr_db must be a number, got '10'"),
        (10j, "snr_db must be a number, got 10j"),
        (10**400, "snr_db is too large for a float"),
    ],
)
def test_noise_power_rejects_what_is_not_a_real_number(snr_db, message):
    # True used to give the 1 dB noise power, 0.794.
    with pytest.raises(ValueError, match=re.escape(message)):
        channel.noise_power(snr_db)


def _finished(call, seconds=60):
    """``call()``, run on a thread: its result or its exception, or a test
    failure if it has not returned within ``seconds`` (not a hung suite)."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # raised again below
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class _RecordingGenerator:
    """Draws as the generator ``rng`` does, records the thread of every
    draw, and raises on draw number ``fail_at`` (1-based) if given."""

    def __init__(self, rng, fail_at=None):
        self.rng = rng
        self.fail_at = fail_at
        self.threads = []

    def standard_normal(self, *, out):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(out=out)


class TestHelperDraw:
    """With noise and T > DRAW_BLOCK, one helper thread draws the noise rows."""

    def _draw(self, monkeypatch, n_snapshots, snr_db, fail_at=None):
        made, default_rng = [], np.random.default_rng

        def recording(seed):
            made.append(_RecordingGenerator(default_rng(seed), fail_at))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        scenario = default_benchmark_scenario()
        snaps = synthesize(scenario.layout(), scenario.targets, n_snapshots, snr_db, 9)
        return snaps, made[0].threads

    @pytest.mark.parametrize("n_snapshots", [100, DRAW_BLOCK, DRAW_BLOCK + 1])
    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_only_a_long_noisy_draw_hands_its_noise_rows_to_one_helper(
        self, monkeypatch, n_snapshots, snr_db
    ):
        snaps, threads = self._draw(monkeypatch, n_snapshots, snr_db)
        main = threading.current_thread()
        if snr_db == math.inf or n_snapshots <= DRAW_BLOCK:
            assert set(threads) == {main}
            return
        # x's real and imaginary rows (K = 4) on the caller, then 2U = 74
        # noise rows in chunks of HANDOFF_ROWS rows of one part on a helper.
        u = snaps.y.shape[0]
        chunks = 2 * -(-u // HANDOFF_ROWS)
        assert threads[:2] == [main, main] and len(threads) == 2 + chunks
        assert len(set(threads[2:])) == 1 and threads[2] is not main

    @pytest.mark.parametrize("fail_at", [3, 6, 12])
    def test_a_failed_draw_is_raised_and_leaves_no_thread(self, monkeypatch, fail_at):
        # Draw 3 is the helper's first, 6 is mid-stream, 12 is its last.
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            _finished(lambda: self._draw(monkeypatch, DRAW_BLOCK + 1, 10.0, fail_at))
        assert threading.active_count() == threads

    def test_a_failure_beside_the_draw_releases_the_helper(self, monkeypatch):
        # B @ x fails while the helper fills both chunk buffers and waits
        # for one back: the caller must release it before joining it.
        class Unmixable:
            def __matmul__(self, other):
                raise ArithmeticError("no mixture")

        monkeypatch.setattr(channel, "steering_matrix", lambda *args: Unmixable())
        scenario = default_benchmark_scenario()
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="no mixture"):
            _finished(
                lambda: synthesize(scenario.layout(), scenario.targets, DRAW_BLOCK + 1, 10.0, 9)
            )
        assert threading.active_count() == threads

    def test_concurrent_callers_each_draw_their_own_stream(self):
        # Four callers, each with its own helper, and a short switch
        # interval: a chunk buffer handed back before its add was done
        # would be overwritten by the next chunk's normals.
        scenario = default_benchmark_scenario()
        layout, n = scenario.layout(), DRAW_BLOCK + 1
        b = steering_matrix(layout, scenario.targets, "exact")
        sigma2 = channel.noise_power(10.0)
        expected = {seed: oracles.synthesize_bulk(b, n, sigma2, seed)[1] for seed in range(4)}
        got = {}

        def call(seed):
            got[seed] = synthesize(layout, scenario.targets, n, 10.0, seed).y

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=call, args=(seed,), daemon=True) for seed in expected
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        for seed, y in expected.items():
            np.testing.assert_array_equal(got[seed], y)


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

    @pytest.mark.parametrize("n_snapshots", [0, -1])
    def test_fewer_than_one_snapshot_rejected(self, layout23, n_snapshots):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match="at least one snapshot"):
            synthesize(layout23, targets, n_snapshots, 10.0, 0)

    @pytest.mark.parametrize("snr_db", [-3100.0, -1e6, np.float64(-3100.0)])
    def test_snr_whose_noise_power_overflows_rejected(self, layout23, snr_db):
        targets = TargetSet((Target.from_degrees(12, 1.0),))
        with pytest.raises(ValueError, match=re.escape(f"snr_db={snr_db!r}")):
            synthesize(layout23, targets, 8, snr_db, 0)

    @pytest.mark.parametrize("n_snapshots", [1, DRAW_BLOCK // 37, 3001, DRAW_BLOCK + 1])
    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_streamed_draw_equals_one_bulk_draw(self, n_snapshots, snr_db):
        # Blocks of several rows, a part ending inside a block, and one row
        # per draw: each must draw the bits of one (2K + 2U, T) call.
        scenario = default_benchmark_scenario()
        layout = scenario.layout()
        snaps = synthesize(layout, scenario.targets, n_snapshots, snr_db, 9)
        b = steering_matrix(layout, scenario.targets, "exact")
        x, y = oracles.synthesize_bulk(b, n_snapshots, snaps.sigma2, 9)
        np.testing.assert_array_equal(snaps.x, x)
        np.testing.assert_array_equal(snaps.y, y)

    @pytest.mark.parametrize("n_snapshots", [1, 7, 100, 20000])
    def test_draw_is_bitwise_pinned(self, n_snapshots):
        # The SHA-256 of y and x for every case was recorded from the tree
        # that drew its normals in four calls and built y = B x + z out of
        # place; the streamed, in-place synthesis must reproduce each byte.
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
