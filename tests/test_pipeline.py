"""The staged pipeline as a whole: golden outputs and decompositions per call.

The golden file was first written at commit 915cb02, before the pipeline was
split into shared stages, from the repository root with

    PYTHONPATH=src python tests/test_pipeline.py > tests/data/pipeline_golden.json

The high-SNR golden was first written at commit c418ffe, before the scans
projected onto the signal subspace, with

    PYTHONPATH=src python tests/test_pipeline.py --high-snr > tests/data/high_snr_golden.json

Both were regenerated, with the same commands, by the change that follows
commit 5586265: the angle stage decomposes the real form ``Re(Q^H r_v Q)``
of ``r_v`` (now the test reference ``oracles.real_form``) with the real
symmetric solver, which moves the smallest ``virtual_eigvals`` (noise-floor
eigenvalues, down to about 1e-11) by up to 3.1e-6 relative.  A 40-digit
``mpmath`` eigendecomposition of every golden ``r_v`` puts the old and the
new values alike within 5 eps*lambda_max of the exact ones; every other
number stayed within 1e-9 of the old files, and every label, count and rank
was equal.

Both were regenerated again, with the same commands, by the change that
follows commit 7527501: the angle stage decomposes the Hermitian Toeplitz
matrix ``T`` of the coarray vector (``music.Subspace.split_coarray``) and
reports ``lam_T^2 / W`` instead of decomposing the smoothed ``T T^H / W``,
whose formation squares the condition number.  Only ``virtual_eigvals``
moved by more than 1e-9: 3 entries of the pipeline golden (by up to 7.6e-9)
and 64 of the high-SNR golden (by up to 3.7e-6).  Against a 34-digit
``mpmath`` decomposition of the window-average smoothed matrix of each
input's ``r_tilde`` (``oracles.smoothed_eigvalsh_mp``), every one of the 67
moved values is closer than the value it replaced: worst relative error
3.7e-6 before, 3.2e-11 after.  Every label, count and rank was equal.
Neither file may be regenerated to make a later change pass unless it
changes the outputs on purpose.
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from canf import (
    MusicConfig,
    TargetSet,
    build_bundle,
    localize,
    localize_dense,
    localize_farfield_virtual,
    localize_subarray,
    score_detections,
    synthesize,
)
from canf import baselines, music
from canf.scenario import default_benchmark_scenario

import oracles

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
HIGH_SNR_GOLDEN = Path(__file__).parent / "data" / "high_snr_golden.json"
REL_TOL = 1e-9
CONFIG = MusicConfig(k_targets=4)


def benchmark_inputs(snr_db=10.0, seed=0):
    """Coprime and dense snapshot sets of the benchmark scenario."""
    scenario = default_benchmark_scenario(snr_db=snr_db, seed=seed)
    dense_snaps = synthesize(
        scenario.dense_layout(),
        scenario.targets,
        scenario.n_snapshots,
        scenario.snr_db,
        scenario.seed,
        scenario.model,
    )
    return scenario.snapshots(), dense_snaps


def pipeline_outputs() -> dict:
    """Every method's result on the benchmark scenario, as plain JSON data."""
    snaps, dense_snaps = benchmark_inputs()
    farfield = localize_farfield_virtual(snaps, CONFIG)
    return {
        "localize": localize(snaps, CONFIG).to_dict(),
        "localize_dense": localize_dense(dense_snaps, CONFIG).to_dict(),
        "localize_subarray": localize_subarray(snaps, CONFIG).to_dict(),
        "localize_farfield_virtual": {
            "angles_deg": list(farfield.angles_deg),
            "virtual_eigvals": [float(v) for v in farfield.virtual_eigvals],
            "angle_signal_rank": farfield.angle_signal_rank,
        },
    }


def high_snr_outputs() -> dict:
    """Every method's result on the benchmark scenario at noise-free, 60 and
    40 dB, seeds 0-2: near-noiseless covariances, where the signal-subspace
    projection is closest to cancellation at the peaks."""
    out = {}
    for snr_db in (None, 60.0, 40.0):
        for seed in (0, 1, 2):
            snaps, dense_snaps = benchmark_inputs(snr_db, seed)
            key = f"{'noise-free' if snr_db is None else f'{snr_db:g} dB'}, seed {seed}"
            out[key] = {
                "localize": localize(snaps, CONFIG).to_dict(),
                "localize_dense": localize_dense(dense_snaps, CONFIG).to_dict(),
                "localize_subarray": localize_subarray(snaps, CONFIG).to_dict(),
                "farfield_angles_deg": list(localize_farfield_virtual(snaps, CONFIG).angles_deg),
            }
    return out


def unknown_k_results() -> dict:
    """``localize`` with ``MusicConfig()`` on the first three benchmark
    targets: K = 3 comes from the snapshots' waveforms, not the config."""
    base = default_benchmark_scenario()
    scenario = dataclasses.replace(base, targets=TargetSet(tuple(base.targets)[:3]))
    return {
        f"{snr_db:g} dB, seed {seed}": localize(
            dataclasses.replace(scenario, snr_db=snr_db).snapshots(seed=seed), MusicConfig()
        )
        for snr_db in (10.0, 20.0, 30.0)
        for seed in (0, 1, 2)
    }


def assert_matches(actual, expected, path="$"):
    """Exact for labels, counts and ranks; numbers within ``REL_TOL`` relative."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r}"
        )


def test_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(pipeline_outputs()))
    assert_matches(actual, expected)


def test_high_snr_outputs_match_golden():
    expected = json.loads(HIGH_SNR_GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(high_snr_outputs()))
    assert_matches(actual, expected)


def test_unknown_k_finds_the_gap_ranks_and_every_target():
    # No golden covers this path.  K = 3 is read from the snapshots'
    # waveforms, so the angle stage keeps K (K + 1) / 2 = 6 components (the
    # 3 targets plus 3 pairwise cross terms) and the range stage K = 3, and
    # every target must pass the Monte Carlo harness's strict detection.
    scenario = default_benchmark_scenario()
    truth = tuple(scenario.targets)[:3]
    theta = [t.theta_deg for t in truth]
    rng = [t.r for t in truth]
    z_r = scenario.layout().rayleigh_distance
    for key, res in unknown_k_results().items():
        assert (res.angle_signal_rank, res.range_signal_rank) == (6, 3), key
        trues = res.true_targets
        found = score_detections(
            [c.theta_deg for c in trues], [c.range_m for c in trues], theta, rng, z_r
        )
        assert found.all_detected, key


LOCALIZERS = [localize, localize_dense, localize_farfield_virtual, localize_subarray]


def _method_inputs(method):
    snaps, dense_snaps = benchmark_inputs()
    return dense_snaps if method is localize_dense else snaps


@pytest.mark.parametrize("method", LOCALIZERS)
def test_default_config_reads_k_from_the_waveforms(method):
    # The snapshots carry one known waveform per target, so leaving
    # k_targets out gives the K = 4 result.
    snaps = _method_inputs(method)

    def summary(config):
        result = method(snaps, config)
        if method is localize_farfield_virtual:
            return list(result.angles_deg), result.angle_signal_rank
        return result.to_dict()

    assert summary(MusicConfig()) == summary(CONFIG)


@pytest.mark.parametrize("method", LOCALIZERS)
def test_declared_k_must_equal_the_waveform_count(method):
    with pytest.raises(ValueError, match="k_targets=3, but the snapshots carry 4 waveforms"):
        method(_method_inputs(method), MusicConfig(k_targets=3))


def test_virtual_eigvals_match_a_34_digit_smoothed_decomposition():
    # Noise-free, the dense array's 37 virtual eigenvalues span 11 decades.
    # Forming the smoothed matrix in double and decomposing it squares the
    # condition number of T and put the smallest off by 1.5e-6 relative;
    # splitting T keeps every one within 1e-9 of the mpmath reference.
    _, dense_snaps = benchmark_inputs(snr_db=None, seed=0)
    result = localize_dense(dense_snaps, CONFIG)
    expected = oracles.smoothed_eigvalsh_mp(result.bundle.r_tilde)
    np.testing.assert_allclose(result.virtual_eigvals, expected, rtol=REL_TOL, atol=0.0)


@pytest.mark.parametrize(
    "method, expected",
    [
        (localize, 2),
        (localize_dense, 2),
        (localize_farfield_virtual, 1),
        (localize_subarray, 4),
    ],
)
def test_one_decomposition_per_covariance(monkeypatch, method, expected):
    # r_v and r_hat are decomposed once each, per (sub)array; the far-field
    # scheme has no range stage and decomposes r_v alone.
    snaps, dense_snaps = benchmark_inputs()
    original = music.eig_hermitian
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    for module in (music, baselines):
        monkeypatch.setattr(module, "eig_hermitian", counting)
    method(dense_snaps if method is localize_dense else snaps, CONFIG)
    assert len(calls) == expected, calls


@pytest.mark.parametrize(
    "method, expected",
    [
        (localize, (1, 1)),
        (localize_dense, (1, 1)),
        (localize_farfield_virtual, (1, 0)),
        (localize_subarray, (1, 1)),
    ],
)
def test_one_peak_search_per_phase(monkeypatch, method, expected):
    # The angle spectrum is searched once, and every candidate's range
    # spectrum in one classification call.
    snaps, dense_snaps = benchmark_inputs()
    calls = {"detect_peaks": 0, "classify_range_spectrum": 0}

    def counting(name):
        original = getattr(music, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    # The far-field scheme calls detect_peaks through its own binding.
    for name in calls:
        counted = counting(name)
        for module in (music, baselines):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    result = method(dense_snaps if method is localize_dense else snaps, CONFIG)
    assert (calls["detect_peaks"], calls["classify_range_spectrum"]) == expected
    if expected[1]:
        assert len(result.candidates) > 1


@pytest.mark.parametrize(
    "method, n_inputs",
    [(localize, 1), (localize_dense, 1), (localize_farfield_virtual, 1), (localize_subarray, 2)],
)
def test_angle_stage_decomposes_a_real_matrix(monkeypatch, method, n_inputs):
    # Each input's r_v reaches eig_hermitian as its real W x W form, so the
    # angle stage runs the real symmetric solver; r_hat stays complex.
    snaps, dense_snaps = benchmark_inputs()
    original = music.eig_hermitian
    calls = []

    def recording(matrix):
        calls.append(matrix)
        return original(matrix)

    for module in (music, baselines):
        monkeypatch.setattr(module, "eig_hermitian", recording)
    result = method(dense_snaps if method is localize_dense else snaps, CONFIG)
    virtual, initial = calls[:n_inputs], calls[n_inputs:]
    assert all(m.dtype == np.float64 and m.shape == (m.shape[0],) * 2 for m in virtual)
    assert sum(m.shape[0] for m in virtual) == result.virtual_eigvals.size
    assert all(np.iscomplexobj(m) for m in initial)


@pytest.mark.parametrize(
    "method, expected",
    [
        (localize, {"angle_spectrum": 1, "range_spectrum": 1}),
        (localize_subarray, {"angle_spectrum": 2, "range_spectrum": 2}),
        (localize_farfield_virtual, {"angle_spectrum": 1, "range_spectrum": 0}),
    ],
)
def test_one_scan_stage_call_per_input(monkeypatch, method, expected):
    # angle_spectrum and range_spectrum are the only scan stages: each runs
    # once per (sub)array input, with every candidate angle in one range call.
    snaps, _ = benchmark_inputs()
    calls = {name: 0 for name in expected}

    def counting(name):
        original = getattr(music, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in expected:
        wrapper = counting(name)
        for module in (music, baselines):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    method(snaps, CONFIG)
    assert calls == expected


def test_result_carries_the_bundle_it_ran_on():
    snaps, _ = benchmark_inputs()
    expected = build_bundle(snaps)
    bundle = localize(snaps, CONFIG).bundle
    for name in ("r_hat", "r_d", "r_tilde"):
        np.testing.assert_array_equal(getattr(bundle, name), getattr(expected, name))
    assert localize_subarray(snaps, CONFIG).bundle is None


if __name__ == "__main__":
    outputs = high_snr_outputs() if sys.argv[1:] == ["--high-snr"] else pipeline_outputs()
    json.dump(outputs, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
