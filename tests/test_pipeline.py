"""The staged pipeline as a whole: golden outputs and decompositions per call.

The golden file was written at commit 915cb02, before the pipeline was split
into shared stages, from the repository root with

    PYTHONPATH=src python tests/test_pipeline.py > tests/data/pipeline_golden.json

and must not be regenerated to make a later change pass.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from canf import (
    MusicConfig,
    build_bundle,
    localize,
    localize_dense,
    localize_farfield_virtual,
    localize_subarray,
    synthesize,
)
from canf import baselines, music
from canf.scenario import default_benchmark_scenario

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
REL_TOL = 1e-9
CONFIG = MusicConfig(k_targets=4)


def benchmark_inputs():
    """Coprime and dense snapshot sets of the benchmark scenario at 10 dB."""
    scenario = default_benchmark_scenario(snr_db=10.0, seed=0)
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


def test_result_carries_the_bundle_it_ran_on():
    snaps, _ = benchmark_inputs()
    expected = build_bundle(snaps)
    bundle = localize(snaps, CONFIG).bundle
    for name in ("r_hat", "r_d", "r_v"):
        np.testing.assert_array_equal(getattr(bundle, name), getattr(expected, name))
    assert localize_subarray(snaps, CONFIG).bundle is None


if __name__ == "__main__":
    json.dump(pipeline_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
