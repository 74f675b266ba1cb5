"""The Monte Carlo harness: failed trials are counted and keep their error,
and tied assignments are decided the same way whatever the roundoff."""
import json
import logging

import numpy as np
import pytest

from canf import bench
from canf.bench import METHODS, MonteCarloConfig, associate, run_monte_carlo
from canf.scenario import default_benchmark_scenario


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"snr_db_list": ()}, "snr_db_list"),
        ({"q_trials": 0}, "q_trials"),
        ({"methods": ("music",)}, "unknown methods"),
        ({"snr_db_list": (10.0, float("nan"))}, "finite"),
        ({"snr_db_list": (float("inf"),)}, "finite"),
        ({"snr_db_list": (float("-inf"),)}, "finite"),
        ({"base_seed": -1}, "base_seed"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    fields = {"scenario": default_benchmark_scenario(), "snr_db_list": (10.0,), **kwargs}
    with pytest.raises(ValueError, match=message):
        MonteCarloConfig(**fields)


def test_rows_do_not_depend_on_method_order():
    scenario = default_benchmark_scenario()

    def rows(methods):
        report = run_monte_carlo(MonteCarloConfig(scenario, (0.0, 20.0), 2, methods))
        return {(r.method, r.snr_db): r for r in report.rows}

    assert rows(METHODS) == rows(tuple(reversed(METHODS)))


def test_failed_trial_is_recorded_with_its_error(monkeypatch, caplog, tmp_path):
    def boom(snapshots, config=None):
        raise RuntimeError("covariance exploded")

    monkeypatch.setattr(bench, "localize", boom)
    config = MonteCarloConfig(
        default_benchmark_scenario(), (10.0,), q_trials=2, methods=("proposed", "farfield")
    )
    with caplog.at_level(logging.ERROR, logger="canf.bench"):
        report = run_monte_carlo(config)

    assert report.n_failed == 2
    failed = [r for r in report.records if r.method == "proposed"]
    assert [r.failed for r in failed] == [True, True]
    assert [r.error for r in failed] == ["RuntimeError: covariance exploded"] * 2
    assert [r.seed for r in failed] == [0, 1]
    assert report.row("proposed", 10.0).theta_rmse_deg is None
    # The exception is still logged with its traceback.
    assert sum(1 for rec in caplog.records if rec.exc_info) == 2
    # The rest of the sweep ran normally.
    survivors = [r for r in report.records if r.method == "farfield"]
    assert [(r.failed, r.error) for r in survivors] == [(False, None)] * 2

    raw = tmp_path / "raw.jsonl"
    report.write_raw_jsonl(raw)
    lines = [json.loads(line) for line in raw.read_text(encoding="utf-8").splitlines()]
    assert [line["error"] for line in lines] == [
        "RuntimeError: covariance exploded",
        "RuntimeError: covariance exploded",
        None,
        None,
    ]


@pytest.mark.parametrize(
    "est_theta, est_range, true_range, expected",
    [
        # L1 20 either way and squared error 104 either way: the
        # lexicographically smaller pairs win.
        ((4.0, 6.0), (16.0, 14.0), (10.0, 20.0), ((0, 0), (1, 1))),
        # Angle-only, L1 16 either way: the squared error (160 < 200) picks
        # the swapped pairs.
        ((14.0, 12.0), None, None, ((0, 1), (1, 0))),
    ],
)
def test_associate_breaks_exact_ties_deterministically(est_theta, est_range, true_range, expected):
    # Truths at 0 and 10 degrees.  Roundoff-sized changes of the estimates
    # must not flip a tie: every 1e-12 relative perturbation gives the same pairs.
    rng = np.random.default_rng(0)

    def perturbed(values):
        if values is None:
            return None
        return np.asarray(values) * (1.0 + 1e-12 * rng.choice([-1.0, 1.0], len(values)))

    assert associate(est_theta, est_range, (0.0, 10.0), true_range, 1.0).pairs == expected
    for _ in range(20):
        match = associate(perturbed(est_theta), perturbed(est_range), (0.0, 10.0), true_range, 1.0)
        assert match.pairs == expected


def test_untied_assignment_takes_one_solver_call(monkeypatch):
    # Each estimate sits near its own truth, so every branch of the
    # partition has a row-minimum bound above the tie window and is
    # dropped unsolved.
    calls = []
    solve = bench.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(bench, "linear_sum_assignment", counting)
    truth_theta, truth_range = (-35.0, 10.0, 30.0, 50.0), (25.0, 30.0, 20.0, 40.0)
    match = associate(
        (30.4, -34.8, 49.1, 10.2), (19.0, 26.0, 41.0, 31.5), truth_theta, truth_range, 20.0
    )
    assert match.pairs == ((0, 2), (1, 0), (2, 3), (3, 1))
    assert calls == [(4, 4)]
