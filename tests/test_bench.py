"""The Monte Carlo harness: failed trials are counted and keep their error."""
import json
import logging

from canf import bench
from canf.bench import MonteCarloConfig, run_monte_carlo
from canf.scenario import default_benchmark_scenario


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
