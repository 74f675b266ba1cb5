"""The Monte Carlo harness: the shared draw of each trial gives every cell
the record it gets on its own, failed trials are counted and keep their
error, bad association inputs are rejected by name, the assignment solver
agrees with scipy's on hand-written cases, tied assignments are decided the
same way whatever the roundoff, an association takes one solver call, tied
or not, and the strict-detection scorer applies its gates exactly on
hand-made estimates."""
import json
import logging
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from canf import bench
from canf.bench import METHODS, MonteCarloConfig, associate, run_monte_carlo, score_detections
from canf.scenario import default_benchmark_scenario

import oracles


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"snr_db_list": ()}, "snr_db_list"),
        ({"q_trials": 0}, "q_trials"),
        ({"methods": ("music",)}, "unknown methods"),
        ({"methods": ()}, "methods must name at least one method"),
        ({"methods": ("farfield", "farfield")}, "methods repeats a method"),
        ({"snr_db_list": (10.0, 10.0)}, "snr_db_list repeats an SNR"),
        ({"snr_db_list": (0.0, 10, 10.0)}, "snr_db_list repeats an SNR"),
        ({"snr_db_list": (10.0, float("nan"))}, "finite"),
        ({"snr_db_list": (float("inf"),)}, "finite"),
        ({"snr_db_list": (float("-inf"),)}, "finite"),
        ({"base_seed": -1}, "base_seed"),
        ({"q_trials": 2.5}, "q_trials must be an integer, got 2.5"),
        ({"q_trials": "2"}, "q_trials must be an integer, got '2'"),
        ({"q_trials": True}, "q_trials must be an integer, got True"),
        ({"base_seed": 0.5}, "base_seed must be an integer, got 0.5"),
        ({"snr_db_list": (10.0, -4000.0)}, "snr_db=-4000.0 is too low: its noise power overflows"),
        ({"methods": "dense"}, "methods must be a sequence of names, not a string: 'dense'"),
        ({"methods": "farfield"}, "methods must be a sequence of names, not a string: 'farfield'"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    fields = {"scenario": default_benchmark_scenario(), "snr_db_list": (10.0,), **kwargs}
    with pytest.raises(ValueError, match=message):
        MonteCarloConfig(**fields)


def test_config_stores_integral_counts_as_ints():
    config = MonteCarloConfig(
        default_benchmark_scenario(), (10.0,), q_trials=np.float64(2.0), base_seed=3.0
    )
    assert (config.q_trials, config.base_seed) == (2, 3)
    assert type(config.q_trials) is int and type(config.base_seed) is int


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

    assert sum(r.failed for r in report.records) == 2
    failed = [r for r in report.records if r.method == "proposed"]
    assert [r.failed for r in failed] == [True, True]
    assert [r.error for r in failed] == ["RuntimeError: covariance exploded"] * 2
    assert [r.seed for r in failed] == [0, 1]
    rows = {(r.method, r.snr_db): r for r in report.rows}
    assert rows["proposed", 10.0].theta_rmse_deg is None
    # The exception is still logged with its traceback.
    assert sum(1 for rec in caplog.records if rec.exc_info) == 2
    # The rest of the sweep ran normally.
    survivors = [r for r in report.records if r.method == "farfield"]
    assert [(r.failed, r.error) for r in survivors] == [(False, None)] * 2

    raw = tmp_path / "raw.jsonl"
    with open(raw, "w", encoding="utf-8") as fh:
        report.write_raw_jsonl(fh)
    lines = [json.loads(line) for line in raw.read_text(encoding="utf-8").splitlines()]
    assert [line["error"] for line in lines] == [
        "RuntimeError: covariance exploded",
        "RuntimeError: covariance exploded",
        None,
        None,
    ]


RAW_KEYS = {
    "method", "snr_db", "trial", "seed", "theta_est_deg", "range_est_m", "labels",
    "n_candidates", "theta_errors_deg", "range_errors_m", "detected",
    "n_spurious_true", "n_cross_leaked", "failed", "error",
}


def test_report_schema_is_pinned(monkeypatch, tmp_path):
    # The CSV columns and JSONL keys are read from the dataclass fields, so
    # renaming a field changes the report; this test is what notices.
    def boom(snapshots, config=None):
        raise RuntimeError("covariance exploded")

    monkeypatch.setattr(bench, "localize", boom)
    config = MonteCarloConfig(
        default_benchmark_scenario(), (10.0,), q_trials=1, methods=("proposed", "farfield")
    )
    report = run_monte_carlo(config)
    csv, raw = tmp_path / "rmse.csv", tmp_path / "raw.jsonl"
    with open(csv, "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    with open(raw, "w", encoding="utf-8") as fh:
        report.write_raw_jsonl(fh)

    header, *rows = csv.read_text(encoding="utf-8").splitlines()
    assert header == "method,snr_db,theta_rmse_deg,r_rmse_m,detection_rate,mean_candidates"
    assert [row.split(",")[:2] for row in rows] == [["proposed", "10"], ["farfield", "10"]]
    failed, completed = [json.loads(line) for line in raw.read_text(encoding="utf-8").splitlines()]
    assert failed["failed"] and not completed["failed"]
    assert set(failed) == RAW_KEYS
    assert set(completed) == RAW_KEYS


def test_unknown_method_is_rejected_before_synthesis(monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran for an unknown method")

    monkeypatch.setattr(bench, "synthesize", no_synthesis)
    config = MonteCarloConfig(default_benchmark_scenario(), (10.0,))
    with pytest.raises(ValueError, match="unknown method 'music'"):
        bench.run_trial("music", config.scenario, 10.0, 0, config)


@pytest.mark.parametrize("est_range", [None, (25.0, 30.0)])
def test_associate_rejects_a_nan_estimate(est_range):
    with pytest.raises(ValueError):
        associate((np.nan, 10.0), est_range, (-35.0, 10.0), (25.0, 30.0), 20.0)


@pytest.mark.parametrize(
    "args, message",
    [
        # A short range array used to broadcast against its angles.
        (((10.0, 20.0, 30.0), (5.0,), (10.0, 20.0, 30.0), (5.0, 6.0, 7.0), 1.0), "est_range_m"),
        (((10.0, 20.0, 30.0), (5.0, 6.0, 7.0), (10.0, 20.0, 30.0), (5.0,), 1.0), "true_range_m"),
        # A negative scale would make the least cost maximize the range error.
        (((10.0,), (5.0,), (10.0,), (5.0,), -1.0), "range_scale"),
        # A zero scale used to divide by zero with a RuntimeWarning.
        (((10.0,), (5.0,), (10.0,), (5.0,), 0.0), "range_scale"),
        (((10.0,), (5.0,), (10.0,), (5.0,), np.inf), "range_scale"),
        # True used to scale the range errors by 1.
        (((10.0,), (5.0,), (10.0,), (5.0,), True), "range_scale must be a number, got True"),
        (((10.0,), (5.0,), (10.0,), (5.0,), "20"), "range_scale must be a number, got '20'"),
        (((10.0,), (5.0,), (10.0,), (5.0,), None), "range_scale must be a number, got None"),
        (((10.0,), (5.0,), (10.0,), (5.0,), 10**400), "range_scale is too large for a float"),
        # A range estimate needs a range truth to be scored against.
        (((10.0,), (5.0,), (10.0,), None, 1.0), "true_range_m"),
        # NaN and -inf are rejected where they enter, not by the solver.
        (((-np.inf, 10.0), None, (-35.0, 10.0), None, 20.0), "est_theta_deg"),
        (((-35.0, 10.0), None, (np.nan, 10.0), None, 20.0), "true_theta_deg"),
        (((-35.0, 10.0), (25.0, -np.inf), (-35.0, 10.0), (25.0, 30.0), 20.0), "est_range_m"),
        (((-35.0, 10.0), (25.0, 30.0), (-35.0, 10.0), (np.nan, 30.0), 20.0), "true_range_m"),
        # A nested list used to reach the solver and fail there with a TypeError.
        (([[0.0, 1.0]], (5.0,), (0.0,), (5.0,), 1.0), r"^est_theta_deg must be 1-D, got shape"),
        (((0.0,), [[0.0, 1.0]], (0.0,), (5.0,), 1.0), r"^est_range_m must be 1-D"),
        (((0.0,), (5.0,), [[0.0, 1.0]], (5.0,), 1.0), r"^true_theta_deg must be 1-D"),
        (((0.0,), (5.0,), (0.0,), [[0.0, 1.0]], 1.0), r"^true_range_m must be 1-D"),
    ],
    ids=[
        "short-est-range", "short-true-range", "negative-scale", "zero-scale", "inf-scale",
        "bool-scale", "string-scale", "none-scale", "huge-int-scale",
        "est-range-without-truth", "-inf-est-theta", "nan-true-theta", "-inf-est-range",
        "nan-true-range", "2d-est-theta", "2d-est-range", "2d-true-theta", "2d-true-range",
    ],
)
def test_associate_rejects_bad_inputs_by_name(args, message):
    with pytest.raises(ValueError, match=message):
        associate(*args)



@pytest.mark.parametrize(
    "cost, expected",
    [
        ([[3.0, 1.0, 2.0]], [(0, 1)]),  # a single row
        ([[3.0], [1.0], [2.0]], [(1, 0)]),  # a single column
        ([[4.0, 9.0], [9.0, 1.0], [2.0, 5.0]], [(1, 1), (2, 0)]),  # more rows than columns
        ([[1.0, 2.0], [1.0, 5.0]], [(0, 1), (1, 0)]),  # the second row reroutes the first
        ([[math.inf, 1.0], [2.0, math.inf]], [(0, 1), (1, 0)]),  # forbidden pairs avoided
    ],
)
def test_solver_hand_cases(cost, expected):
    assert oracles.linear_sum_assignment(cost) == expected
    rows, cols = scipy_assignment(np.array(cost))
    assert list(zip(rows.tolist(), cols.tolist())) == expected


@pytest.mark.parametrize(
    "cost",
    [
        [[math.inf, math.inf], [1.0, 2.0]],  # a row with no allowed pair
        [[1.0, math.inf], [2.0, math.inf]],  # a column with no allowed pair
        [[1.0, math.inf, math.inf], [2.0, math.inf, math.inf]],  # two rows, one usable column
        [[1.0, 2.0], [math.inf, math.inf], [math.inf, math.inf]],  # two columns, one usable row
    ],
)
def test_solver_rejects_an_infeasible_cost(cost):
    with pytest.raises(ValueError, match="infeasible"):
        oracles.linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="infeasible"):
        scipy_assignment(np.array(cost))


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


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = bench._solve

    def counting(cost):
        calls.append((len(cost), len(cost[0])))
        return solve(cost)

    monkeypatch.setattr(bench, "_solve", counting)
    return calls


def test_untied_assignment_takes_one_solver_call(monkeypatch):
    # Each estimate sits near its own truth, so one solve finds the only
    # assignment inside the tie window.
    calls = _count_solves(monkeypatch)
    truth_theta, truth_range = (-35.0, 10.0, 30.0, 50.0), (25.0, 30.0, 20.0, 40.0)
    match = associate(
        (30.4, -34.8, 49.1, 10.2), (19.0, 26.0, 41.0, 31.5), truth_theta, truth_range, 20.0
    )
    assert match.pairs == ((0, 2), (1, 0), (2, 3), (3, 1))
    assert calls == [(4, 4)]


def test_tied_assignments_take_one_solver_call(monkeypatch):
    # Every estimate within 0.02 of the first truth, two of them below it in
    # both coordinates: the separable L1 cost ties 10,080 assignments, all
    # found by the search that the first solve's dual bounds.
    n = 8
    truth_theta, truth_range = np.linspace(-60.0, 60.0, n), np.linspace(5.0, 35.0, n)
    below = np.arange(n) < 2
    est_theta = truth_theta[0] + np.where(below, -0.01 * (1 + np.arange(n)), 0.002 * np.arange(n))
    est_range = truth_range[0] + np.where(below, -0.01 * (1 + np.arange(n)), 0.0025 * np.arange(n))
    cost = np.abs(est_theta[:, None] - truth_theta)
    cost += np.abs(est_range[:, None] - truth_range) / 10.0
    calls = _count_solves(monkeypatch)
    assert len(bench._tied_assignments(cost.tolist())) == 10_080
    assert calls == [(n, n)]
    calls.clear()
    match = associate(est_theta, est_range, truth_theta, truth_range, 10.0)
    assert match.pairs == ((0, 1), (1, 0)) + tuple((i, i) for i in range(2, n))
    assert calls == [(n, n)]


def test_associate_rejects_a_cost_that_overflows(recwarn):
    # Finite inputs whose difference overflows: an inf cost would tie every
    # assignment and the pairs would be picked lexicographically.
    with pytest.raises(ValueError, match="overflows"):
        associate((1e308, 0.0, 5.0), None, (-1e308, 1.0, 4.0), None, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        associate((0.0, 1.0), (1e308, 2.0), (0.0, 1.0), (-1e308, 2.0), 1.0)
    assert [str(w.message) for w in recwarn] == []


# Truths at (-35 deg, 25 m) and (10 deg, 30 m); a range scale of 40 m puts
# the range gate at 0.125 * 40 = 5 m, and the angle gate is 2 degrees.
TRUTH_THETA, TRUTH_RANGE, SCALE = (-35.0, 10.0), (25.0, 30.0), 40.0


@pytest.mark.parametrize(
    "theta, ranges, truth_range, errors, spurious, leaked",
    [
        ((-35.0, 12.0), (20.0, 30.0), TRUTH_RANGE, ((0.0, -5.0), (2.0, 0.0)), (), ()),
        (
            (-35.0, np.nextafter(12.0, np.inf)), (25.0, 30.0), TRUTH_RANGE,
            ((0.0, 0.0), None), (1,), (1,),
        ),
        ((-35.0, 10.5), (25.0, 35.5), TRUTH_RANGE, ((0.0, 0.0), None), (1,), ()),
        ((-34.0, 11.5), None, TRUTH_RANGE, ((1.0, None), (1.5, None)), (), ()),
        ((-34.0, 11.5), None, None, ((1.0, None), (1.5, None)), (), ()),
        # The unmatched 10.5 lies inside the angle gate of 10: spurious, not leaked.
        ((-35.0, 10.0, 10.5), (25.0, 30.0, 30.5), TRUTH_RANGE, ((0.0, 0.0),) * 2, (2,), ()),
        ((60.0, -35.0, 10.0), None, None, ((0.0, None),) * 2, (0,), (0,)),
    ],
    ids=[
        "hit-at-both-gates", "just-past-angle-gate", "range-gate-only", "angle-only",
        "angle-only-without-truth-ranges", "surplus-inside-angle-gate", "surplus-far-away",
    ],
)
def test_scorer_applies_the_gates_exactly(theta, ranges, truth_range, errors, spurious, leaked):
    found = score_detections(theta, ranges, TRUTH_THETA, truth_range, SCALE)
    assert (found.errors, found.spurious, found.leaked) == (errors, spurious, leaked)
    assert found.all_detected == (None not in errors)


def test_scorer_checks_its_inputs_as_associate_does():
    with pytest.raises(ValueError, match="est_theta_deg"):
        score_detections((np.nan, 10.0), None, TRUTH_THETA, None, SCALE)
    with pytest.raises(ValueError, match="range_scale"):
        score_detections((10.0,), (30.0,), (10.0,), (30.0,), 0.0)


def _sweep_config(**kwargs):
    fields = {"scenario": default_benchmark_scenario(), "snr_db_list": (0.0, 20.0), "q_trials": 2}
    return MonteCarloConfig(**{**fields, **kwargs})


def test_sweep_records_are_the_per_cell_trials():
    # One draw per trial and layout serves every SNR and method; each record
    # is still the trial run_trial gives for its cell on its own.
    config = _sweep_config()
    report = run_monte_carlo(config)
    cells = [(m, s, q) for m in METHODS for s in config.snr_db_list for q in range(2)]
    assert [(r.method, r.snr_db, r.trial) for r in report.records] == cells
    expected = [bench.run_trial(m, config.scenario, s, q, config).to_json() for m, s, q in cells]
    assert [r.to_json() for r in report.records] == expected
    assert not any(r.failed for r in report.records)


def test_a_failure_at_one_snr_fails_only_its_cells(monkeypatch, caplog):
    localize = bench.localize

    def fails_at_20_db(snapshots, config=None):
        if snapshots.snr_db == 20.0:
            raise RuntimeError(f"no luck at seed {snapshots.seed}")
        return localize(snapshots, config)

    monkeypatch.setattr(bench, "localize", fails_at_20_db)
    config = _sweep_config(snr_db_list=(0.0, 20.0, 30.0), methods=("farfield", "proposed"))
    with caplog.at_level(logging.ERROR, logger="canf.bench"):
        report = run_monte_carlo(config)

    failed = [(r.method, r.snr_db, r.trial, r.error) for r in report.records if r.failed]
    assert failed == [
        ("proposed", 20.0, 0, "RuntimeError: no luck at seed 0"),
        ("proposed", 20.0, 1, "RuntimeError: no luck at seed 1"),
    ]
    # One log line per failure, in record order, each with its exception.
    logged = [(rec.getMessage(), str(rec.exc_info[1])) for rec in caplog.records]
    assert logged == [
        ("trial failed: method=proposed snr=20.0 trial=0", "no luck at seed 0"),
        ("trial failed: method=proposed snr=20.0 trial=1", "no luck at seed 1"),
    ]
    rows = {(r.method, r.snr_db): r for r in report.rows}
    assert rows["proposed", 20.0].theta_rmse_deg is None
    assert rows["proposed", 30.0].theta_rmse_deg is not None


def test_a_synthesis_failure_fails_every_cell_it_feeds(monkeypatch, caplog):
    def broken(*args, **kwargs):
        raise ValueError("the draw broke")

    monkeypatch.setattr(bench, "synthesize_sweep", broken)
    config = _sweep_config(q_trials=1, methods=("dense", "subarray"))
    with caplog.at_level(logging.ERROR, logger="canf.bench"):
        report = run_monte_carlo(config)
    assert [(r.method, r.snr_db, r.error) for r in report.records] == [
        (m, s, "ValueError: the draw broke") for m in ("dense", "subarray") for s in (0.0, 20.0)
    ]
    assert len(caplog.records) == 4


def test_a_small_budget_splits_the_snr_list_and_keeps_the_records(monkeypatch):
    config = _sweep_config(snr_db_list=(0.0, 10.0, 20.0, 30.0, 40.0), q_trials=1)
    expected = [r.to_json() for r in run_monte_carlo(config).records]
    draws = []
    sweep = bench.synthesize_sweep

    def counting(layout, targets, n_snapshots, snr_db_list, seed, model):
        draws.append(("coprime" if layout.coprime else "dense", tuple(snr_db_list)))
        return sweep(layout, targets, n_snapshots, snr_db_list, seed, model)

    monkeypatch.setattr(bench, "synthesize_sweep", counting)
    scenario = config.scenario
    per_set = (scenario.layout().size + len(scenario.targets)) * scenario.n_snapshots
    # Room for two sets per draw on either layout (both have the same sensor count).
    monkeypatch.setattr(bench, "SWEEP_BUDGET", 2 * per_set + 1)
    assert [r.to_json() for r in run_monte_carlo(config).records] == expected
    chunks = [(0.0, 10.0), (20.0, 30.0), (40.0,)]
    assert draws == [("coprime", c) for c in chunks] + [("dense", c) for c in chunks]
