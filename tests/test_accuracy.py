"""Accuracy ledger of the proposed method: its strict numbers on a fixed
trial set, each held by a one-sided bound.

The set is the default benchmark scenario drawn with ``synthesize`` at seeds
1,000,000 + i for i < 60 (the trial seeds of benchmark seed 1), at 0, 10
and 30 dB and noise-free.  "Strict" counts only the true-labelled
estimates of ``localize``: ``associate`` matches them to the truths, as the
Monte Carlo harness scores its detections, and a pair inside the harness
gates (``MonteCarloConfig.theta_gate_deg``, and ``range_gate_frac`` of the
Rayleigh distance) detects its truth.  Per SNR the ledger holds:

- per target, the trials that detect it, bounded from below with a slack
  of one trial;
- the spurious true labels, those that detect no truth, summed over the
  trials, bounded from above with a slack of one label;
- the strict theta- and r-RMSE of each separated target (the first two;
  the last two share an angle) over the trials that detect it, bounded
  from above with a slack of 5%.

``RECORDED`` holds the values read when the ledger was added.  The goldens
fail on any output change; this file says which way accuracy moved.  A
change that improves a number may tighten its bound, naming the old and the
new value in CHANGES.md.  Print the table from the repository root with

    PYTHONPATH=src python tests/test_accuracy.py
"""
from dataclasses import dataclass
from functools import lru_cache

import pytest

from canf import MonteCarloConfig, associate, localize, rmse, synthesize
from canf.scenario import default_benchmark_scenario

TRIALS = 60
FIRST_SEED = 1_000_000
SNRS = (0.0, 10.0, 30.0, None)  # None: noise-free
SEPARATED = (0, 1)  # the targets at -35 and 10 degrees
DETECTION_SLACK = 1  # trials
SPURIOUS_SLACK = 1  # labels
RMSE_SLACK = 0.05  # relative


@dataclass(frozen=True)
class Row:
    detections: tuple[int, ...]  # trials that detect each target
    spurious: int  # true labels that detect no target, over all trials
    theta_rmse_deg: tuple[float, ...]  # of each separated target
    range_rmse_m: tuple[float, ...]


RECORDED = {
    0.0: Row((57, 55, 10, 0), 58, (0.06322, 0.04252), (2.123, 2.225)),
    10.0: Row((60, 60, 1, 0), 59, (0.04411, 0.01849), (0.8122, 0.7763)),
    30.0: Row((60, 60, 15, 10), 35, (0.04271, 0.01543), (0.08106, 0.07613)),
    None: Row((60, 60, 25, 42), 0, (0.04257, 0.01534), (0.02836, 0.003489)),
}


def _label(snr_db) -> str:
    return "noise-free" if snr_db is None else f"{snr_db:g} dB"


@lru_cache(maxsize=None)
def score(snr_db) -> Row:
    """The ledger row of the trial set at ``snr_db`` (None: noise-free)."""
    scenario = default_benchmark_scenario()
    layout = scenario.layout()
    truth_theta = [t.theta_deg for t in scenario.targets]
    truth_range = [t.r for t in scenario.targets]
    scale = layout.rayleigh_distance
    theta_gate = MonteCarloConfig.theta_gate_deg
    range_gate = MonteCarloConfig.range_gate_frac * scale
    errors = [[] for _ in truth_theta]  # (dtheta, dr) of each detection
    spurious = 0
    for i in range(TRIALS):
        snaps = synthesize(
            layout, scenario.targets, scenario.n_snapshots, snr_db, FIRST_SEED + i, scenario.model
        )
        true = localize(snaps).true_targets
        theta = [c.theta_deg for c in true]
        ranges = [c.range_m for c in true]
        spurious += len(true)
        for e, j in associate(theta, ranges, truth_theta, truth_range, scale).pairs:
            d_theta, d_r = theta[e] - truth_theta[j], ranges[e] - truth_range[j]
            if abs(d_theta) <= theta_gate and abs(d_r) <= range_gate:
                errors[j].append((d_theta, d_r))
                spurious -= 1
    return Row(
        tuple(len(e) for e in errors),
        spurious,
        tuple(rmse(d for d, _ in errors[j]) for j in SEPARATED),
        tuple(rmse(d for _, d in errors[j]) for j in SEPARATED),
    )


snr_cases = pytest.mark.parametrize("snr_db", SNRS, ids=_label)


@snr_cases
def test_each_target_is_detected_as_often_as_recorded(snr_db):
    got, floor = score(snr_db).detections, RECORDED[snr_db].detections
    assert all(n >= f - DETECTION_SLACK for n, f in zip(got, floor)), (got, floor)


@snr_cases
def test_spurious_true_labels_stay_as_few_as_recorded(snr_db):
    got, ceiling = score(snr_db).spurious, RECORDED[snr_db].spurious
    assert got <= ceiling + SPURIOUS_SLACK


@snr_cases
@pytest.mark.parametrize("field", ["theta_rmse_deg", "range_rmse_m"])
def test_separated_targets_strict_rmse_stays_as_low_as_recorded(snr_db, field):
    got, ceiling = getattr(score(snr_db), field), getattr(RECORDED[snr_db], field)
    # A separated target no trial detects has no RMSE (None), and fails.
    assert all(g is not None and g <= c * (1.0 + RMSE_SLACK) for g, c in zip(got, ceiling)), (
        got, ceiling
    )


def table() -> str:
    """The ledger as a Markdown table, one row per SNR."""
    lines = [
        f"| SNR | detections of {TRIALS} per target | spurious true labels per trial "
        "| separated theta-RMSE (deg) | separated r-RMSE (m) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for snr_db in SNRS:
        row = score(snr_db)
        lines.append(
            f"| {_label(snr_db)} | {' '.join(map(str, row.detections))} "
            f"| {row.spurious / TRIALS:.3f} "
            f"| {' '.join(f'{v:.4g}' for v in row.theta_rmse_deg)} "
            f"| {' '.join(f'{v:.4g}' for v in row.range_rmse_m)} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
