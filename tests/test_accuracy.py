"""Accuracy ledger: the strict numbers of the proposed method and of the
dense-array and subarray baselines on a fixed trial set, each held by a
one-sided bound.

The set is the default benchmark scenario drawn with ``synthesize`` at seeds
1,000,000 + i for i < 60 (the trial seeds of benchmark seed 1), at 0, 10,
20 and 30 dB and noise-free, on the layout the Monte Carlo harness draws
each method on.  "Strict" counts only the true-labelled estimates of each
method's localizer, scored by ``score_detections`` as the harness scores
its detections, with the coprime layout's Rayleigh distance as the range
scale for every method.  Per method and SNR the ledger holds:

- per target, the trials that detect it, bounded from below with a slack
  of one trial;
- the spurious true labels, those that detect no truth, summed over the
  trials, bounded from above with a slack of one label;
- the strict theta- and r-RMSE of each separated target (the first two;
  the last two share an angle) over the trials that detect it, bounded
  from above with a slack of 5%.

RMSEs are bounded only where a method detects the separated targets.  The
dense array detects none: its range scan ends at its own Rayleigh distance,
1.62 m, which lies below every target, so each of its true labels misses the
range gate.  Its row holds its detections and spurious labels alone.

``RECORDED`` holds the values read when each row was added.  The goldens
fail on any output change; this file says which way accuracy moved.  A
change that improves a number may tighten its bound, naming the old and the
new value in CHANGES.md.  The claim test states, in strict form, the
abstract's claim that the method locates more targets than the
subarray-based method.  Print the table from the repository root with

    PYTHONPATH=src python tests/test_accuracy.py
"""
from dataclasses import dataclass
from functools import lru_cache

import pytest

from canf import localize, localize_dense, localize_subarray, rmse, score_detections, synthesize
from canf.scenario import default_benchmark_scenario

TRIALS = 60
FIRST_SEED = 1_000_000
SNRS = (0.0, 10.0, 20.0, 30.0, None)  # None: noise-free
LOCALIZERS = {"proposed": localize, "dense": localize_dense, "subarray": localize_subarray}
SEPARATED = (0, 1)  # the targets at -35 and 10 degrees
DETECTION_SLACK = 1  # trials
SPURIOUS_SLACK = 1  # labels
RMSE_SLACK = 0.05  # relative


@dataclass(frozen=True)
class Row:
    detections: tuple[int, ...]  # trials that detect each target
    spurious: int  # true labels that detect no target, over all trials
    theta_rmse_deg: tuple[float, ...] | None  # of each separated target; None: not bounded
    range_rmse_m: tuple[float, ...] | None


RECORDED = {
    ("proposed", 0.0): Row((57, 55, 10, 0), 58, (0.06322, 0.04252), (2.123, 2.225)),
    ("proposed", 10.0): Row((60, 60, 1, 0), 59, (0.04411, 0.01849), (0.8122, 0.7763)),
    ("proposed", 20.0): Row((60, 60, 8, 0), 52, (0.04328, 0.01571), (0.2474, 0.2412)),
    ("proposed", 30.0): Row((60, 60, 15, 10), 35, (0.04271, 0.01543), (0.08106, 0.07613)),
    ("proposed", None): Row((60, 60, 25, 42), 0, (0.04257, 0.01534), (0.02836, 0.003489)),
    ("subarray", 0.0): Row((50, 26, 9, 0), 168, (0.2056, 0.01758), (2.532, 2.482)),
    ("subarray", 10.0): Row((57, 53, 1, 0), 229, (0.2709, 0.007846), (0.8719, 0.8535)),
    ("subarray", 20.0): Row((59, 47, 0, 0), 230, (0.3206, 0.006293), (0.8178, 0.2851)),
    ("subarray", 30.0): Row((59, 56, 0, 2), 219, (0.006448, 0.004958), (0.1029, 0.0883)),
    ("subarray", None): Row((59, 58, 50, 56), 163, (0.1843, 0.004555), (0.4534, 0.009887)),
    **{("dense", snr_db): Row((0, 0, 0, 0), 180, None, None) for snr_db in SNRS},
}


def _label(snr_db) -> str:
    return "noise-free" if snr_db is None else f"{snr_db:g} dB"


@lru_cache(maxsize=None)
def score(method: str, snr_db) -> Row:
    """The ledger row of ``method`` on the trial set at ``snr_db`` (None: noise-free)."""
    scenario = default_benchmark_scenario()
    layout = scenario.dense_layout() if method == "dense" else scenario.layout()
    truth_theta = [t.theta_deg for t in scenario.targets]
    truth_range = [t.r for t in scenario.targets]
    scale = scenario.layout().rayleigh_distance
    errors = [[] for _ in truth_theta]  # (dtheta, dr) of each detection
    spurious = 0
    for i in range(TRIALS):
        snaps = synthesize(
            layout, scenario.targets, scenario.n_snapshots, snr_db, FIRST_SEED + i, scenario.model
        )
        true = LOCALIZERS[method](snaps).true_targets
        found = score_detections(
            [c.theta_deg for c in true], [c.range_m for c in true], truth_theta, truth_range, scale
        )
        spurious += len(found.spurious)
        for per_target, error in zip(errors, found.errors):
            if error is not None:
                per_target.append(error)
    return Row(
        tuple(len(e) for e in errors),
        spurious,
        tuple(rmse(d for d, _ in errors[j]) for j in SEPARATED),
        tuple(rmse(d for _, d in errors[j]) for j in SEPARATED),
    )


def cells(keys):
    keys = list(keys)
    return pytest.mark.parametrize(
        "method, snr_db", keys, ids=[f"{m}-{_label(s)}" for m, s in keys]
    )


@cells(RECORDED)
def test_each_target_is_detected_as_often_as_recorded(method, snr_db):
    got, floor = score(method, snr_db).detections, RECORDED[method, snr_db].detections
    assert all(n >= f - DETECTION_SLACK for n, f in zip(got, floor)), (got, floor)


@cells(RECORDED)
def test_spurious_true_labels_stay_as_few_as_recorded(method, snr_db):
    got, ceiling = score(method, snr_db).spurious, RECORDED[method, snr_db].spurious
    assert got <= ceiling + SPURIOUS_SLACK


@cells(cell for cell, row in RECORDED.items() if row.theta_rmse_deg is not None)
@pytest.mark.parametrize("field", ["theta_rmse_deg", "range_rmse_m"])
def test_separated_targets_strict_rmse_stays_as_low_as_recorded(method, snr_db, field):
    got, ceiling = getattr(score(method, snr_db), field), getattr(RECORDED[method, snr_db], field)
    # A separated target no trial detects has no RMSE (None), and fails.
    assert all(g is not None and g <= c * (1.0 + RMSE_SLACK) for g, c in zip(got, ceiling)), (
        got, ceiling
    )


@pytest.mark.parametrize("snr_db", SNRS, ids=_label)
def test_proposed_detects_the_separated_targets_as_often_as_subarray_with_fewer_spurious(snr_db):
    ours, theirs = score("proposed", snr_db), score("subarray", snr_db)
    assert all(ours.detections[j] >= theirs.detections[j] for j in SEPARATED), (ours, theirs)
    assert ours.spurious < theirs.spurious, (ours.spurious, theirs.spurious)


def table() -> str:
    """The ledger as a Markdown table, one row per method and SNR."""
    lines = [
        f"| method | SNR | detections of {TRIALS} per target | spurious true labels per trial "
        "| separated theta-RMSE (deg) | separated r-RMSE (m) |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for method in LOCALIZERS:
        for snr_db in SNRS:
            row = score(method, snr_db)
            lines.append(
                f"| {method} | {_label(snr_db)} | {' '.join(map(str, row.detections))} "
                f"| {row.spurious / TRIALS:.3f} "
                f"| {' '.join(_fmt(v) for v in row.theta_rmse_deg)} "
                f"| {' '.join(_fmt(v) for v in row.range_rmse_m)} |"
            )
    return "\n".join(lines)


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


if __name__ == "__main__":
    print(table())
