"""Monte Carlo harness: trial synthesis, estimate-to-truth association,
RMSE aggregation, and CSV/JSONL reporting.

Trial ``q`` always uses seed ``base_seed + q``, so every (method, SNR)
cell sees the same draws and the whole report is a pure function of the
configuration.  Per-trial failures are logged and counted, never abort a
sweep.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy.optimize import linear_sum_assignment

from .baselines import localize_dense, localize_farfield_virtual, localize_subarray
from .channel import synthesize
from .music import MusicConfig, localize
from .scenario import Scenario

__all__ = [
    "METHODS",
    "Matching",
    "MonteCarloConfig",
    "TrialRecord",
    "RmseReport",
    "associate",
    "rmse",
    "run_trial",
    "run_monte_carlo",
]

logger = logging.getLogger(__name__)

METHODS = ("proposed", "dense", "farfield", "subarray")


@dataclass(frozen=True)
class Matching:
    """One-to-one assignment between estimates and ground truth."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_estimates: tuple[int, ...]
    unmatched_truths: tuple[int, ...]


TIE_RTOL = 1e-9  # assignment costs this close, relative to the largest pair cost, tie


def associate(
    est_theta_deg,
    est_range_m,
    true_theta_deg,
    true_range_m,
    range_scale: float,
) -> Matching:
    """Minimum-cost assignment under ``|dtheta| + |dr| / range_scale``.

    ``est_range_m`` may be None (angle-only method); the range term is then
    dropped.  Rectangular problems leave the surplus side unmatched.  The
    cost is separable, so swapping two estimates often costs exactly the
    same; totals within :data:`TIE_RTOL` count as tied and are decided by
    the least squared error ``dtheta^2 + (dr / range_scale)^2``, then by the
    lexicographically smallest pairs, so roundoff in the estimates never
    picks the assignment.
    """
    est_theta = np.atleast_1d(np.asarray(est_theta_deg, dtype=float))
    true_theta = np.atleast_1d(np.asarray(true_theta_deg, dtype=float))
    n_e, n_t = est_theta.size, true_theta.size
    if n_e == 0 or n_t == 0:
        return Matching((), tuple(range(n_e)), tuple(range(n_t)))
    terms = [np.abs(est_theta[:, None] - true_theta[None, :])]
    if est_range_m is not None:
        est_r = np.atleast_1d(np.asarray(est_range_m, dtype=float))
        true_r = np.atleast_1d(np.asarray(true_range_m, dtype=float))
        terms.append(np.abs(est_r[:, None] - true_r[None, :]) / range_scale)
    tied = _tied_assignments(sum(terms))
    if len(tied) > 1:
        squared = sum(t**2 for t in terms)
        totals = [sum(squared[i, j] for i, j in pairs) for pairs in tied]
        window = TIE_RTOL * max(1.0, float(np.max(squared)))
        tied = [pairs for pairs, total in zip(tied, totals) if total <= min(totals) + window]
    pairs = min(tied)
    matched_e = {i for i, _ in pairs}
    matched_t = {j for _, j in pairs}
    return Matching(
        pairs,
        tuple(i for i in range(n_e) if i not in matched_e),
        tuple(j for j in range(n_t) if j not in matched_t),
    )


def _tied_assignments(cost: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Every assignment whose total is within the tie window of the least.

    Murty's partition (Murty, Operations Research 1968): the best assignment
    of a subproblem splits the rest of it into one subproblem per pair,
    keeping the pairs before that one and forbidding it.  A subproblem whose
    best total misses the window holds no tied assignment and is dropped:
    unsolved, and never copied, when a lower bound on its total
    (:func:`_assignment_bound`) already misses the window by more than the
    roundoff of either sum, so an untied cost takes one solver call.
    """
    scale = max(1.0, float(np.max(cost)))
    window = TIE_RTOL * scale
    # A bound and a solver total each add up n terms of at most ``scale``,
    # so each is off its exact value by less than n * n * eps * scale.
    n = min(cost.shape)
    roundoff = 2.0 * n * n * np.finfo(float).eps * scale
    limit = math.inf
    tied = []
    pending = [cost]
    while pending:
        sub = pending.pop()
        try:
            rows, cols = linear_sum_assignment(sub)
        except ValueError:
            if not tied:  # the cost itself is invalid, e.g. NaN
                raise
            continue  # every assignment left uses a forbidden pair
        total = sub[rows, cols].sum()
        if not tied:
            limit = total + window
        elif total > limit:
            continue
        tied.append(tuple(sorted(zip(map(int, rows), map(int, cols)))))
        sub = sub.copy()
        for i, j in zip(rows, cols):
            keep = sub[i, j]
            sub[i, j] = math.inf
            if _assignment_bound(sub) <= limit + roundoff:
                pending.append(sub.copy())
            sub[i, :] = sub[:, j] = math.inf
            sub[i, j] = keep
    return tied


def _assignment_bound(cost: np.ndarray) -> float:
    """A lower bound on the least assignment total: the sum of the row
    minima when every row is assigned, of the column minima when every
    column is (the larger of the two for a square cost).  Plain Python:
    on costs this small it is a few times faster than numpy reductions."""
    n_rows, n_cols = cost.shape
    rows = cost.tolist()
    bound = -math.inf
    if n_rows <= n_cols:
        bound = sum(map(min, rows))
    if n_cols <= n_rows:
        bound = max(bound, sum(map(min, zip(*rows))))
    return bound


def rmse(errors) -> float | None:
    """Root mean squared error over pooled per-pair errors; None if empty."""
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        return None
    return float(np.sqrt(np.mean(arr**2)))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sweep definition: scenario, SNR points, trial count and methods.

    Every method runs with ``MusicConfig(k_targets=K)``, K the scenario's
    target count, and every trial reports exactly K (angle, range) pairs --
    significant detections first, then best-effort fills -- which is what a
    fixed-K RMSE protocol needs (otherwise methods that detect nothing would
    simply drop out of the error average).  Detection rate is computed from
    strict classification, with the gates ``theta_gate_deg`` and
    ``range_gate_frac`` (fraction of the reference Rayleigh distance).
    """

    scenario: Scenario
    snr_db_list: tuple[float, ...]
    q_trials: int = 100
    methods: tuple[str, ...] = METHODS
    base_seed: int = 0
    theta_gate_deg: ClassVar[float] = 2.0
    range_gate_frac: ClassVar[float] = 0.125

    def __post_init__(self) -> None:
        if self.q_trials < 1:
            raise ValueError("q_trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        if not self.snr_db_list:
            raise ValueError("snr_db_list must hold at least one SNR")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ValueError(f"snr_db_list must hold finite SNRs, got {self.snr_db_list}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Outcome of one (method, SNR, trial) cell.

    A trial that raised has ``failed`` set, empty estimates, and ``error``
    holding the exception as ``"ExcType: message"``.
    """

    method: str
    snr_db: float
    trial: int
    seed: int
    theta_est: tuple[float, ...]
    range_est: tuple[float, ...] | None
    labels: tuple[str, ...]
    n_candidates: int
    theta_errors: tuple[float, ...]
    range_errors: tuple[float, ...]
    detected: bool
    n_spurious_true: int
    n_cross_leaked: int
    failed: bool = False
    error: str | None = None

    @classmethod
    def failure(
        cls, method: str, snr_db: float, trial: int, seed: int, exc: Exception
    ) -> "TrialRecord":
        """Record of a trial that raised ``exc``, as ``"ExcType: message"``."""
        return cls(
            method=method, snr_db=snr_db, trial=trial, seed=seed,
            theta_est=(), range_est=None, labels=(), n_candidates=0,
            theta_errors=(), range_errors=(), detected=False,
            n_spurious_true=0, n_cross_leaked=0,
            failed=True, error=f"{type(exc).__name__}: {exc}",
        )

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "snr_db": self.snr_db,
            "trial": self.trial,
            "seed": self.seed,
            "theta_est_deg": list(self.theta_est),
            "range_est_m": None if self.range_est is None else list(self.range_est),
            "labels": list(self.labels),
            "n_candidates": self.n_candidates,
            "theta_errors_deg": list(self.theta_errors),
            "range_errors_m": list(self.range_errors),
            "detected": self.detected,
            "n_spurious_true": self.n_spurious_true,
            "n_cross_leaked": self.n_cross_leaked,
            "failed": self.failed,
            "error": self.error,
        }
        return json.dumps(payload, sort_keys=True)


def _ordered_estimates(result, k: int):
    """The K estimates for RMSE: significant detections first, fills after."""
    true_entries = sorted(
        (c for c in result.classified if c.is_true),
        key=lambda c: (-c.significance_db, c.theta_deg),
    )
    cross_entries = sorted(
        (c for c in result.classified if not c.is_true),
        key=lambda c: (-c.significance_db, c.theta_deg),
    )
    chosen = (true_entries + cross_entries)[:k]
    return (
        tuple(c.theta_deg for c in chosen),
        tuple(c.range_m for c in chosen),
        tuple(c.label for c in chosen),
    )


def run_trial(
    method: str,
    scenario: Scenario,
    snr_db: float,
    trial: int,
    config: MonteCarloConfig,
) -> TrialRecord:
    """Synthesize, localize and score a single trial."""
    seed = config.base_seed + trial
    truth_theta = np.array([t.theta_deg for t in scenario.targets])
    truth_range = np.array([t.r for t in scenario.targets])
    k = truth_theta.size
    music_cfg = MusicConfig(k_targets=k)
    reference = scenario.layout()
    range_scale = reference.rayleigh_distance
    range_gate = config.range_gate_frac * range_scale

    if method == "proposed":
        snaps = scenario.snapshots(snr_db=snr_db, seed=seed)
        result = localize(snaps, music_cfg)
    elif method == "dense":
        snaps = synthesize(
            scenario.dense_layout(),
            scenario.targets,
            scenario.n_snapshots,
            snr_db,
            seed,
            scenario.model,
        )
        result = localize_dense(snaps, music_cfg)
    elif method == "subarray":
        snaps = scenario.snapshots(snr_db=snr_db, seed=seed)
        result = localize_subarray(snaps, music_cfg)
    elif method == "farfield":
        snaps = scenario.snapshots(snr_db=snr_db, seed=seed)
        result = localize_farfield_virtual(snaps, music_cfg)
    else:
        raise ValueError(f"unknown method {method!r}")

    if method == "farfield":
        theta_est = result.angles_deg
        range_est = None
        labels = ("angle",) * len(theta_est)
        n_candidates = len(result.candidates)
        detect_theta, detect_range = theta_est, None
    else:
        theta_est, range_est, labels = _ordered_estimates(result, k)
        n_candidates = len(result.candidates)
        true_entries = [c for c in result.classified if c.is_true]
        detect_theta = tuple(c.theta_deg for c in true_entries)
        detect_range = tuple(c.range_m for c in true_entries)

    # RMSE errors over the minimum-cost matching of the reported estimates.
    matching = associate(theta_est, range_est, truth_theta, truth_range, range_scale)
    theta_errors = tuple(
        float(theta_est[i] - truth_theta[j]) for i, j in matching.pairs
    )
    range_errors = (
        ()
        if range_est is None
        else tuple(float(range_est[i] - truth_range[j]) for i, j in matching.pairs)
    )

    # Detection bookkeeping over strictly classified entries only.
    det_match = associate(detect_theta, detect_range, truth_theta, truth_range, range_scale)
    hits = 0
    spurious = len(detect_theta)
    for i, j in det_match.pairs:
        ok_theta = abs(detect_theta[i] - truth_theta[j]) <= config.theta_gate_deg
        ok_range = (
            detect_range is None
            or abs(detect_range[i] - truth_range[j]) <= range_gate
        )
        if ok_theta and ok_range:
            hits += 1
            spurious -= 1
    detected = hits == k
    # A leaked cross: a true-labeled entry whose angle matches no target.
    leaked = sum(
        1
        for th in detect_theta
        if np.min(np.abs(th - truth_theta)) > config.theta_gate_deg
    )

    return TrialRecord(
        method=method,
        snr_db=snr_db,
        trial=trial,
        seed=seed,
        theta_est=tuple(float(v) for v in theta_est),
        range_est=None if range_est is None else tuple(float(v) for v in range_est),
        labels=labels,
        n_candidates=n_candidates,
        theta_errors=theta_errors,
        range_errors=range_errors,
        detected=detected,
        n_spurious_true=spurious,
        n_cross_leaked=leaked,
    )


@dataclass(frozen=True)
class RmseRow:
    method: str
    snr_db: float
    theta_rmse_deg: float | None
    r_rmse_m: float | None
    detection_rate: float
    mean_candidates: float


@dataclass(eq=False)
class RmseReport:
    """Aggregated sweep results plus the raw per-trial records."""

    rows: list[RmseRow] = field(default_factory=list)
    records: list[TrialRecord] = field(default_factory=list)
    n_failed: int = 0

    def row(self, method: str, snr_db: float) -> RmseRow:
        for r in self.rows:
            if r.method == method and r.snr_db == snr_db:
                return r
        raise KeyError((method, snr_db))

    def write_csv(self, path: str | Path) -> None:
        lines = ["method,snr_db,theta_rmse_deg,r_rmse_m,detection_rate,mean_candidates"]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        r.method,
                        _fmt(r.snr_db),
                        _fmt(r.theta_rmse_deg),
                        _fmt(r.r_rmse_m),
                        _fmt(r.detection_rate),
                        _fmt(r.mean_candidates),
                    )
                )
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_raw_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{float(value):.10g}"


def run_monte_carlo(config: MonteCarloConfig) -> RmseReport:
    """Run the full (method, SNR, trial) sweep and aggregate RMSEs.

    Aggregation is keyed, so results do not depend on execution order;
    failed trials contribute nothing to the averages.
    """
    report = RmseReport()
    for method in config.methods:
        for snr_db in config.snr_db_list:
            theta_errors: list[float] = []
            range_errors: list[float] = []
            detected = 0
            candidates = 0
            completed = 0
            for trial in range(config.q_trials):
                try:
                    rec = run_trial(method, config.scenario, snr_db, trial, config)
                except Exception as exc:
                    logger.exception(
                        "trial failed: method=%s snr=%s trial=%d", method, snr_db, trial
                    )
                    report.n_failed += 1
                    report.records.append(
                        TrialRecord.failure(
                            method, snr_db, trial, config.base_seed + trial, exc
                        )
                    )
                    continue
                report.records.append(rec)
                theta_errors.extend(rec.theta_errors)
                range_errors.extend(rec.range_errors)
                detected += int(rec.detected)
                candidates += rec.n_candidates
                completed += 1
            denom = max(completed, 1)
            report.rows.append(
                RmseRow(
                    method=method,
                    snr_db=snr_db,
                    theta_rmse_deg=rmse(theta_errors),
                    r_rmse_m=rmse(range_errors),
                    detection_rate=detected / denom,
                    mean_candidates=candidates / denom,
                )
            )
    return report
