"""Monte Carlo harness: trial synthesis, estimate-to-truth association,
RMSE aggregation, and CSV/JSONL reporting.

Association is a minimum-cost assignment, solved in plain Python by a
rectangular shortest-augmenting-path solver (Jonker & Volgenant 1987; Crouse
2016), so the harness, like the rest of ``canf``, needs numpy alone.

Trial ``q`` always uses seed ``base_seed + q``, so every (method, SNR)
cell sees the same draws and the whole report is a pure function of the
configuration.  A sweep draws each trial once per layout, for all its SNRs
at once (:func:`canf.channel.synthesize_sweep`), and that draw serves every
method on the layout; each cell's record is still the one :func:`run_trial`
gives for it alone.  Per-trial failures are logged and counted, never abort
a sweep.

The report's schema is read from the dataclasses: the CSV columns are the
:class:`RmseRow` fields in order, and the ``--raw`` JSONL keys are the
:class:`TrialRecord` fields, with ``_deg`` or ``_m`` appended to the
estimate and error fields.  A new column or key is one new field.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import traceback
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .baselines import localize_dense, localize_farfield_virtual, localize_subarray
from .channel import SnapshotSet, noise_power, synthesize, synthesize_sweep
from .geometry import _integer, _real
from .music import localize
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
SWEEP_BUDGET = 1 << 21  # most complex entries (each set's y and x) one Monte Carlo draw holds


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
    picks the assignment.  The tied assignments come from one solve of the
    in-package shortest-augmenting-path solver and a search bounded by its
    dual (:func:`_tied_assignments`).

    Raises ValueError, naming the argument, for a non-finite value, range
    arrays whose lengths differ from their angle arrays, ``est_range_m``
    without ``true_range_m``, or a ``range_scale`` that is not a real number
    (:func:`canf.geometry._real`: a bool, a string) or not positive and
    finite; and for finite inputs whose cost overflows a float, since an
    ``inf`` cost would tie every assignment.
    """
    range_scale = _real("range_scale", range_scale)
    if not (math.isfinite(range_scale) and range_scale > 0):
        raise ValueError(f"range_scale must be positive and finite, got {range_scale}")
    est_theta = _finite_vector("est_theta_deg", est_theta_deg)
    true_theta = _finite_vector("true_theta_deg", true_theta_deg)
    n_e, n_t = est_theta.size, true_theta.size
    if est_range_m is not None:
        if true_range_m is None:
            raise ValueError("est_range_m is given but true_range_m is None")
        est_r = _finite_vector("est_range_m", est_range_m, n_e)
        true_r = _finite_vector("true_range_m", true_range_m, n_t)
    if n_e == 0 or n_t == 0:
        return Matching((), tuple(range(n_e)), tuple(range(n_t)))
    with np.errstate(over="ignore"):
        terms = [np.abs(est_theta[:, None] - true_theta[None, :])]
        if est_range_m is not None:
            terms.append(np.abs(est_r[:, None] - true_r[None, :]) / range_scale)
        cost = sum(terms)
    if not np.isfinite(cost).all():
        raise ValueError("assignment cost overflows a float: estimates and truths too far apart")
    tied = _tied_assignments(cost.tolist())
    if len(tied) > 1:
        squared = sum(t**2 for t in terms).tolist()
        totals = [sum(squared[i][j] for i, j in pairs) for pairs in tied]
        limit = min(totals) + TIE_RTOL * max(1.0, max(map(max, squared)))
        tied = [pairs for pairs, total in zip(tied, totals) if total <= limit]
    pairs = min(tied)
    matched_e = {i for i, _ in pairs}
    matched_t = {j for _, j in pairs}
    return Matching(
        pairs,
        tuple(i for i in range(n_e) if i not in matched_e),
        tuple(j for j in range(n_t) if j not in matched_t),
    )


def _finite_vector(name: str, values, size: int | None = None) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` if an entry is
    not finite or the length is not ``size``."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if size is not None and arr.size != size:
        raise ValueError(f"{name} has {arr.size} entries but its angle array has {size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def _solve(cost: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """The column of each row in the least assignment of a cost with no more
    rows than columns, and its optimal dual: ``cost >= u + v`` entrywise,
    with equality on the assigned pairs (to roundoff), and ``v <= 0``, with
    0 on the unassigned columns.  Each row joins along a Dijkstra shortest
    path on the reduced costs ``cost - u - v``, then ``u`` and ``v`` are
    updated: shortest augmenting paths (Jonker & Volgenant, Computing 1987),
    in the rectangular form of Crouse (IEEE TAES 2016) that
    ``scipy.optimize.linear_sum_assignment`` implements, with the same
    tie-breaking, so it picks the same assignment.  An ``inf`` entry is a
    forbidden pair; ValueError if every assignment uses one.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col = [-1] * n_rows, [-1] * n_cols
    path = [-1] * n_cols
    for start in range(n_rows):
        dist = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, min_val, sink = start, 0.0, -1
        while sink < 0:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                reduced = min_val + row[j] - u_i - v[j]
                if reduced < dist[j]:
                    path[j], dist[j] = i, reduced
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            seen_cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[start] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row, u, v


def _tied_assignments(cost: list[list[float]]) -> list[tuple[tuple[int, int], ...]]:
    """Every assignment whose total is within the tie window of the least,
    as ``(row, col)`` pairs sorted by row.

    One :func:`_solve`, on the orientation with no more rows than columns,
    gives the least total and an optimal dual ``u``, ``v``.  An assignment's
    total exceeds the least by its pairs' reduced costs ``cost - u - v`` plus
    ``-v`` of each column it leaves out, all non-negative, so one inside the
    window has a dual excess of at most the window plus roundoff.  A
    depth-first search over the rows extends a partial assignment only while
    its excess is at most twice the window, and keeps a complete one whose
    own total is within the window.  The cost is a finite list of rows.
    """
    window = TIE_RTOL * max(1.0, max(map(max, cost)))
    transpose = len(cost) > len(cost[0])
    rows = [list(col) for col in zip(*cost)] if transpose else cost
    col4row, u, v = _solve(rows)

    def pairs_of(cols):
        pairs = tuple(enumerate(cols))
        return tuple(sorted((j, i) for i, j in pairs)) if transpose else pairs

    def total(pairs):
        return sum(cost[i][j] for i, j in pairs)

    limit = total(pairs_of(col4row)) + window
    slack = 2.0 * window
    reduced = [[c - u_i - v_j for c, v_j in zip(row, v)] for row, u_i in zip(rows, u)]
    tied, cols = [], []

    def extend(excess):
        if len(cols) == len(rows):
            excess += sum(-v_j for j, v_j in enumerate(v) if j not in cols)
            pairs = pairs_of(cols)
            if excess <= slack and total(pairs) <= limit:
                tied.append(pairs)
            return
        for j, r in enumerate(reduced[len(cols)]):
            if excess + r <= slack and j not in cols:
                cols.append(j)
                extend(excess + r)
                cols.pop()

    extend(0.0)
    return tied


def rmse(errors) -> float | None:
    """Root mean squared error over pooled per-pair errors; None if empty."""
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        return None
    return float(np.sqrt(np.mean(arr**2)))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sweep definition: scenario, SNR points, trial count and methods.

    Every method runs with the default ``MusicConfig``, so it takes K, the
    scenario's target count, from the known waveforms of each trial's
    snapshots, and every trial reports exactly K (angle, range) pairs --
    significant detections first, then best-effort fills -- which is what a
    fixed-K RMSE protocol needs (otherwise methods that detect nothing would
    simply drop out of the error average).  Detection rate is computed from
    strict classification, with the gates ``theta_gate_deg`` and
    ``range_gate_frac`` (fraction of the reference Rayleigh distance).
    ``q_trials`` and ``base_seed`` are stored as ints if integers
    (:func:`canf.geometry._integer`), the SNRs as a tuple of floats if
    numbers (:func:`canf.geometry._real`), and ``methods``, a sequence of
    names but not one string, as a tuple.
    """

    scenario: Scenario
    snr_db_list: tuple[float, ...]
    q_trials: int = 100
    methods: tuple[str, ...] = METHODS
    base_seed: int = 0
    theta_gate_deg: ClassVar[float] = 2.0
    range_gate_frac: ClassVar[float] = 0.125

    def __post_init__(self) -> None:
        for name in ("q_trials", "base_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.q_trials < 1:
            raise ValueError("q_trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        snrs = tuple(_real("snr_db", s) for s in self.snr_db_list)
        object.__setattr__(self, "snr_db_list", snrs)
        if not self.snr_db_list:
            raise ValueError("snr_db_list must hold at least one SNR")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise ValueError(f"snr_db_list must hold finite SNRs, got {self.snr_db_list}")
        for snr_db in self.snr_db_list:
            noise_power(snr_db)  # an SNR whose noise power overflows is rejected here
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ValueError(f"snr_db_list repeats an SNR: {self.snr_db_list}")
        if isinstance(self.methods, str):
            raise ValueError(f"methods must be a sequence of names, not a string: {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("methods must name at least one method")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods repeats a method: {self.methods}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Outcome of one (method, SNR, trial) cell.

    A trial that raised has ``failed`` set, the empty outcome defaults, and
    ``error`` holding the exception as ``"ExcType: message"``.
    """

    method: str
    snr_db: float
    trial: int
    seed: int
    theta_est: tuple[float, ...] = ()
    range_est: tuple[float, ...] | None = None
    labels: tuple[str, ...] = ()
    n_candidates: int = 0
    theta_errors: tuple[float, ...] = ()
    range_errors: tuple[float, ...] = ()
    detected: bool = False
    n_spurious_true: int = 0
    n_cross_leaked: int = 0
    failed: bool = False
    error: str | None = None

    @classmethod
    def failure(
        cls, method: str, snr_db: float, trial: int, seed: int, exc: Exception
    ) -> "TrialRecord":
        """Record of a trial that raised ``exc``, as ``"ExcType: message"``."""
        return cls(method, snr_db, trial, seed, failed=True, error=f"{type(exc).__name__}: {exc}")

    def to_json(self) -> str:
        """One JSONL line: the fields, with the estimates and errors keyed by unit."""
        units = {
            "theta_est": "_deg", "range_est": "_m", "theta_errors": "_deg", "range_errors": "_m"
        }
        payload = {name + units.get(name, ""): value for name, value in asdict(self).items()}
        return json.dumps(payload, sort_keys=True)


def _ordered_estimates(result, k: int):
    """The K estimates for RMSE: significant detections first, fills after."""
    chosen = sorted(
        result.classified, key=lambda c: (not c.is_true, -c.significance_db, c.theta_deg)
    )[:k]
    return (
        tuple(c.theta_deg for c in chosen),
        tuple(c.range_m for c in chosen),
        tuple(c.label for c in chosen),
    )


def _localizers() -> dict:
    # Looked up at call time, so a patched module global is the one that runs.
    return {
        "proposed": localize,
        "dense": localize_dense,
        "farfield": localize_farfield_virtual,
        "subarray": localize_subarray,
    }


def _layout_for(method: str, scenario: Scenario):
    """The layout a method's snapshots are drawn on."""
    return scenario.dense_layout() if method == "dense" else scenario.layout()


def run_trial(
    method: str,
    scenario: Scenario,
    snr_db: float,
    trial: int,
    config: MonteCarloConfig,
) -> TrialRecord:
    """Synthesize, localize (K read from the waveforms) and score a single trial."""
    if method not in _localizers():
        raise ValueError(f"unknown method {method!r}")
    snaps = synthesize(
        _layout_for(method, scenario), scenario.targets, scenario.n_snapshots, snr_db,
        config.base_seed + trial, scenario.model,
    )
    return _score_trial(method, scenario, snr_db, trial, snaps, config)


def _score_trial(
    method: str,
    scenario: Scenario,
    snr_db: float,
    trial: int,
    snaps: SnapshotSet,
    config: MonteCarloConfig,
) -> TrialRecord:
    """Localize one trial's snapshots with ``method`` and score the estimates."""
    truth_theta = np.array([t.theta_deg for t in scenario.targets])
    truth_range = np.array([t.r for t in scenario.targets])
    k = truth_theta.size
    range_scale = scenario.layout().rayleigh_distance
    range_gate = config.range_gate_frac * range_scale

    result = _localizers()[method](snaps)
    n_candidates = len(result.candidates)
    if method == "farfield":
        theta_est = result.angles_deg
        range_est = None
        labels = ("angle",) * len(theta_est)
        detect_theta, detect_range = theta_est, None
    else:
        theta_est, range_est, labels = _ordered_estimates(result, k)
        true_entries = result.true_targets
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
    hits = sum(
        1
        for i, j in det_match.pairs
        if abs(detect_theta[i] - truth_theta[j]) <= config.theta_gate_deg
        and (detect_range is None or abs(detect_range[i] - truth_range[j]) <= range_gate)
    )
    spurious = len(detect_theta) - hits
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
        seed=snaps.seed,
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
    """One (method, SNR) cell of the report; the fields are the CSV columns."""

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

    @property
    def n_failed(self) -> int:
        return sum(rec.failed for rec in self.records)

    def row(self, method: str, snr_db: float) -> RmseRow:
        for r in self.rows:
            if r.method == method and r.snr_db == snr_db:
                return r
        raise KeyError((method, snr_db))

    def write_csv(self, path: str | Path) -> None:
        names = [f.name for f in fields(RmseRow)]
        rows = (",".join(_fmt(getattr(r, name)) for name in names) for r in self.rows)
        _write_lines(path, ",".join(names), rows)

    def write_raw_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(rec.to_json() + "\n")


def _fmt(value: str | float | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.10g}"


def _write_lines(path: str | Path, header: str, lines) -> None:
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def run_monte_carlo(config: MonteCarloConfig) -> RmseReport:
    """Run the full (method, SNR, trial) sweep and aggregate RMSEs.

    Trial by trial, each layout draws once for all the SNRs
    (:func:`canf.channel.synthesize_sweep`), the coprime layout for every
    method but ``dense`` and the dense layout for ``dense``, and every
    method of that layout is scored on each set.  A draw holds at most
    :data:`SWEEP_BUDGET` complex entries: a longer SNR list is drawn in
    chunks, each from the trial's seed, which gives the same bits.  Records,
    rows and the log lines of failed trials come out in method, SNR, trial
    order.  Aggregation is keyed, so results do not depend on execution
    order; failed trials contribute nothing to the averages.
    """
    scenario, snrs = config.scenario, config.snr_db_list
    by_layout: dict = {}
    for method in config.methods:
        by_layout.setdefault(_layout_for(method, scenario), []).append(method)
    # cells[method, i]: per trial at SNR i, its record or the exception it raised.
    cells = {(method, i): [] for method in config.methods for i in range(len(snrs))}
    for trial, (layout, methods) in itertools.product(range(config.q_trials), by_layout.items()):
        per_set = (layout.size + len(scenario.targets)) * scenario.n_snapshots
        step = max(SWEEP_BUDGET // per_set, 1)
        for chunk in (range(i, min(i + step, len(snrs))) for i in range(0, len(snrs), step)):
            try:
                sets = synthesize_sweep(
                    layout, scenario.targets, scenario.n_snapshots, [snrs[i] for i in chunk],
                    config.base_seed + trial, scenario.model,
                )
            except Exception as exc:  # fails every cell of the chunk
                traceback.clear_frames(exc.__traceback__)
                sets = [exc] * len(chunk)
            for i, snaps in zip(chunk, sets):
                for method in methods:
                    outcome = snaps
                    if not isinstance(snaps, Exception):
                        try:
                            outcome = _score_trial(method, scenario, snrs[i], trial, snaps, config)
                        except Exception as exc:
                            # A held exception keeps its traceback, not the frames' arrays.
                            traceback.clear_frames(exc.__traceback__)
                            outcome = exc
                    cells[method, i].append(outcome)
            sets = snaps = None  # frees this draw before the next one is made

    report = RmseReport()
    for method in config.methods:
        for i, snr_db in enumerate(snrs):
            done: list[TrialRecord] = []
            for trial, rec in enumerate(cells[method, i]):
                if isinstance(rec, Exception):
                    logger.error(
                        "trial failed: method=%s snr=%s trial=%d", method, snr_db, trial,
                        exc_info=rec,
                    )
                    rec = TrialRecord.failure(method, snr_db, trial, config.base_seed + trial, rec)
                else:
                    done.append(rec)
                report.records.append(rec)
            denom = max(len(done), 1)
            report.rows.append(
                RmseRow(
                    method=method,
                    snr_db=snr_db,
                    theta_rmse_deg=rmse(e for rec in done for e in rec.theta_errors),
                    r_rmse_m=rmse(e for rec in done for e in rec.range_errors),
                    detection_rate=sum(rec.detected for rec in done) / denom,
                    mean_candidates=sum(rec.n_candidates for rec in done) / denom,
                )
            )
    return report
