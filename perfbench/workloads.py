"""The benchmark's workloads: inputs from a seed, the op, and its scoring.

Every workload is a closed loop with one caller.  The loop times *steps*: a
step is one op for ``localize-latency`` and ``snapshot-heavy`` and one
Monte Carlo sweep of ``len(METHODS) * len(SWEEP_SNRS_DB)`` trials for
``mc-sweep``.  Steps cycle through a fixed pool of inputs drawn from the
seed, so the first pass over the pool is the accuracy set and every later
pass must reproduce it exactly.

Accuracy follows the Monte Carlo harness: forced-K estimates (significant
detections first, then fills) matched to the truth by minimum cost for the
RMSE, and strict true-labelled detections inside the harness's gates for the
detection rate.  Only the public canf API is used, so the benchmark keeps
working while the package's internals change.
"""
from __future__ import annotations

import dataclasses
import logging
import math

# canf functions are looked up through their modules at call time, never
# bound here, so that the tracer's wrappers in those modules are the ones called.
import canf
from canf import bench
from canf.bench import METHODS

SNR_DB = 10.0
SWEEP_SNRS_DB = (0.0, 10.0, 20.0, 30.0)
HEAVY_SNAPSHOTS = 20_000
SMOKE_HEAVY_SNAPSHOTS = 2_000
#: Trial seeds of benchmark seed ``s`` are ``s * SEED_STRIDE + i``.
SEED_STRIDE = 1_000_000
WARMUP_OFFSET = SEED_STRIDE - 1


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Estimates of one op, scored against the truth."""

    key: tuple
    method: str
    theta_deg: tuple[float, ...]
    range_m: tuple[float, ...] | None
    theta_errors: tuple[float, ...]
    range_errors: tuple[float, ...]
    detected: bool
    error: str | None = None

    @property
    def fingerprint(self) -> tuple:
        return (self.theta_deg, self.range_m, self.detected, self.error)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _failed(key: tuple, method: str, error: str) -> Outcome:
    return Outcome(key, method, (), None, (), (), False, error)


def _from_record(key: tuple, rec, error: str | None = None) -> Outcome:
    if rec.failed:
        return _failed(key, rec.method, error or "trial failed (no exception captured)")
    return Outcome(
        key,
        rec.method,
        tuple(rec.theta_est),
        None if rec.range_est is None else tuple(rec.range_est),
        tuple(rec.theta_errors),
        tuple(rec.range_errors),
        bool(rec.detected),
    )


class Workload:
    """Base class: subclasses set ``name``, ``pool_size`` and the op."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenario = canf.default_benchmark_scenario(snr_db=SNR_DB)
        self.music = canf.MusicConfig(k_targets=len(self.scenario.targets))
        # Harness defaults for the detection gates.
        self.harness = canf.MonteCarloConfig(self.scenario, (SNR_DB,))
        layout = self.scenario.layout()
        grid = canf.SpectrumGrid.for_layout(
            layout, self.music.angle_step_deg, self.music.range_step_m
        )
        self.angle_bounds = (grid.angle_deg[0], grid.angle_deg[-1])
        self.true_theta = [t.theta_deg for t in self.scenario.targets]
        self.true_range = [t.r for t in self.scenario.targets]
        self.n_distinct_angles = len(set(self.true_theta))
        self.range_scale = layout.rayleigh_distance

    def trial_seed(self, i: int) -> int:
        return self.seed * SEED_STRIDE + i

    def warmup(self) -> None:
        """One untimed op on an input outside the pool."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the input pool (untimed)."""

    def run(self, step: int):
        """The timed (and traced) part of one step."""
        raise NotImplementedError

    def score(self, step: int, raw) -> list[Outcome]:
        """Outcomes of one step; ``raw`` is the exception if the step raised."""
        raise NotImplementedError


class LocalizeLatency(Workload):
    name = "localize-latency"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.pool_size = 3 if smoke else 200
        self.pool = []

    def warmup(self) -> None:
        canf.localize(self.scenario.snapshots(seed=self.trial_seed(WARMUP_OFFSET)), self.music)

    def prepare(self) -> None:
        self.pool = [self.scenario.snapshots(seed=self.trial_seed(i)) for i in range(self.pool_size)]

    def run(self, step: int):
        return canf.localize(self.pool[step % self.pool_size], self.music)

    def score(self, step: int, raw) -> list[Outcome]:
        key = (step % self.pool_size,)
        if isinstance(raw, BaseException):
            return [_failed(key, "proposed", _describe(raw))]
        by_significance = lambda c: (-c.significance_db, c.theta_deg)  # noqa: E731
        true = sorted((c for c in raw.classified if c.is_true), key=by_significance)
        cross = sorted((c for c in raw.classified if not c.is_true), key=by_significance)
        forced = (true + cross)[: len(self.scenario.targets)]
        theta = tuple(float(c.theta_deg) for c in forced)
        rng = tuple(float(c.range_m) for c in forced)
        theta_errors, range_errors = self._errors(theta, rng)
        return [
            Outcome(
                key,
                "proposed",
                theta,
                rng,
                theta_errors,
                range_errors,
                self._detected([c.theta_deg for c in true], [c.range_m for c in true]),
            )
        ]

    def _errors(self, theta, rng):
        if not all(math.isfinite(v) for v in theta + rng):
            return (), ()
        match = canf.associate(theta, rng, self.true_theta, self.true_range, self.range_scale)
        return (
            tuple(theta[i] - self.true_theta[j] for i, j in match.pairs),
            tuple(rng[i] - self.true_range[j] for i, j in match.pairs),
        )

    def _detected(self, theta, rng) -> bool:
        match = canf.associate(theta, rng, self.true_theta, self.true_range, self.range_scale)
        range_gate = self.harness.range_gate_frac * self.range_scale
        hits = sum(
            1
            for i, j in match.pairs
            if abs(theta[i] - self.true_theta[j]) <= self.harness.theta_gate_deg
            and abs(rng[i] - self.true_range[j]) <= range_gate
        )
        return hits == len(self.true_theta)


class SnapshotHeavy(Workload):
    name = "snapshot-heavy"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        snapshots = SMOKE_HEAVY_SNAPSHOTS if smoke else HEAVY_SNAPSHOTS
        self.scenario = dataclasses.replace(self.scenario, n_snapshots=snapshots)
        self.pool_size = 2 if smoke else 150
        self.config = dataclasses.replace(
            self.harness,
            scenario=self.scenario,
            methods=("proposed",),
            base_seed=self.trial_seed(0),
            q_trials=self.pool_size,
        )

    def warmup(self) -> None:
        bench.run_trial("proposed", self.scenario, SNR_DB, WARMUP_OFFSET, self.config)

    def run(self, step: int):
        return bench.run_trial("proposed", self.scenario, SNR_DB, step % self.pool_size, self.config)

    def score(self, step: int, raw) -> list[Outcome]:
        key = (step % self.pool_size,)
        if isinstance(raw, BaseException):
            return [_failed(key, "proposed", _describe(raw))]
        return [_from_record(key, raw)]


class _ErrorLog(logging.Handler):
    """Collects the exceptions ``run_monte_carlo`` logs for failed trials."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.errors: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info and record.exc_info[1] is not None:
            self.errors.append(_describe(record.exc_info[1]))
        else:
            self.errors.append(record.getMessage())


class McSweep(Workload):
    name = "mc-sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.pool_size = 1 if smoke else 60
        self.log = _ErrorLog()
        logging.getLogger("canf.bench").addHandler(self.log)

    def _config(self, base_seed: int):
        return dataclasses.replace(
            self.harness,
            scenario=self.scenario,
            snr_db_list=SWEEP_SNRS_DB,
            q_trials=1,
            methods=METHODS,
            base_seed=base_seed,
        )

    def warmup(self) -> None:
        canf.run_monte_carlo(self._config(self.trial_seed(WARMUP_OFFSET)))

    def run(self, step: int):
        self.log.errors.clear()
        return canf.run_monte_carlo(self._config(self.trial_seed(step % self.pool_size)))

    def score(self, step: int, raw) -> list[Outcome]:
        i = step % self.pool_size
        keys = [(i, m, s) for m in METHODS for s in SWEEP_SNRS_DB]
        if isinstance(raw, BaseException):
            return [_failed(key, key[1], _describe(raw)) for key in keys]
        errors = iter(self.log.errors)
        return [
            _from_record((i, rec.method, rec.snr_db), rec, next(errors, None) if rec.failed else None)
            for rec in raw.records
        ]


WORKLOADS = {w.name: w for w in (LocalizeLatency, McSweep, SnapshotHeavy)}
