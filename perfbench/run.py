"""canf benchmark: one workload, one fresh process, one caller.

    python3 perfbench/run.py --workload localize-latency --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``canf`` is imported from its ``src``
directory.  ``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing installed.  ``--trace 1`` runs the same untraced phase, then a
phase with every traced canf function wrapped, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  A full record, with machine
information, goes to ``perfbench/out/``.

Exit codes: 0 when every output check passed, 1 when one failed (a
non-finite estimate, an angle outside the search grid, or a repeated input
giving a different answer), 2 when the benchmark cannot start (no canf
source next to it, or bad arguments).
"""
import os

# One BLAS thread, set before numpy loads: every workload runs from a single
# thread, and multi-threaded OpenBLAS made early calls erratic on a 2-core box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for ``setup_s``; their median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PROBE_GAUGE_REPEATS = 15
#: A phase stops taking new steps after this long even if the pool's first
#: pass is unfinished (which then fails the output check), so that even a
#: traced run of two phases ends well within three minutes.
HARD_CAP_S = 75


class SetupError(RuntimeError):
    pass


def import_canf():
    """Import canf from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "canf" / "__init__.py").is_file():
        raise SetupError(f"no canf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import canf

    if SRC not in Path(canf.__file__).resolve().parents:
        raise SetupError(f"canf was imported from {canf.__file__}, not {SRC}")
    return canf


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": usable,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    """Child-process body: time ``import canf`` through the warm-up op.

    The machine's speed is gauged right after, for the scaled ``setup_s``.
    """
    start = time.perf_counter()
    import_canf()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, smoke).warmup()
    setup_s = time.perf_counter() - start
    from gauge import Gauge

    gauge = Gauge()
    gauge.sample(PROBE_GAUGE_REPEATS)
    print(json.dumps({"setup_s": setup_s, "scale": gauge.scale}))


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(probes):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Ledger:
    """Checks every outcome and keeps the first pass as the accuracy set."""

    def __init__(self, workload) -> None:
        self.lo, self.hi = workload.angle_bounds
        self.min_estimates = workload.n_distinct_angles
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.problems: list[str] = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            values = o.theta_deg + (o.range_m or ())
            finite = all(math.isfinite(v) for v in values)
            if not finite:
                self.problem(f"{o.key}: non-finite estimate {o.theta_deg} {o.range_m}")
            elif any(not (self.lo <= t <= self.hi) for t in o.theta_deg):
                self.problem(f"{o.key}: angle outside grid [{self.lo}, {self.hi}]: {o.theta_deg}")
            error = o.error
            if error is None and not finite:
                error = "non-finite estimate"
            if error is None and len(o.theta_deg) < self.min_estimates:
                error = f"missing estimates: {len(o.theta_deg)} < {self.min_estimates}"
            if error is not None:
                self.failed += 1
                self.errors[error] = self.errors.get(error, 0) + 1
            seen = self.first.setdefault(o.key, o)
            if seen is not o and seen.fingerprint != o.fingerprint:
                self.problem(f"{o.key}: repeated input gave a different result")

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"CHECK FAILED {text}", file=sys.stderr)
        self.problems.append(text)

    def accuracy(self, method: str) -> dict:
        """Harness-style RMSEs and detection rate of one method's first pass."""
        from canf import rmse

        chosen = [o for o in self.first.values() if o.method == method and o.error is None]
        if not chosen:
            return {}
        out = {
            "theta_rmse_deg": rmse(e for o in chosen for e in o.theta_errors),
            "range_rmse_m": rmse(e for o in chosen for e in o.range_errors),
            "detection_rate": sum(o.detected for o in chosen) / len(chosen),
        }
        return {k: v for k, v in out.items() if v is not None}


def run_phase(workload, ledger: Ledger, seconds: float, tracer=None) -> dict:
    """Closed loop: at least ``seconds`` long and one full pass over the pool.

    The gauge times its kernel between steps (see ``gauge.py``); that time is
    left out of the phase's wall time.
    """
    from gauge import Gauge

    gauge = Gauge()
    samples_ms, step_ns = [], []
    ops = completed = 0
    start = time.perf_counter()
    deadline = start + seconds
    step = 0
    while step < workload.pool_size or time.perf_counter() < deadline:
        if time.perf_counter() - start > HARD_CAP_S:
            ledger.problem(f"stopped after {HARD_CAP_S} s at step {step}")
            break
        gauge.sample()
        scope = tracer.op(step) if tracer is not None else nullcontext()
        t0 = time.perf_counter_ns()
        try:
            with scope:
                raw = workload.run(step)
        except Exception as exc:  # an op that raises is a failure, not a crash
            raw = exc
        t1 = time.perf_counter_ns()
        outcomes = workload.score(step, raw)
        before = ledger.failed
        ledger.add(outcomes)
        ops += len(outcomes)
        completed += len(outcomes) - (ledger.failed - before)
        samples_ms.append((t1 - t0) / 1e6 / len(outcomes))
        step_ns.append(time.perf_counter_ns() - t0)
        step += 1
    gauge.sample()
    wall = time.perf_counter() - start - gauge.spent_s
    scales = gauge.step_scales()
    scaled_ms = [t * f for t, f in zip(samples_ms, scales)]
    scaled_wall_ns = sum(t * f for t, f in zip(step_ns, scales))
    if step < workload.pool_size:
        ledger.problem(f"first pass incomplete: {step} of {workload.pool_size} steps")
    return {"steps": step, "ops": ops, "completed": completed, "wall_s": wall,
            "raw_ops_per_s": completed / wall, "ops_per_s": completed / scaled_wall_ns * 1e9,
            "ref_ms": gauge.ref_ms, "samples_ms": samples_ms, "scaled_ms": scaled_ms,
            "gauge_ms": gauge.samples_ms}


def end_to_end(ledger, phase, setup_samples) -> tuple[dict, dict]:
    """Declared metrics, at nominal machine speed, and their raw readings."""
    def p50_p90(samples):
        return (statistics.median(samples),
                statistics.quantiles(samples, n=10, method="inclusive")[-1])

    p50, p90 = p50_p90(phase["scaled_ms"])
    raw_p50, raw_p90 = p50_p90(phase["samples_ms"])
    setup_raw = statistics.median(p["setup_s"] for p in setup_samples)
    values = {
        "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in setup_samples),
        "ops_per_s": phase["ops_per_s"],
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(ledger.accuracy("proposed"))
    raw = {"raw.setup_s": setup_raw, "raw.ops_per_s": phase["raw_ops_per_s"],
           "raw.op_ms_p50": raw_p50, "raw.op_ms_p90": raw_p90, "gauge.ref_ms": phase["ref_ms"]}
    return values, raw


def per_layer(totals, counters, ops: int, untraced, traced) -> dict:
    from spans import TRACED_NAMES

    values = {}
    for name in TRACED_NAMES:
        calls, self_ns = totals.get(name, (0, 0))
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_ms"] = self_ns / 1e6 / ops
    range_calls = totals.get("music.range_spectrum", (0, 0))[0]
    values["music.candidates_per_op"] = counters["music.candidates"] / ops
    values["music.range_true_frac"] = (
        counters["music.range_true"] / range_calls if range_calls else 0.0
    )
    values["trace_overhead_frac"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
    return values


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and inputs, one setup probe (for the self-tests)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed, args.smoke)
            return 0
        spec = load_spec()
        start = time.perf_counter()
        import_canf()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warmup()
    own_setup_s = time.perf_counter() - start
    leftover = spans.installed_wrappers()
    if leftover:
        print(f"error: tracing wrappers installed before the run: {leftover}", file=sys.stderr)
        return 2

    info = machine_info(args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    setup_samples = []
    if args.trace == 0:
        probes = 1 if args.smoke else SETUP_PROBES
        try:
            setup_samples = measure_setup(args.workload, args.seed, args.smoke, probes)
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    workload.prepare()
    ledger = Ledger(workload)
    untraced = run_phase(workload, ledger, args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": info,
              "own_setup_s": own_setup_s, "setup_probes": setup_samples,
              "untraced": untraced}

    if args.trace == 0:
        if spans.installed_wrappers():
            ledger.problem("tracing wrappers found in the untraced run")
        section = "end_to_end"
        metrics, raw = end_to_end(ledger, untraced, setup_samples)
    else:
        tracer = spans.Tracer()
        with spans.install(tracer) as installation:
            traced = run_phase(workload, ledger, args.seconds, tracer)
            record["trace_missing"] = list(installation.missing)
        if spans.installed_wrappers():
            ledger.problem("tracing wrappers left installed")
        OUT.mkdir(exist_ok=True)
        spans.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", tracer.spans)
        section = "per_layer"
        raw = {"raw.untraced_ops_per_s": untraced["raw_ops_per_s"],
               "raw.traced_ops_per_s": traced["raw_ops_per_s"]}
        metrics = per_layer(spans.layer_totals(tracer.spans), tracer.counters,
                            traced["ops"], untraced, traced)
        record["traced"] = traced

    declared = {m["name"]: m["unit"] for m in spec[section]}
    extra = {k: v for k, v in metrics.items() if k not in declared}
    extra.update(raw)
    missing = [k for k in declared if k not in metrics]
    if missing:
        ledger.problem(f"metrics not measured: {missing}")
    extra.update({"failed_frac": ledger.failed / max(ledger.attempted, 1)})
    for method in sorted({o.method for o in ledger.first.values()} - {"proposed"}):
        for key, value in ledger.accuracy(method).items():
            extra[f"{method}.{key}"] = value
    extra["samples"] = len(untraced["samples_ms"])

    correct = not ledger.problems
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics},
    }
    record.update(result=result, extra=extra, errors=ledger.errors,
                  problems=ledger.problems[:100])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print_table(f"{section} metrics", {k: metrics[k] for k in declared if k in metrics}, declared)
    print_table("other", extra, {})
    for error, count in ledger.errors.items():
        print(f"failure x{count}: {error}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
