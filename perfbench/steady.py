"""Steadiness check: is each end-to-end metric's run-to-run spread within its bound?

    python3 perfbench/steady.py --runs 10 --save perfbench/out/steady-a.json
    python3 perfbench/steady.py --runs 10 --against perfbench/out/steady-a.json

Runs every workload of ``BENCHMARK.json`` (or those named with
``--workload``) ``--runs`` times, one run at a time, each with another seed.
For every metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)``, the spread ``(q3 - q1) / median`` and
that spread as a share of the metric's bound.  The target is a spread below a
third of the bound; ``setup_s`` is exempt from the spread rule.  With
``--against`` it also prints how far each median moved, in the worse
direction, against a saved earlier set, which must stay within the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed the check")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--save", type=Path, help="write the raw values as JSON")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    previous = json.loads(args.against.read_text()) if args.against else {}
    raw: dict[str, dict[str, list[float]]] = {}
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        raw[workload] = {name: [r[name] for r in runs] for name in metrics}
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} "
              f"{'bound':>6} {'/bound':>7}  {'median shift':>12}")
        for name, m in metrics.items():
            s = summarize(raw[workload][name])
            share = s["spread"] / m["bound"]
            verdict = "ok" if share < 1 / 3 else ("within" if share <= 1 else "WIDE")
            if name == "setup_s":
                verdict = "exempt"
            elif share > 1:
                status = 1
            shift = ""
            if workload in previous:
                before = statistics.median(previous[workload][name])
                worse = (s["median"] - before) / before
                if m["better"] == "higher":
                    worse = -worse
                shift = f"{worse:+.4f}" + (" OVER" if worse > m["bound"] else "")
                if worse > m["bound"]:
                    status = 1
            print(f"  {name:<16} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                  f"{s['spread']:>8.4f} {m['bound']:>6} {share:>7.3f}  {shift:>12} {verdict}")
        print(flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
