"""Self-tests of the benchmark (kept out of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

They check the harness, not the package: no test pins a call count or a
timing, because changes to canf are meant to move those.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import canf  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                          "--trace", "0", "--smoke"))
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "localize-latency", "--seed", "3", "--seconds", "0.5",
                          "--trace", "1", "--smoke"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["music.localize.calls"]["value"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "localize-latency", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bindings():
    """Every (owner, attribute) in canf that binds a traced object, with it."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "canf" or name.startswith("canf."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    found[("SpectrumGrid", "for_layout")] = canf.SpectrumGrid.__dict__["for_layout"]
    return found


def test_remove_restores_original_objects():
    before = _bindings()
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        assert installation.missing == []
        assert canf.music.eig_hermitian is not before[("canf.music", "eig_hermitian")]
        assert canf.baselines.eig_hermitian is canf.music.eig_hermitian
        assert spans.installed_wrappers()
    finally:
        installation.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert spans.installed_wrappers() == []


def test_self_times_of_one_op_sum_to_its_span():
    workload = WORKLOADS["snapshot-heavy"](seed=2, smoke=True)
    tracer = spans.Tracer()
    with spans.install(tracer):
        with tracer.op(7):
            workload.run(0)
    op = [s for s in tracer.spans if s[4] == 7]
    root = [s for s in op if s[3] is None]
    assert len(root) == 1 and len(op) > 10
    assert sum(spans.self_times(tracer.spans)) == root[0][2] - root[0][1]
    assert all(t >= 0 for t in spans.self_times(tracer.spans))
    totals = spans.layer_totals(tracer.spans)
    assert totals["bench.run_trial"][0] == 1
    assert totals["channel.synthesize"][0] >= 1


def test_calls_outside_an_op_are_not_recorded():
    tracer = spans.Tracer()
    workload = WORKLOADS["localize-latency"](seed=2, smoke=True)
    with spans.install(tracer):
        workload.warmup()
    assert tracer.spans == []
