"""Every exported name and every layer the benchmark traces resolves in canf,
no module binds a reference that only the tests use,
and neither importing canf nor running it loads a scipy module.

``perfbench/spans.py`` names each traced function as ``(module, qualname)``.
A name that no longer resolves is not an error there: its per-layer metric
just reads 0 calls.  These tests read that list, unchanged, and fail instead.
"""
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import canf

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, qualname", _traced())
def test_traced_name_resolves(module_name, qualname):
    module = importlib.import_module(f"canf.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # The tracer patches the class attribute itself, so look it up there.
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qualname, None))


def test_eig_hermitian_is_bound_in_baselines():
    assert canf.baselines.eig_hermitian is canf.music.eig_hermitian


@pytest.mark.parametrize(
    "module_name",
    ["canf"] + [f"canf.{info.name}" for info in pkgutil.iter_modules(canf.__path__)],
)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "module_name",
    ["canf"] + [f"canf.{info.name}" for info in pkgutil.iter_modules(canf.__path__)],
)
def test_no_module_binds_a_test_reference(module_name):
    # The angle stage forms its real matrix from views of the coarray
    # vector, and associate calls the solver directly, so these references
    # live in the tests' oracles alone.
    module = importlib.import_module(module_name)
    names = ("real_form", "_unitary_fold", "_HALF_SQRT2", "linear_sum_assignment")
    assert [name for name in names if hasattr(module, name)] == []


NO_SCIPY_AT_RUNTIME = """
import json, sys

import canf, canf.cli
from canf.bench import MonteCarloConfig, run_monte_carlo
from canf.scenario import default_benchmark_scenario

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))[:5]

assert scipy_loaded() == [], scipy_loaded()
scenario = {"M": 2, "N": 3, "freq_ghz": 30, "T": 50, "snr_db": 20, "seed": 1,
            "targets": [{"theta_deg": -20, "range_m": 0.04}, {"theta_deg": 15, "range_m": 0.06}]}
with open("scenario.json", "w") as f:
    json.dump(scenario, f)
assert canf.cli.main(["spectrum", "--scenario", "scenario.json", "--out-dir", "out"]) == 0
report = run_monte_carlo(MonteCarloConfig(default_benchmark_scenario(), (10.0,), q_trials=1))
assert [row.method for row in report.rows] == list(canf.bench.METHODS), report.rows
assert not any(rec.failed for rec in report.records), [rec.error for rec in report.records]
match = canf.associate((10.0, -20.0, 30.0), None, (-19.0, 29.5, 10.5), (1.0, 2.0, 3.0), 1.0)
assert match.pairs == ((0, 2), (1, 0), (2, 1)), match.pairs
assert scipy_loaded() == [], scipy_loaded()
"""


def test_spectrum_monte_carlo_and_associate_load_no_scipy(tmp_path):
    # A fresh interpreter, so that no other test has imported scipy yet.
    src = str(Path(canf.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_AT_RUNTIME],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
