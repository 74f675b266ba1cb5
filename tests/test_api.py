"""Every exported name and every layer the benchmark traces resolves in canf.

``perfbench/spans.py`` names each traced function as ``(module, qualname)``.
A name that no longer resolves is not an error there: its per-layer metric
just reads 0 calls.  These tests read that list, unchanged, and fail instead.
"""
import importlib
import importlib.util
import pkgutil
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
