import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from canf import CoprimeParams, Target, TargetSet, build_coprime_layout
from canf.scenario import default_benchmark_scenario

WAVELENGTH = 10e-3  # round 10 mm carrier for hand-checkable geometry


@pytest.fixture(scope="session")
def params23():
    return CoprimeParams(2, 3, WAVELENGTH / 4.0, WAVELENGTH)


@pytest.fixture(scope="session")
def layout23(params23):
    return build_coprime_layout(params23)


@pytest.fixture(scope="session")
def params911():
    return CoprimeParams(9, 11, 2.5e-3, WAVELENGTH)


@pytest.fixture(scope="session")
def layout911(params911):
    return build_coprime_layout(params911)


@pytest.fixture(scope="session")
def benchmark_scenario():
    return default_benchmark_scenario(snr_db=10.0, seed=0)


def random_fresnel_scenario(layout, rng, k_max=4):
    """Random in-region targets with angles kept one beamwidth apart."""
    k = int(rng.integers(1, k_max + 1))
    thetas = []
    while len(thetas) < k:
        cand = float(rng.uniform(-1.2, 1.2))
        if all(abs(cand - t) > 0.12 for t in thetas):
            thetas.append(cand)
    lo, hi = layout.fresnel_distance, layout.rayleigh_distance
    ranges = rng.uniform(lo, hi, size=k)
    return TargetSet(
        tuple(Target(float(t), float(r)) for t, r in zip(thetas, ranges))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Fail a test that leaves a helper thread of canf._helper.worker alive."""
    before = set(helper_threads())
    yield
    left = [t.name for t in helper_threads() if t not in before]
    if left:
        pytest.fail(f"helper threads left running: {left}")


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("canf-helper")]
