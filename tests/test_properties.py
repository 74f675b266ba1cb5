"""Property checks on generated inputs: coarray vectorization against its loop
oracle, spatial smoothing output, and estimate-to-truth association."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from canf import (
    CoprimeParams,
    SensorLayout,
    associate,
    build_coprime_layout,
    difference_coarray,
    spatial_smooth,
    vectorize_to_coarray,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LAM = 10e-3

# Symmetric integer layouts; a non-coprime kind smooths over the whole
# consecutive run, a coprime one over the central 2mn + 1 lags.
free_layouts = st.sets(st.integers(1, 12), max_size=6).map(
    lambda half: SensorLayout(
        tuple(sorted({0} | half | {-g for g in half})), LAM / 4.0, LAM, "dense"
    )
)
coprime_layouts = (
    st.tuples(st.integers(1, 6), st.integers(2, 7))
    .filter(lambda mn: mn[0] != mn[1] and math.gcd(*mn) == 1)
    .map(lambda mn: build_coprime_layout(CoprimeParams(mn[0], mn[1], LAM / 4.0, LAM)))
)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(layout=st.one_of(free_layouts, coprime_layouts), seed=seeds)
def test_vectorize_matches_loop_reference(layout, seed):
    rng = np.random.default_rng(seed)
    u = layout.size
    r = rng.standard_normal((u, u)) + 1j * rng.standard_normal((u, u))
    segment = difference_coarray(layout).smoothing_segment
    expected = oracles.coarray_vector_reference(r, layout.grid, segment)
    np.testing.assert_allclose(vectorize_to_coarray(r, layout), expected, rtol=1e-12, atol=1e-12)


coarray_vectors = st.integers(1, 10).flatmap(
    lambda w: st.lists(
        st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False),
        min_size=2 * w - 1,
        max_size=2 * w - 1,
    )
)


@PROPERTY
@given(values=coarray_vectors)
def test_spatial_smooth_is_hermitian_psd(values):
    r = np.array(values, dtype=complex)
    out = spatial_smooth(r)
    w = (r.size + 1) // 2
    assert out.shape == (w, w)
    scale = max(float(np.max(np.abs(r))) ** 2, 1e-300)
    np.testing.assert_allclose(out, out.conj().T, rtol=0.0, atol=1e-12 * scale)
    assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() >= -1e-10 * scale


@PROPERTY
@given(
    n_est=st.integers(0, 6),
    n_true=st.integers(1, 5),
    with_range=st.booleans(),
    seed=seeds,
    data=st.data(),
)
def test_associate_is_invariant_to_estimate_order(n_est, n_true, with_range, seed, data):
    # Continuous draws make ties between assignments a probability-zero event.
    rng = np.random.default_rng(seed)
    est_theta, est_r = rng.uniform(-80.0, 80.0, n_est), rng.uniform(5.0, 50.0, n_est)
    true_theta, true_r = rng.uniform(-80.0, 80.0, n_true), rng.uniform(5.0, 50.0, n_true)
    perm = np.array(data.draw(st.permutations(range(n_est))), dtype=int)

    def match(order):
        ranges = est_r[order] if with_range else None
        return associate(est_theta[order], ranges, true_theta, true_r, 60.0)

    base, permuted = match(np.arange(n_est)), match(perm)
    # Estimate i of the permuted call is estimate perm[i] of the original.
    assert sorted((int(perm[i]), j) for i, j in permuted.pairs) == list(base.pairs)
    assert sorted(int(perm[i]) for i in permuted.unmatched_estimates) == list(
        base.unmatched_estimates
    )
    assert permuted.unmatched_truths == base.unmatched_truths
