"""Property checks on generated inputs: coarray vectorization against its loop
oracle, the angle scan of a coarray split and of a real form, and the range
scan at one angle, folded over several and guarded on the near rows of
several, against a noise-basis oracle on the complex manifolds, the real
form of a centro-Hermitian matrix, range-free decoupling, spatial smoothing
output, the Toeplitz split of the coarray against the split of its smoothed matrix
(its real matrix against ``Q^H T Q`` and, byte for byte, against its closed
form, and its input checks),
estimate-to-truth association (also against a brute-force oracle of its rule),
the assignment solver against scipy's and its dual's bounds, the row-wise
peak finder against one peak search per spectrum, on drawn rows and
on the pipeline's own spectra, and the scalar input rules against the
hand-written checks they replaced."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracles
from canf import (
    CoprimeParams,
    SensorLayout,
    Target,
    TargetSet,
    associate,
    build_coprime_layout,
    decouple,
    difference_coarray,
    spatial_smooth,
    vectorize_to_coarray,
)
from canf import bench, music
from canf.baselines import localize_subarray
from canf.channel import steering_matrix
from canf.geometry import _integer, _positive
from canf.music import (
    CANCELLATION_FLOOR,
    MIN_ANGLE_SEPARATION_DEG,
    Peak,
    PseudoSpectrum,
    Subspace,
    _refine_parabolic,
    _row_peaks,
    angle_spectrum,
    classify_range_spectrum,
    detect_peaks,
    localize,
    range_spectrum,
)
from canf.scenario import default_benchmark_scenario

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LAM = 10e-3

# Symmetric integer layouts; one without coprime parameters smooths over the
# whole consecutive run, a coprime one over the central 2mn + 1 lags.
free_layouts = st.sets(st.integers(1, 12), max_size=6).map(
    lambda half: SensorLayout(tuple(sorted({0} | half | {-g for g in half})), LAM / 4.0, LAM)
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


@PROPERTY
@given(
    layout=st.one_of(free_layouts, coprime_layouts),
    seed=seeds,
    log_scale=st.integers(-8, 8),
)
def test_vectorize_is_the_per_lag_mean_within_ulps(layout, seed, log_scale):
    # The bincount sums each lag's entries in another order than np.mean,
    # so the two differ by roundoff only: a few ulps of the largest entry,
    # at every scale.
    rng = np.random.default_rng(seed)
    u = layout.size
    r = (rng.standard_normal((u, u)) + 1j * rng.standard_normal((u, u))) * 10.0**log_scale
    segment = difference_coarray(layout).smoothing_segment
    expected = oracles.coarray_vector_reference(r, layout.grid, segment)
    ulp = np.spacing(np.max(np.abs(r)))
    np.testing.assert_allclose(vectorize_to_coarray(r, layout), expected, rtol=0.0, atol=4 * ulp)


@PROPERTY
@given(w=st.integers(2, 16), seed=seeds, data=st.data())
def test_angle_scan_of_a_coarray_split_matches_noise_basis_reference(w, seed, data):
    # The coarray vector of sources on (or a hair off) the angles of an
    # exactly antisymmetric grid, the first in the lower half the scan
    # mirrors from the upper.  Rows in (or a hair from) the signal span
    # cancel to roundoff in 1 - ||U_s^T a||^2 / W, and only the guard's
    # residual, a mirrored row's taken on its twin's row with the sine
    # block negated, meets the oracle.  Noise 0 makes T rank-deficient.
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, w - 1), label="sources")
    rank = data.draw(st.integers(1, w - 1), label="rank")
    sigma2 = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), label="noise")
    nudge_deg = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), label="nudge")
    spacing = LAM / 2.0  # the decoupled coarray's virtual array
    grid = 2.0 * np.arange(-30.0, 31.0)
    lower = rng.integers(30)
    others = rng.choice(np.delete(grid, lower), size=k - 1, replace=False)
    sources = np.concatenate(([grid[lower]], others)) + nudge_deg * rng.standard_normal(k)
    # T = A diag(p) A^H + sigma2 I is Toeplitz: lag l of its column 0.
    ahead = rng.uniform(0.1, 10.0, k) @ oracles.virtual_steering_matrix(w, spacing, LAM, sources)
    ahead[0] += sigma2
    r_tilde = np.concatenate((ahead[:0:-1].conj(), ahead))
    sub = Subspace.split_coarray(r_tilde, rank)
    basis = oracles.unitary_q(w) @ sub.eigvecs
    manifold = oracles.virtual_steering_matrix(w, spacing, LAM, grid)
    expected = oracles.noise_power_reference(basis[:, rank:], manifold)
    values = 1.0 / angle_spectrum(sub, spacing, LAM, grid).values
    if sigma2 == 0.0 and nudge_deg == 0.0 and rank >= k:
        assert values[lower] < CANCELLATION_FLOOR
    # Rows in the signal span have noise power at roundoff (about 1e-30)
    # on both sides; an unguarded signal-basis value there errs by ~1e-16.
    np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-20)


@PROPERTY
@given(
    layout=st.one_of(free_layouts.filter(lambda lay: lay.size > 1), coprime_layouts),
    seed=seeds,
    data=st.data(),
)
def test_range_scan_at_one_angle_matches_noise_basis_reference(layout, seed, data):
    # One scalar angle, sources on (or a hair off) its range grid: rows in
    # the signal span meet the oracle on the unfolded Fresnel manifold
    # exp(1j * (p + q)) only through the guard's residual of the unfolded row.
    u = layout.size
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 1.0, 12)
    theta = float(rng.uniform(-70.0, 70.0))
    k = data.draw(st.integers(1, u - 1), label="sources")
    rank = data.draw(st.integers(1, u - 1), label="rank")
    sigma2 = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), label="noise")
    nudge = data.draw(st.sampled_from([0.0, 1e-7, 1e-3]), label="nudge")
    ranges = rng.choice(grid, size=k) * (1.0 + nudge * rng.standard_normal(k))
    columns = oracles.range_steering_matrix(layout, theta, ranges).T
    sub = Subspace.split(_sources_matrix(columns, rng, sigma2), rank)
    manifold = oracles.range_steering_matrix(layout, theta, grid)
    expected = oracles.noise_power_reference(sub.eigvecs[:, rank:], manifold)
    values = 1.0 / range_spectrum(sub, layout, theta, grid).values
    assert values.shape == grid.shape
    if sigma2 == 0.0 and nudge == 0.0 and rank >= k:
        assert np.any(values < CANCELLATION_FLOOR)
    np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-20)


@PROPERTY
@given(
    layout=st.one_of(free_layouts.filter(lambda lay: lay.size > 2), coprime_layouts),
    seed=seeds,
    data=st.data(),
)
def test_range_scan_guard_unfolds_the_near_rows_of_every_candidate(layout, seed, data):
    # Noise-free sources on the range grid at the first k >= 2 of the
    # candidate angles put rows of each of those candidates in the signal
    # span.  The guard recomputes all of them in one gather, and each row
    # must be unfolded with its own candidate's linear phase.
    u = layout.size
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 1.0, 12)
    thetas = rng.uniform(-70.0, 70.0, data.draw(st.integers(2, 4), label="candidates"))
    k = data.draw(st.integers(2, min(thetas.size, u - 1)), label="sources")
    rank = data.draw(st.integers(k, u - 1), label="rank")
    columns = [
        oracles.range_steering_matrix(layout, theta, [rng.choice(grid)])[0] for theta in thetas[:k]
    ]
    sub = Subspace.split(_sources_matrix(np.array(columns).T, rng, 0.0), rank)
    manifold = oracles.range_steering_matrix(layout, thetas, grid).reshape(-1, u)
    expected = oracles.noise_power_reference(sub.eigvecs[:, rank:], manifold)
    values = 1.0 / range_spectrum(sub, layout, thetas, grid).values
    assert np.all(np.any(values[:k] < CANCELLATION_FLOOR, axis=1))
    np.testing.assert_allclose(values.ravel(), expected, rtol=1e-9, atol=1e-20)


def _centro_hermitian(rng, w):
    """A random Hermitian matrix with ``J R J = conj(R)``."""
    h = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    h = h + h.conj().T
    return 0.5 * (h + h[::-1, ::-1].conj())


def _sources_matrix(columns, rng, sigma2):
    """``A diag(p) A^H + sigma2 I`` for steering columns ``A``."""
    power = rng.uniform(0.1, 10.0, columns.shape[1])
    return (columns * power) @ columns.conj().T + sigma2 * np.eye(columns.shape[0])


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(half=st.integers(1, 8), seed=seeds, log_scale=st.integers(-6, 6))
def test_real_form_keeps_the_eigenvalues(parity, half, seed, log_scale):
    w = 2 * half + parity
    r = _centro_hermitian(np.random.default_rng(seed), w) * 10.0**log_scale
    s = oracles.real_form(r)
    assert s.shape == (w, w) and s.dtype == np.float64
    expected = np.linalg.eigvalsh(r)
    scale = np.max(np.abs(expected))
    q = oracles.unitary_q(w)
    np.testing.assert_allclose(s, q.conj().T @ r @ q, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(0.5 * (s + s.T)), expected, rtol=0.0, atol=1e-12 * scale
    )


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(
    half=st.integers(1, 8),
    seed=seeds,
    level=st.sampled_from([1e-6, 1e-3, 1.0]),
)
def test_real_form_rejects_a_matrix_that_is_not_centro_hermitian(parity, half, seed, level):
    # A Hermitian part that J . J conjugates to its negative, at `level`
    # of the trace (or of 1 for a small trace), is far past 1e-9; the same
    # part at 1e-13 is roundoff and passes.
    w = 2 * half + parity
    rng = np.random.default_rng(seed)
    r = _centro_hermitian(rng, w)
    h = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    h = h + h.conj().T
    anti = h - h[::-1, ::-1].conj()
    anti = anti / np.max(np.abs(anti)) * max(abs(np.trace(r)), 1.0)
    with pytest.raises(ValueError, match="not centro-Hermitian"):
        oracles.real_form(r + level * anti)
    oracles.real_form(r + 1e-13 * anti)


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(half=st.integers(1, 8), seed=seeds, data=st.data())
def test_real_angle_scan_matches_the_complex_manifold(parity, half, seed, data):
    # Sources on (or a hair off) scan-grid angles, as in the coarray-split
    # property above; the oracle takes the complex virtual manifold and the
    # noise basis mapped back by Q, so both the real rows and Q are checked.
    w = 2 * half + parity
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, w - 1), label="sources")
    rank = data.draw(st.integers(1, w - 1), label="rank")
    sigma2 = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), label="noise")
    nudge_deg = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), label="nudge")
    # The far-field and the decoupled coarray's virtual arrays.
    spacing = data.draw(st.sampled_from([LAM / 4.0, LAM / 2.0]), label="spacing")
    grid = np.linspace(-60.0, 60.0, 61)
    sources = rng.choice(grid, size=k, replace=False) + nudge_deg * rng.standard_normal(k)
    a = oracles.virtual_steering_matrix(w, spacing, LAM, sources).T
    matrix = _sources_matrix(a, rng, sigma2)
    sub = Subspace.split(oracles.real_form(matrix), rank)
    manifold = oracles.virtual_steering_matrix(w, spacing, LAM, grid)
    basis = oracles.unitary_q(w) @ sub.eigvecs
    # Q maps the real form's eigenvectors back to those of the matrix.
    np.testing.assert_allclose(
        matrix @ basis, basis * sub.eigvals, rtol=0.0, atol=1e-9 * sub.eigvals[0]
    )
    expected = oracles.noise_power_reference(basis[:, rank:], manifold)
    spec = angle_spectrum(sub, spacing, LAM, grid)
    np.testing.assert_allclose(1.0 / spec.values, expected, rtol=1e-9, atol=1e-20)


@PROPERTY
@given(
    layout=st.one_of(free_layouts.filter(lambda lay: lay.size > 1), coprime_layouts),
    seed=seeds,
    data=st.data(),
)
def test_folded_range_scan_matches_the_complex_manifold(layout, seed, data):
    # Sources sit on (candidate angle, grid range) points, optionally nudged
    # off the range grid, so some rows lie in the signal span.  The oracle
    # takes the full (C, R, U) manifold the fold never builds.
    u = layout.size
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 1.0, 12)
    thetas = rng.uniform(-70.0, 70.0, data.draw(st.integers(1, 3), label="candidates"))
    k = data.draw(st.integers(1, u - 1), label="sources")
    rank = data.draw(st.integers(1, u - 1), label="rank")
    sigma2 = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), label="noise")
    nudge = data.draw(st.sampled_from([0.0, 1e-7, 1e-3]), label="nudge")
    columns = [
        oracles.range_steering_matrix(
            layout, rng.choice(thetas), [rng.choice(grid) * (1.0 + nudge * rng.standard_normal())]
        )[0]
        for _ in range(k)
    ]
    matrix = _sources_matrix(np.array(columns).T, rng, sigma2)
    sub = Subspace.split(matrix, rank)
    manifold = oracles.range_steering_matrix(layout, thetas, grid).reshape(-1, u)
    expected = oracles.noise_power_reference(sub.eigvecs[:, rank:], manifold)
    spec = range_spectrum(sub, layout, thetas, grid)
    assert spec.values.shape == (thetas.size, grid.size)
    np.testing.assert_allclose(1.0 / spec.values.ravel(), expected, rtol=1e-9, atol=1e-20)


@PROPERTY
@given(layout=free_layouts, seed=seeds, k=st.integers(1, 3))
def test_decoupling_leaves_no_range_dependence(layout, seed, k):
    # Two noise-free quadratic-phase covariances whose targets share angles
    # but not ranges.  Each target's own term of the decoupled covariance is
    # range-free; the pairwise cross terms keep q_v - q_w, so they are taken
    # out with the loop oracle before comparing (for one target there are
    # none, and the decoupled covariances agree outright).
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1.2, 1.2, k)
    z_f, z_r = max(layout.fresnel_distance, 0.05), max(layout.rayleigh_distance, 0.1)
    positions = list(layout.positions)
    self_parts = []
    for ranges in (rng.uniform(z_f, z_r, k), rng.uniform(z_f, z_r, k)):
        targets = TargetSet(tuple(Target(float(t), float(r)) for t, r in zip(thetas, ranges)))
        b = steering_matrix(layout, targets, "fresnel")
        r_d = decouple(b @ b.conj().T, layout)
        _, cross = oracles.self_cross_reference(positions, LAM, thetas, ranges)
        self_parts.append(r_d - cross)
    scale = np.max(np.abs(self_parts[0]))
    np.testing.assert_allclose(self_parts[0], self_parts[1], rtol=0.0, atol=1e-10 * scale)


coarray_vectors = st.integers(1, 10).flatmap(
    lambda w: st.lists(
        st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False),
        min_size=2 * w - 1,
        max_size=2 * w - 1,
    )
)


# Conjugate-symmetric coarray vectors, r[W - 1 - k] = conj(r[W - 1 + k]),
# of odd and even W: lag 0 and W - 1 positive lags drawn, the rest mirrored.
conjugate_symmetric_vectors = st.integers(2, 12).flatmap(
    lambda w: st.tuples(
        st.floats(-100.0, 100.0),
        st.lists(
            st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False),
            min_size=w - 1,
            max_size=w - 1,
        ),
    )
).map(lambda drawn: np.array(np.conj(drawn[1][::-1]).tolist() + [drawn[0]] + drawn[1]))


class _Handed(Exception):
    """Raised with the matrix :meth:`Subspace.split_coarray` decomposes."""


def _split_matrix(r_tilde):
    """The real matrix :meth:`Subspace.split_coarray` hands to its one
    decomposition, for ``r_tilde`` at rank 1, stopped before that
    decomposition (so W = 1, which has no rank to split, is read too)."""

    def handed(matrix):
        raise _Handed(matrix)

    with mock.patch.object(music, "eig_hermitian", handed), pytest.raises(_Handed) as caught:
        Subspace.split_coarray(r_tilde, 1)
    (matrix,) = caught.value.args
    return matrix


def _conjugate_symmetric(kind, w, rng):
    """A conjugate-symmetric vector of length ``2W - 1``: complex, real
    (a float array), or zero-heavy (parts of 0.0 and -0.0, now and then +-1
    or 2, so that many samples of ``S`` are exact zeros of either sign)."""
    if kind == "complex":
        ahead = rng.standard_normal(w - 1) + 1j * rng.standard_normal(w - 1)
        middle = rng.standard_normal()
    elif kind == "real":
        ahead, middle = rng.standard_normal(w - 1), rng.standard_normal()
    else:
        parts = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], p=[0.4, 0.4, 0.1, 0.05, 0.05], size=(2, w))
        ahead = parts[0, 1:] + 1j * parts[1, 1:]
        middle = parts[0, 0]
    return np.concatenate((ahead[::-1].conj(), [middle], ahead))


@pytest.mark.parametrize("kind", ["complex", "real", "zero-heavy"])
@pytest.mark.parametrize("w", [*range(1, 41), 100, 101, 1449])
def test_split_coarray_matrix_is_the_closed_form_byte_for_byte(kind, w):
    # The window views give each entry of the closed form exactly, signed
    # zeros included, for even and odd W and for a W far past the layouts'.
    r = _conjugate_symmetric(kind, w, np.random.default_rng(w))
    s = _split_matrix(r)
    expected = oracles.real_toeplitz_closed_form(r)
    assert s.dtype == expected.dtype == np.float64
    assert s.tobytes() == expected.tobytes()


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(half=st.integers(1, 8), seed=seeds, log_scale=st.integers(-6, 6))
def test_split_coarray_gathers_the_real_form_of_the_toeplitz_matrix(parity, half, seed, log_scale):
    # The gathered S is the real form Re(Q^H T Q) of the Hermitian Toeplitz
    # T, up to the roundoff of the reference's products (6 ulps seen over
    # 4800 draws), and exactly symmetric, so eig_hermitian decomposes it as
    # it is.  W runs over 2 .. 17.
    w = 2 * half + parity
    rng = np.random.default_rng(seed)
    ahead = rng.standard_normal(w - 1) + 1j * rng.standard_normal(w - 1)
    r = np.concatenate((ahead[::-1].conj(), [rng.standard_normal()], ahead)) * 10.0**log_scale
    s = _split_matrix(r)
    assert s.shape == (w, w) and s.dtype == np.float64
    assert np.array_equal(s, s.T)
    q = oracles.unitary_q(w)
    toeplitz = np.array([[r[w - 1 + i - j] for j in range(w)] for i in range(w)])
    expected = (q.conj().T @ toeplitz @ q).real
    ulp = np.spacing(np.max(np.abs(r)))
    np.testing.assert_allclose(s, expected, rtol=0.0, atol=8 * ulp)


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(
    half=st.integers(1, 8),
    seed=seeds,
    level=st.sampled_from([1e-6, 1e-3, 1.0]),
)
def test_split_coarray_rejects_a_vector_that_is_not_conjugate_symmetric(
    parity, half, seed, level
):
    # The vector form of the real_form test above: a conjugate-antisymmetric
    # part at `level` of the trace scale max(W |r[W - 1]|, 1) is far past
    # 1e-9, and the same part at 1e-13 is roundoff and passes.
    w = 2 * half + parity
    rng = np.random.default_rng(seed)
    ahead = rng.standard_normal(w - 1) + 1j * rng.standard_normal(w - 1)
    r = np.concatenate((ahead[::-1].conj(), [rng.standard_normal()], ahead))
    skew = rng.standard_normal(w - 1) + 1j * rng.standard_normal(w - 1)
    anti = np.concatenate((-skew[::-1].conj(), [0.0], skew))
    anti = anti / np.max(np.abs(anti)) * max(w * abs(r[w - 1]), 1.0)
    with pytest.raises(ValueError, match="not centro-Hermitian"):
        Subspace.split_coarray(r + level * anti, 1)
    Subspace.split_coarray(r + 1e-13 * anti, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("lag", [0, 1, 4])
def test_split_coarray_names_a_non_finite_sample(bad, lag):
    # A non-finite sample and its mirrored conjugate pass the symmetry check
    # (their difference is NaN, which compares false), and the decomposition
    # names them.
    r = np.concatenate((np.arange(5.0, 0.0, -1.0), np.arange(2.0, 6.0))).astype(complex)
    r[4 + lag], r[4 - lag] = bad, np.conj(bad)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        Subspace.split_coarray(r, 1)


@pytest.mark.parametrize("shape", [(3, 3), (4,)])
def test_split_coarray_rejects_a_vector_that_is_not_1d_of_odd_length(shape):
    with pytest.raises(ValueError, match="^coarray vector must be 1-D with odd length$"):
        Subspace.split_coarray(np.ones(shape, dtype=complex), 1)


@PROPERTY
@given(r=conjugate_symmetric_vectors, data=st.data())
def test_split_coarray_is_the_split_of_the_smoothed_matrix(r, data):
    # spatial_smooth(r) = T T^H / W for the Hermitian Toeplitz T of r, so
    # splitting T gives the smoothed matrix's eigenvalues and, across any
    # real gap at the rank, its signal subspace (within the Davis-Kahan
    # bound of the smoothed route's roundoff).
    w = (r.size + 1) // 2
    rank = data.draw(st.integers(1, w - 1), label="rank")
    got = Subspace.split_coarray(r, rank)
    expected = Subspace.split(oracles.real_form(spatial_smooth(r)), rank)
    lam_max = expected.eigvals[0]
    np.testing.assert_allclose(got.eigvals, expected.eigvals, rtol=0.0, atol=1e-12 * lam_max)
    assert got.rank == expected.rank
    k = got.rank
    lam_k, lam_next = got.eigvals[k - 1], got.eigvals[k]
    if lam_k > 1.01 * lam_next:
        projectors = [s.eigvecs[:, :k] @ s.eigvecs[:, :k].T for s in (got, expected)]
        bound = 1e-12 * lam_max / (lam_k - lam_next)
        assert np.max(np.abs(projectors[0] - projectors[1])) <= bound


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


@PROPERTY
@given(
    n_est=st.integers(1, 6),
    n_true=st.integers(1, 5),
    with_range=st.booleans(),
    seed=seeds,
)
def test_associate_ties_do_not_depend_on_roundoff(n_est, n_true, with_range, seed):
    # Integer angles and ranges make exact L1 ties common.  The choice stays
    # a least-L1 assignment and survives a 1e-12 relative perturbation.
    rng = np.random.default_rng(seed)
    est_theta, true_theta = rng.integers(-5, 6, n_est) * 2.0, rng.integers(-5, 6, n_true) * 2.0
    est_r, true_r = rng.integers(1, 6, n_est) * 10.0, rng.integers(1, 6, n_true) * 10.0
    ranges = est_r if with_range else None
    base = associate(est_theta, ranges, true_theta, true_r, 20.0)
    cost = np.abs(est_theta[:, None] - true_theta[None, :])
    if with_range:
        cost = cost + np.abs(est_r[:, None] - true_r[None, :]) / 20.0
    rows, cols = linear_sum_assignment(cost)
    chosen = sum(cost[i, j] for i, j in base.pairs)
    assert math.isclose(chosen, cost[rows, cols].sum(), rel_tol=1e-12, abs_tol=1e-12)
    for _ in range(3):
        jitter = 1.0 + 1e-12 * rng.choice([-1.0, 1.0], n_est)
        ranges = est_r * jitter if with_range else None
        assert associate(est_theta * jitter, ranges, true_theta, true_r, 20.0) == base


@settings(PROPERTY, max_examples=300)
@given(
    n_est=st.integers(1, 6),
    n_true=st.integers(1, 6),
    with_range=st.booleans(),
    palette=st.sampled_from(["integer", "half-step", "continuous"]),
    seed=seeds,
)
def test_associate_matches_the_brute_force_rule(n_est, n_true, with_range, palette, seed):
    # Integer and half-step palettes make exact L1 and squared-error ties
    # common, so the squared-error and lexicographic steps are exercised.
    rng = np.random.default_rng(seed)
    if palette == "integer":
        est_theta, true_theta = rng.integers(-5, 6, n_est) * 2.0, rng.integers(-5, 6, n_true) * 2.0
        est_r, true_r = rng.integers(1, 6, n_est) * 10.0, rng.integers(1, 6, n_true) * 10.0
    elif palette == "half-step":
        est_theta, true_theta = rng.integers(0, 6, n_est) * 0.5, rng.integers(0, 6, n_true) * 0.5
        est_r, true_r = rng.integers(0, 4, n_est) * 0.5, rng.integers(0, 4, n_true) * 0.5
    else:
        est_theta, true_theta = rng.uniform(-80.0, 80.0, n_est), rng.uniform(-80.0, 80.0, n_true)
        est_r, true_r = rng.uniform(5.0, 50.0, n_est), rng.uniform(5.0, 50.0, n_true)
    ranges = est_r if with_range else None
    match = associate(est_theta, ranges, true_theta, true_r, 20.0)
    expected = oracles.association_bruteforce(
        est_theta.tolist(), None if ranges is None else est_r.tolist(), true_theta.tolist(),
        true_r.tolist(), 20.0, bench.TIE_RTOL,
    )
    assert match.pairs == expected


@PROPERTY
@given(
    n_rows=st.integers(1, 7),
    extra_cols=st.integers(0, 3),
    levels=st.sampled_from([2, 3, 5, 0]),
    seed=seeds,
)
def test_solver_dual_bounds_every_assignment(n_rows, extra_cols, levels, seed):
    # The potentials _tied_assignments prunes with: cost >= u + v, equal on
    # the assigned pairs, and v <= 0, with 0 on the unassigned columns.
    rng = np.random.default_rng(seed)
    shape = (n_rows, n_rows + extra_cols)
    cost = rng.integers(0, levels, shape) * 0.5 if levels else rng.uniform(0.0, 10.0, shape)
    col4row, u, v = bench._solve(cost.tolist())
    u, v = np.array(u), np.array(v)
    reduced = cost - u[:, None] - v[None, :]
    tol = 1e-12 * max(1.0, cost.max())
    assert reduced.min() >= -tol
    np.testing.assert_allclose(reduced[np.arange(n_rows), col4row], 0.0, atol=tol)
    assert v.max() <= 0.0
    assert np.all(v[np.setdiff1d(np.arange(shape[1]), col4row)] == 0.0)


@settings(PROPERTY, max_examples=400)
@given(
    n_rows=st.integers(1, 8),
    n_cols=st.integers(1, 9),
    transposed=st.booleans(),
    levels=st.sampled_from([2, 3, 5, 0]),
    inf_frac=st.sampled_from([0.0, 0.15, 0.3, 0.6]),
    seed=seeds,
)
def test_solver_matches_scipy(n_rows, n_cols, transposed, levels, inf_frac, seed):
    # Integer palettes make tied assignments common, ``levels = 0`` draws
    # continuous costs, and ``inf`` entries are forbidden pairs.
    if transposed:
        n_rows, n_cols = n_cols, n_rows
    rng = np.random.default_rng(seed)
    if levels:
        cost = rng.integers(0, levels, (n_rows, n_cols)) * 0.5
    else:
        cost = rng.uniform(0.0, 10.0, (n_rows, n_cols))
    cost[rng.random((n_rows, n_cols)) < inf_frac] = np.inf
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        with pytest.raises(ValueError, match="infeasible"):
            oracles.linear_sum_assignment(cost.tolist())
        return
    pairs = oracles.linear_sum_assignment(cost.tolist())
    assert len(pairs) == min(n_rows, n_cols)
    assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})
    assert len({j for _, j in pairs}) == len(pairs)
    total = sum(cost[i, j] for i, j in pairs)
    assert math.isclose(total, cost[rows, cols].sum(), rel_tol=1e-12)


@st.composite
def peak_spectra(draw):
    """A ``(C, R)`` stack of positive spectra, 1e-3 to 1e12, over a drawn
    increasing axis.  Values come from a small palette or anywhere in the
    range, so plateaus, exact ties between and within rows, and maxima on
    the grid endpoints are all common.  The axis is an integer array at
    times, as a caller's ``np.arange`` grid would be."""
    c, r = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    values = st.floats(1e-3, 1e12)
    palette = draw(st.lists(values, min_size=1, max_size=5))
    cell = st.one_of(st.sampled_from(palette), values)
    row = st.lists(cell, min_size=r, max_size=r)
    rows = np.array(draw(st.lists(row, min_size=c, max_size=c)))
    step = draw(st.sampled_from([st.floats(0.01, 2.0), st.integers(1, 3)]))
    steps = draw(st.lists(step, min_size=r, max_size=r))
    return np.cumsum(steps), rows


def _as_peaks(index, location, height, prominence):
    return [
        Peak(float(x), float(h), float(p), int(i))
        for x, h, p, i in zip(location, height, prominence, index)
    ]


def _bits(peaks):
    return [
        (p.location.hex(), p.height_db.hex(), p.prominence_db.hex(), p.index) for p in peaks
    ]


@PROPERTY
@given(spectra=peak_spectra(), include_edges=st.booleans(), data=st.data())
def test_row_peaks_match_one_search_per_row(spectra, include_edges, data):
    # Every row's peaks, from one pass of the row-wise finder over all the
    # rows, are those of scipy's find_peaks run on each row alone, bit for
    # bit and in the same order.
    axis, values = spectra
    db = PseudoSpectrum(axis, values).db
    row, index, location, height, prominence = _row_peaks(db, axis, include_edges)
    for k, row_values in enumerate(values):
        mine = row == k
        got = _as_peaks(index[mine], location[mine], height[mine], prominence[mine])
        expected = oracles.detect_peaks(PseudoSpectrum(axis, row_values), None, include_edges)
        assert _bits(got) == _bits(expected)
    # One spectrum takes a peak distance, with either edge setting; the
    # angle-peak stage is the no-edge case at MIN_ANGLE_SEPARATION_DEG.
    single = PseudoSpectrum(axis, values[0])
    distance = data.draw(st.integers(1, 12))
    separation = distance * float(axis[1] - axis[0]) if axis.size > 1 else 0.0
    got = _as_peaks(*_row_peaks(db[:1], axis, include_edges, distance)[1:])
    assert _bits(got) == _bits(oracles.detect_peaks(single, None, include_edges, separation))
    assert _bits(detect_peaks(single)) == _bits(
        oracles.detect_peaks(single, None, False, MIN_ANGLE_SEPARATION_DEG)
    )
    # Classification reads every row.
    thetas = np.linspace(-60.0, 60.0, len(values))
    bounds = (float(axis[0]), data.draw(st.sampled_from([float(axis[-1]), float(axis[-1]) / 2])))
    expected = [
        c
        for theta, row_values in zip(thetas, values)
        for c in oracles.classify_range_spectrum(
            float(theta), PseudoSpectrum(axis, row_values), bounds
        )
    ]
    assert classify_range_spectrum(thetas, PseudoSpectrum(axis, values), bounds) == expected


@PROPERTY
@given(spectra=peak_spectra())
def test_refinement_matches_the_array_form(spectra):
    # The Python-float fit gives the array form's locations bit for bit at
    # every sample, so at peaks, at the grid endpoints (which keep the grid
    # point) and where the fit opens upward, on float and integer axes.
    axis, values = spectra
    db = PseudoSpectrum(axis, values).db
    row, col = (a.ravel() for a in np.indices(db.shape))
    got = _refine_parabolic(db, row, col, axis)
    expected = oracles.refine_parabolic_rows(db, row, col, axis)
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme", [localize, localize_subarray])
@pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
def test_row_peaks_match_one_search_per_row_on_pipeline_spectra(scheme, snr_db):
    # The drawn rows above hold at most 30 samples; the pipeline's own are
    # the 3599-sample angle spectrum, searched with the angle stage's
    # distance, and the (C, 400) range spectra of its candidates.
    scenario = default_benchmark_scenario(snr_db=snr_db)
    for seed in range(3):
        result = scheme(scenario.snapshots(seed=seed))
        spec_a, spec_r = result.angle_spectrum, result.range_spectrum
        expected = oracles.detect_peaks(spec_a, None, False, MIN_ANGLE_SEPARATION_DEG)
        assert len(expected) > 4
        assert _bits(detect_peaks(spec_a)) == _bits(expected)
        row, index, location, height, prominence = _row_peaks(spec_r.db, spec_r.axis, True)
        assert spec_r.values.shape[0] == len(result.candidates) > 1
        for k, row_values in enumerate(spec_r.values):
            mine = row == k
            got = _as_peaks(index[mine], location[mine], height[mine], prominence[mine])
            expected = oracles.detect_peaks(PseudoSpectrum(spec_r.axis, row_values), None, True)
            assert _bits(got) == _bits(expected)


# Every kind of scalar a config field or a file key may hold: floats with
# their edges (NaN, +-inf, +-0.0, subnormals), ints past a float's range,
# numpy scalars, bools and strings.
scalars = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.0]),
    st.integers(-(10**400), 10**400),
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=3),
)


def _outcome(rule, *args):
    """None for a rejected value, else the stored value with its type."""
    try:
        stored = rule(*args)
    except ValueError:
        return None
    return type(stored), stored


@settings(PROPERTY, max_examples=500)
@given(value=scalars, least=st.sampled_from([0, 1]))
def test_scalar_rules_accept_what_the_replaced_checks_accepted(value, least):
    positive = _outcome(_positive, "x", value)
    assert positive == _outcome(oracles.step_check_reference, value)
    assert positive == _outcome(oracles.spacing_check_reference, value)
    bounded = _outcome(_integer, "x", value, least)
    assert bounded == _outcome(oracles.at_least_check_reference, value, least)
