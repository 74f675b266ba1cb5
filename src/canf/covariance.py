"""Covariance construction: initial estimate, anti-diagonal decoupling,
coarray vectorization and spatial smoothing.

For a symmetric layout, mirroring the covariance across its anti-diagonal
flips the sign of the range-dependent quadratic phase while preserving the
angle-dependent linear phase.  The Hadamard product of the matrix with its
mirror therefore cancels range out of every entry (self-spectrum) at the
cost of extra pairwise cross terms; the result lives on the difference
coarray and can be smoothed back to a full-rank angle-only covariance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import SnapshotSet
from .geometry import SensorLayout, difference_coarray

__all__ = [
    "CovarianceBundle",
    "covariance_ls",
    "covariance_sample",
    "mirror_antidiagonal",
    "decouple",
    "vectorize_to_coarray",
    "spatial_smooth",
    "build_bundle",
]


def covariance_ls(snapshots: SnapshotSet) -> np.ndarray:
    """Covariance from per-snapshot least-squares steering estimates.

    Each snapshot gives the rank-one LS fit
    ``B_t = y(t) x(t)^H / (x(t)^H x(t))``; the estimate is the average of
    ``B_t B_t^H``, which reduces to the power-normalized outer product
    ``y y^H / (x^H x)`` per snapshot.  Requires the known source waveforms
    carried by the snapshot set, with finite, nonzero power in every
    snapshot, and finite snapshots.
    """
    y, x = snapshots.y, snapshots.x
    power = np.einsum("kt,kt->t", x.conj(), x).real
    if not np.all(np.isfinite(power)):
        raise ValueError("source waveforms x have non-finite entries; LS fit undefined")
    if np.any(power == 0.0):
        raise ValueError("a snapshot has zero source power; LS fit undefined")
    return _gram(y, 1.0 / np.sqrt(power))


def covariance_sample(snapshots: SnapshotSet) -> np.ndarray:
    """Plain sample covariance ``(1/T) sum_t y(t) y(t)^H`` of finite snapshots."""
    return _gram(snapshots.y)


_GRAM_BLOCK = 512  # snapshots per Gram product: fastest of 256 .. 2048 at T = 20000


def _gram(y: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """``c c^H / T`` with ``c = y * weight`` columnwise (``c = y`` without
    ``weight``), made exactly Hermitian, rejecting non-finite snapshots.

    The product is summed over column blocks of :data:`_GRAM_BLOCK`
    snapshots, each weighted and conjugated as it is used, so no ``(U, T)``
    copy of ``y`` is made and each block's operands stay in cache.  The LS
    weight is ``1 / sqrt(x^H x)``: numpy divides a complex entry by a real
    one by multiplying with its reciprocal, so ``y * weight`` is bitwise
    ``y / sqrt(x^H x)`` at half the cost.  Each block's product is added to
    the sum of the blocks before it, in order; with ``T <= _GRAM_BLOCK``
    there is one block and the result is bitwise the single product
    ``c @ c.conj().T``.  A non-finite entry of ``c`` makes its row's
    diagonal entry ``sum |c|^2`` non-finite, so the U-entry diagonal stands
    in for an O(U T) scan; the arithmetic warnings such an entry raises on
    the way are silenced, since the check reports it.
    """
    n = y.shape[1]

    def block_gram(start: int) -> np.ndarray:
        c = y[:, start : start + _GRAM_BLOCK]
        if weight is not None:
            c = c * weight[start : start + _GRAM_BLOCK]
        return c @ c.conj().T

    with np.errstate(invalid="ignore", over="ignore"):
        gram = block_gram(0)
        for start in range(_GRAM_BLOCK, n, _GRAM_BLOCK):
            gram += block_gram(start)
    if not np.all(np.isfinite(np.diagonal(gram))):
        raise ValueError("snapshots y have non-finite entries")
    # Gram products are Hermitian analytically but not bitwise under BLAS;
    # downstream code relies on exact Hermiticity.
    gram = gram / n
    return 0.5 * (gram + gram.conj().T)


def mirror_antidiagonal(r_hat: np.ndarray) -> np.ndarray:
    """Mirror across the anti-diagonal: out[i, j] = in[mirror(j), mirror(i)]."""
    return r_hat.T[::-1, ::-1]


def decouple(
    r_hat: np.ndarray, layout: SensorLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Anti-diagonal mirror and the decoupled (Hadamard) covariance.

    Returns ``(R_a, R_d)`` with ``R_d = R * R_a`` elementwise.  The identity
    that makes ``R_d`` range-free requires a symmetric layout.
    """
    u = layout.size
    if r_hat.shape != (u, u):
        raise ValueError(f"covariance shape {r_hat.shape} does not match U={u}")
    if not layout.is_symmetric:
        raise ValueError("decoupling requires a symmetric layout")
    r_a = mirror_antidiagonal(r_hat)
    return r_a, r_hat * r_a


@lru_cache(maxsize=64)
def _segment_lag_indices(
    grid: tuple[int, ...], segment: tuple[int, ...]
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The segment lags grouped by their entry count.

    Each group is ``(positions, index)``: the lags' positions in ``segment``
    and an ``(n_lags, count)`` matrix of the row-major flat indices of their
    covariance entries, ascending along each row.
    """
    g = np.asarray(grid, dtype=int)
    lag_matrix = (g[:, None] - g[None, :]).ravel()
    per_lag = [np.flatnonzero(lag_matrix == lag) for lag in segment]
    for lag, idx in zip(segment, per_lag):
        if idx.size == 0:
            raise RuntimeError(
                f"lag {lag} missing from coarray; segment inconsistent with layout"
            )
    counts = np.array([idx.size for idx in per_lag])
    groups = []
    for count in np.unique(counts):
        positions = np.flatnonzero(counts == count)
        index = np.stack([per_lag[i] for i in positions])
        positions.flags.writeable = index.flags.writeable = False
        groups.append((positions, index))
    return tuple(groups)


def vectorize_to_coarray(r_d: np.ndarray, layout: SensorLayout) -> np.ndarray:
    """Collapse a U x U matrix to one sample per coarray lag.

    Each sample is the mean of all the entries at that lag; pooling the
    redundant entries lowers the variance.

    Args:
        r_d: Decoupled covariance (or any U x U matrix to vectorize).
        layout: The physical layout that generated ``r_d``; the
            ``smoothing_segment`` of its (cached) difference coarray defines
            the output lags.

    Returns:
        Complex vector over the smoothing segment, ascending lag.
    """
    flat = r_d.ravel()
    # Each row of a group's (n_lags, count) gather is reduced on its own, in
    # the order a per-lag np.mean sums it, so the output is bitwise the
    # per-lag mean; a scatter-add (bincount, reduceat) would reorder the sums
    # and move the smallest eigenvalues of the smoothed covariance.
    segment = difference_coarray(layout).smoothing_segment
    out = np.empty(len(segment), dtype=complex)
    for positions, index in _segment_lag_indices(layout.grid, segment):
        out[positions] = flat[index].mean(axis=1)
    return out


def spatial_smooth(r_tilde: np.ndarray) -> np.ndarray:
    """Rank-restoring smoothing of the coarray vector.

    A length 2W - 1 vector is split into W overlapping windows of W
    entries; the output is the average of the window outer products, a
    W x W Hermitian PSD matrix.
    """
    r = np.asarray(r_tilde)
    if r.ndim != 1 or r.size % 2 == 0:
        raise ValueError("coarray vector must be 1-D with odd length")
    w = (r.size + 1) // 2
    windows = sliding_window_view(r, w)
    return windows.T @ windows.conj() / w


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """Every covariance stage of the pipeline, kept for diagnostics."""

    r_hat: np.ndarray
    r_a: np.ndarray
    r_d: np.ndarray
    r_tilde: np.ndarray
    r_v: np.ndarray


def build_bundle(snapshots: SnapshotSet) -> CovarianceBundle:
    """Run the full covariance chain on a snapshot set: the LS covariance
    (:func:`covariance_ls`, which needs the known source waveforms), its
    decoupling, the coarray vector of the snapshot layout and smoothing."""
    layout = snapshots.layout
    r_hat = covariance_ls(snapshots)
    r_a, r_d = decouple(r_hat, layout)
    r_tilde = vectorize_to_coarray(r_d, layout)
    r_v = spatial_smooth(r_tilde)
    return CovarianceBundle(r_hat, r_a, r_d, r_tilde, r_v)
