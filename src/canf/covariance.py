"""Covariance construction: initial estimate, anti-diagonal decoupling and
coarray vectorization.

For a symmetric layout, mirroring the covariance across its anti-diagonal
flips the sign of the range-dependent quadratic phase while preserving the
angle-dependent linear phase.  The Hadamard product of the matrix with its
mirror therefore cancels range out of every entry (self-spectrum) at the
cost of extra pairwise cross terms; the result lives on the difference
coarray, whose Hermitian Toeplitz matrix the angle stage decomposes in
place of its smoothed square (:func:`spatial_smooth`, which no stage calls;
the tests compare against it).
"""
from __future__ import annotations

from dataclasses import dataclass

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
    in for an O(U T) scan.  The same check catches finite snapshots whose
    ``sum |c|^2`` overflows a float.  The arithmetic warnings either case
    raises on the way are silenced, since the check reports it.
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
        raise ValueError(
            "snapshots y have non-finite entries or a covariance that overflows a float"
        )
    # Gram products are Hermitian analytically but not bitwise under BLAS;
    # downstream code relies on exact Hermiticity.
    gram = gram / n
    return 0.5 * (gram + gram.conj().T)


def mirror_antidiagonal(r_hat: np.ndarray) -> np.ndarray:
    """Mirror across the anti-diagonal: out[i, j] = in[mirror(j), mirror(i)]."""
    return r_hat.T[::-1, ::-1]


def decouple(r_hat: np.ndarray, layout: SensorLayout) -> np.ndarray:
    """The decoupled (Hadamard) covariance
    ``R_d = R * mirror_antidiagonal(R)`` elementwise.

    The identity that makes ``R_d`` range-free requires a symmetric layout.
    """
    u = layout.size
    if r_hat.shape != (u, u):
        raise ValueError(f"covariance shape {r_hat.shape} does not match U={u}")
    if not layout.is_symmetric:
        raise ValueError("decoupling requires a symmetric layout")
    return r_hat * mirror_antidiagonal(r_hat)


def vectorize_to_coarray(r_d: np.ndarray, layout: SensorLayout) -> np.ndarray:
    """Collapse a U x U matrix (``r_d``, or any) to one sample per lag of
    the ``smoothing_segment``, a zero-centred run, of the (cached)
    difference coarray of ``layout``, in ascending lag.

    Each sample is the mean of all the entries at that lag; pooling the
    redundant entries lowers the variance.  One ``np.bincount`` per real and
    imaginary part sums them, within a few ulps of a per-lag ``np.mean``.
    The segment lies inside the consecutive run, so every count is nonzero.
    """
    segment = difference_coarray(layout).smoothing_segment
    n = len(segment)
    g = np.asarray(layout.grid)
    lag = (g[:, None] - g[None, :]).ravel() - segment[0]
    # Lags outside the segment all fall in the extra last bin.
    index = np.where((lag >= 0) & (lag < n), lag, n)
    counts = np.bincount(index, minlength=n + 1)[:n]
    re = np.bincount(index, weights=r_d.real.ravel(), minlength=n + 1)[:n]
    im = np.bincount(index, weights=r_d.imag.ravel(), minlength=n + 1)[:n]
    return (re + 1j * im) / counts


def spatial_smooth(r_tilde: np.ndarray) -> np.ndarray:
    """Rank-restoring smoothing of the coarray vector: the paper's smoothed
    covariance, kept as the tests' reference for the Toeplitz split.

    A length 2W - 1 vector is split into W overlapping windows of W
    entries; the output is the average of the window outer products, a
    W x W Hermitian PSD matrix, ``T T^H / W`` for the Toeplitz ``T`` that
    :meth:`canf.music.Subspace.split_coarray` decomposes instead.  No stage
    and no CLI output uses it.
    """
    r = np.asarray(r_tilde)
    if r.ndim != 1 or r.size % 2 == 0:
        raise ValueError("coarray vector must be 1-D with odd length")
    w = (r.size + 1) // 2
    windows = sliding_window_view(r, w)
    return windows.T @ windows.conj() / w


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """Each covariance stage of the pipeline once: the range stage scans
    ``r_hat``, the angle stage decomposes the Toeplitz matrix of ``r_tilde``,
    and ``r_d`` is kept for diagnostics.  ``canf spectrum --dump-covariance``
    writes exactly these three."""

    r_hat: np.ndarray
    r_d: np.ndarray
    r_tilde: np.ndarray


def build_bundle(snapshots: SnapshotSet) -> CovarianceBundle:
    """Run the covariance chain on a snapshot set: the LS covariance
    (:func:`covariance_ls`, which needs the known source waveforms), its
    decoupling and the coarray vector of the snapshot layout, unsmoothed."""
    layout = snapshots.layout
    r_hat = covariance_ls(snapshots)
    r_d = decouple(r_hat, layout)
    return CovarianceBundle(r_hat, r_d, vectorize_to_coarray(r_d, layout))
