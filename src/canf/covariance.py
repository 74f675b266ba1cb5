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

Both initial estimates are one Gram product summed over blocks of
snapshots (:func:`_gram`).  Past one block, a helper thread makes the
products of the second half of the blocks while the caller makes the
first half; the caller adds every product in block order, so the estimate
is bitwise the one-thread sum.  The helper lives for one call, never in a
pool, so a process that forks workers has no pool thread to lose.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._helper import beside
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
    ``y / sqrt(x^H x)`` at half the cost.

    With two or more blocks, one helper thread (:func:`canf._helper.beside`)
    makes the products of the second half of the blocks, ``len(blocks) // 2``
    on, while the caller makes and sums the first half; BLAS runs without
    the GIL, so the halves run on two cores.  The helper keeps each of its
    products apart, and the caller adds them after its own, one by one in
    block order: a float sum depends on its order, and this is the order of
    one loop that adds each block's product to the sum of the blocks before
    it, so the result is bitwise that loop's whichever thread made a
    product.  The helper is started per call and joined before it returns,
    not kept in a pool, whose thread would not survive the fork of a worker
    process and, woken on a 2-core host, ran slower than a new thread
    (:mod:`canf._helper`).  With ``T <= _GRAM_BLOCK`` there is one block,
    no helper, and the result is bitwise the single product
    ``c @ c.conj().T``.

    A non-finite entry of ``c`` makes its row's diagonal entry
    ``sum |c|^2`` non-finite, so the U-entry diagonal stands in for an
    O(U T) scan.  The same check catches finite snapshots whose
    ``sum |c|^2`` overflows a float.  The arithmetic warnings either case
    raises on the way are silenced, in the helper too, since the check
    reports it.
    """
    n = y.shape[1]
    starts = range(0, n, _GRAM_BLOCK)
    half = len(starts) // 2

    def block_gram(start: int) -> np.ndarray:
        c = y[:, start : start + _GRAM_BLOCK]
        if weight is not None:
            c = c * weight[start : start + _GRAM_BLOCK]
        return c @ c.conj().T

    later: list[np.ndarray] = []

    def make_later() -> None:
        later.extend(map(block_gram, starts[half:]))

    with np.errstate(invalid="ignore", over="ignore"):
        with beside(make_later) if half else nullcontext():
            gram = block_gram(0)
            for start in starts[1:half]:
                gram += block_gram(start)
        for product in later:
            gram += product
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


def _layout_matrix(matrix, layout: SensorLayout) -> np.ndarray:
    """``matrix`` as an array; ValueError unless it is U x U for ``layout``."""
    a = np.asarray(matrix)
    u = layout.size
    if a.shape != (u, u):
        raise ValueError(f"covariance shape {a.shape} does not match U={u}")
    return a


def decouple(r_hat: np.ndarray, layout: SensorLayout) -> np.ndarray:
    """The decoupled (Hadamard) covariance
    ``R_d = R * mirror_antidiagonal(R)`` elementwise.

    The identity that makes ``R_d`` range-free requires a symmetric layout.
    """
    r_hat = _layout_matrix(r_hat, layout)
    if not layout.is_symmetric:
        raise ValueError("decoupling requires a symmetric layout")
    return r_hat * mirror_antidiagonal(r_hat)


@lru_cache(maxsize=64)
def _lag_bins(layout: SensorLayout) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, index, counts)`` of :func:`vectorize_to_coarray` on ``layout``:
    the ``n`` lags of the ``smoothing_segment``; the bin of each real and
    imaginary part of a raveled U x U matrix, interleaved as a complex array
    lies in memory, lag ``k`` at bins ``2k`` and ``2k + 1`` and a lag
    outside the segment at the two extra last bins; and how many entries
    each lag of the segment pools."""
    segment = difference_coarray(layout).smoothing_segment
    n = len(segment)
    g = np.asarray(layout.grid)
    lag = (g[:, None] - g[None, :]).ravel() - segment[0]
    lag = np.where((lag >= 0) & (lag < n), lag, n)
    index = (2 * lag[:, None] + np.array([0, 1])).ravel()
    counts = np.bincount(lag, minlength=n + 1)[:n]
    for shared in (index, counts):
        shared.flags.writeable = False
    return n, index, counts


def vectorize_to_coarray(r_d: np.ndarray, layout: SensorLayout) -> np.ndarray:
    """Collapse a U x U matrix (``r_d``, or any) to one sample per lag of
    the ``smoothing_segment``, a zero-centred run, of the (cached)
    difference coarray of ``layout``, in ascending lag.

    Each sample is the mean of all the entries at that lag; pooling the
    redundant entries lowers the variance.  The lag bins are fixed by the
    layout and cached with it; one ``np.bincount`` over the matrix's
    interleaved real and imaginary parts sums both, each bin in entry
    order, within a few ulps of a per-lag ``np.mean``.  The segment lies
    inside the consecutive run, so every count is nonzero.  ValueError
    unless the matrix is U x U.
    """
    a = _layout_matrix(r_d, layout)
    n, index, counts = _lag_bins(layout)
    parts = np.ascontiguousarray(a, dtype=complex).view(float).ravel()
    sums = np.bincount(index, weights=parts, minlength=2 * n + 2)
    return sums.view(complex)[:n] / counts


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
