"""Two-phase MUSIC as one sequence of stages, each computed once.

:func:`two_phase` runs them: covariance bundle; one :class:`Subspace` split
each of the smoothed coarray covariance (:meth:`Subspace.split_coarray`) and
the initial covariance ``r_hat``; angle scan on the noise subspace of the
former, whose peaks hold the true angles plus "cross" angles from target
pairs; the angle-peak stage (:func:`detect_peaks`); then the range phase,
one ``(C, R)`` array from scan to result: one range scan of every candidate
angle at once on the noise subspace of ``r_hat``, and a true/cross verdict
per row (true angles give significant range peaks inside the near-field
region, cross angles do not).  :func:`localize` runs the stages on the whole
array, and the schemes in :mod:`canf.baselines` are compositions of them.
The two scan stages are :func:`angle_spectrum` and :func:`range_spectrum`:
each takes a :class:`Subspace` already split from its covariance, so a
covariance is decomposed once however many scans read it, and they are the
only code that pairs a steering manifold with a subspace.

Both scans use the mirror symmetry of the symmetric array:

- ``T`` is the Hermitian Toeplitz matrix of a conjugate-symmetric coarray
  vector, so it is centro-Hermitian, ``J T J = conj(T)``.  The sparse
  unitary ``Q`` of the unitary-transformation method (Huarng & Yeh, IEEE
  Trans. ASSP 1991; used by Unitary ESPRIT, Haardt & Nossek 1995, and
  unitary root-MUSIC, Pesavento, Gershman & Haardt 2000) maps it to the
  real symmetric ``S = Re(Q^H T Q)`` with the same eigenvalues, and maps
  the centred ULA steering vector to a real one.  The angle stage
  decomposes and scans in real arithmetic, and the real row of ``-theta``
  is that of ``theta`` with its sine half negated, so the scan of an
  antisymmetric angle grid projects the upper half only.  Each entry of
  ``S`` is one or two coarray samples, so :meth:`Subspace.split_coarray`
  gathers ``S`` from the vector by a table fixed per size, forming neither
  ``T`` nor ``Q``; the tests keep the product ``Re(Q^H T Q)`` as the
  reference it is checked on.
- In the range manifold ``exp(1j * (p + q))`` the linear phase ``p`` is odd
  and the Fresnel phase ``q`` even in the sensor position, so a mirror pair
  shares one ``exp(1j * q)``.  The range stage folds the signal basis per
  candidate angle onto the ``F`` distinct ``|g|`` (19 of the 37 sensors of
  the (9, 11) array) and never builds the full manifold.  ``q`` grows as
  ``g^2``, so along each arithmetic run ``|g| = s * m`` of the folded
  sensors (``9 * (1..10)`` and ``11 * (1..8)`` for the (9, 11) array, one
  run ``1 * m`` for a uniform array) ``exp(1j * q)`` is the discrete chirp
  ``w^(m^2)`` of Bluestein's chirp-z transform (Rabiner, Schafer & Rader
  1969).  The range stage fills it by two complex products per element, with
  one exact cos/sin per run and range instead of one per folded sensor.

Every scan measures the noise-subspace power of steering vectors of norm
``sqrt(W)`` by projecting them onto the signal subspace alone, as
``1 - ||U_s^H a||^2 / W``; rows near cancellation are recomputed as the
norm of the residual ``a - U_s U_s^H a`` (:meth:`Subspace.scan`).  The
noise basis is never read.

Each phase finds its peaks in one pass of the row-wise peak finder
(:func:`_row_peaks`): the angle stage on its one spectrum
(:func:`detect_peaks`, grid endpoints never peaks), the range stage on the
spectra of all candidates at once (:func:`classify_range_spectrum`, grid
endpoints always peaks).  Each row's peaks are those of
``scipy.signal.find_peaks`` on that row alone, with the same
``prominence`` and ``distance``, bit for bit; the tests keep that function
as the oracle, and the package does not import it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce

import numpy as np

from .channel import SnapshotSet, fresnel_phase_terms
from .covariance import CovarianceBundle, build_bundle
from .geometry import SensorLayout, _integer, _real, difference_coarray

__all__ = [
    "Subspace",
    "SpectrumGrid",
    "Peak",
    "PseudoSpectrum",
    "MusicConfig",
    "ClassifiedTarget",
    "LocalizationResult",
    "eig_hermitian",
    "angle_spectrum",
    "detect_peaks",
    "range_spectrum",
    "classify_range_spectrum",
    "two_phase",
    "localize",
]

_DENOM_FLOOR = 1e-300

PEAK_PROMINENCE_DB = 1.0  # least prominence of an angle or range peak
SIGNIFICANCE_DB = 10.0  # range-peak height that labels its angle true
MIN_ANGLE_SEPARATION_DEG = 0.5  # closer angle peaks ride on one lobe
CANCELLATION_FLOOR = 1e-3  # least noise power trusted from the signal basis
CHIRP_RESTART = 16  # run elements per exact cos/sin restart of a Fresnel chirp
MAX_GRID_ENTRIES = 2**26  # most entries of a grid axis or of a scan (MusicConfig.plan)


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix, descending order.

    The input must be square, non-empty, Hermitian within
    ``1e-9 * |trace|`` and free of non-finite entries.  One pass over
    ``A - A^H`` measures the gap: a non-finite entry makes it non-finite,
    which fails, so the finite scan runs only on a failed gap, to name the
    fault.  An exactly Hermitian
    input (the covariances and the :meth:`Subspace.split_coarray` matrix
    are built so) is decomposed as it is, bitwise what ``(A + A^H)/2`` would
    give; any other is symmetrized so first.  A real input (such as the
    ``S = Re(Q^H T Q)`` of :meth:`Subspace.split_coarray`) is decomposed by
    the real symmetric solver and gives real eigenvectors.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        raise ValueError("matrix is empty: expected at least one row")
    with np.errstate(invalid="ignore"):  # inf - inf: the gap check reports it
        gap = float(np.max(np.abs(a - a.conj().T)))
        scale = max(abs(np.trace(a)), 1.0)
    if not (math.isfinite(gap) and gap <= 1e-9 * scale):
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = a if gap == 0.0 else 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(sym)
    return w[::-1], v[:, ::-1]


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """Search grids as read-only float arrays: angles in degrees, ranges in meters.

    :meth:`for_layout` is cached: equal arguments return the same grid.  It
    rejects steps that would put more than ``MAX_GRID_ENTRIES //
    layout.size`` points on an axis, before it allocates either one;
    :meth:`MusicConfig.plan`, its one caller in the package, also bounds
    what the scans of K targets build over the axes.
    """

    angle_deg: np.ndarray
    range_m: np.ndarray

    def __post_init__(self) -> None:
        for name in ("angle_deg", "range_m"):
            axis = np.array(getattr(self, name), dtype=float)
            if axis.ndim != 1 or axis.size == 0 or not np.all(np.diff(axis) > 0.0):
                raise ValueError("grids must be non-empty, 1-D and strictly increasing")
            axis.flags.writeable = False
            object.__setattr__(self, name, axis)
        if self.angle_deg[0] <= -90.0 or self.angle_deg[-1] >= 90.0:
            raise ValueError("angle grid must lie inside (-90, 90) degrees")

    @classmethod
    @lru_cache(maxsize=16)
    def for_layout(
        cls, layout: SensorLayout, angle_step_deg: float, range_step_m: float
    ) -> "SpectrumGrid":
        z_f, z_r = layout.fresnel_distance, layout.rayleigh_distance
        # Counted as floats, which hold the count of any step, 1e-300 included.
        n_a = np.round((180.0 - 2.0 * angle_step_deg) / angle_step_deg) + 1.0
        n_r = max(np.floor((z_r - z_f) / range_step_m) + 1.0, 2.0)
        limit = MAX_GRID_ENTRIES // layout.size
        for name, step, n in (
            ("angle_step_deg", angle_step_deg, n_a),
            ("range_step_m", range_step_m, n_r),
        ):
            if not n <= limit:
                raise ValueError(
                    f"{name}={step!r} gives {n:.6g} grid points, more than the "
                    f"{limit} that {layout.size} sensors allow"
                )
        angles = np.linspace(-90.0 + angle_step_deg, 90.0 - angle_step_deg, int(n_a))
        # The lower half mirrors the upper exactly, so the angle scan builds
        # and projects only the upper half's rows (angle_spectrum).
        half = int(n_a) // 2
        angles[:half] = -angles[::-1][:half]
        ranges = z_f + range_step_m * np.arange(int(n_r))
        return cls(angles, ranges)


@dataclass(frozen=True)
class Peak:
    """One detected spectrum peak (location refined off-grid when interior)."""

    location: float
    height_db: float
    prominence_db: float
    index: int


@dataclass(frozen=True, eq=False)
class PseudoSpectrum:
    """A MUSIC pseudospectrum: reciprocal noise-subspace projection.

    ``values`` holds one spectrum over ``axis`` per leading index: 1-D for
    one scan, ``(C, R)`` for the range scans of ``C`` candidates.
    """

    axis: np.ndarray
    values: np.ndarray

    @property
    def db(self) -> np.ndarray:
        return 10.0 * np.log10(self.values)


@dataclass(frozen=True, eq=False)
class Subspace:
    """One eigendecomposition, split into the top ``rank`` eigenvectors (the
    signal subspace) and the rest (the noise subspace), ``0 < rank < n``."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        n = self.eigvals.size
        if not (0 < self.rank < n):
            raise ValueError(f"signal rank must satisfy 0 < rank < {n}, got {self.rank}")

    @classmethod
    def split(cls, matrix: np.ndarray, rank: int) -> "Subspace":
        """Decompose ``matrix`` once and keep its top ``rank`` eigenvectors as signal."""
        return cls(*eig_hermitian(matrix), rank)

    @classmethod
    def split_coarray(cls, r_tilde: np.ndarray, rank: int) -> "Subspace":
        """The split of the paper's smoothed covariance of a conjugate-symmetric
        coarray vector of length ``2W - 1``, without forming it.

        That covariance, :func:`canf.covariance.spatial_smooth`, which only
        the tests form as this split's reference, is ``T T^H / W`` for the
        Hermitian Toeplitz ``T[i, j] = r_tilde[W - 1 + i - j]`` (Pal &
        Vaidyanathan, IEEE TSP 2010; Liu & Vaidyanathan, IEEE SPL 2015), so
        one decomposition of the real symmetric ``S = Re(Q^H T Q)`` gives its
        eigenvectors without squaring the condition number.  Signal
        eigenvalues of ``T`` may be negative: the eigenpairs are ordered by
        ``lam_T^2`` and ``eigvals`` holds ``lam_T^2 / W``, the smoothed
        matrix's eigenvalues.

        ``T`` is never formed: each entry of ``S`` is one or two coarray
        samples, so ``S`` is one gather from the vector by a table cached
        per W if it holds at most ``MAX_GRID_ENTRIES // 16`` entries.  With
        ``c = W - 1``, ``n = W // 2``, ``rho_l = Re r[c + l]`` and ``iota_l =
        Im r[c + l]`` (``rho`` even and ``iota`` odd in ``l``), ``l1 = i - j``
        and ``l2 = i + j - c`` for ``i, j < n``::

            S[i, j]             = rho_l1 + rho_l2
            S[W-n+i, W-n+j]     = rho_l1 - rho_l2
            S[W-n+i, j]         = iota_l1 + iota_l2
            S[i, W-n+j]         = iota_l2 - iota_l1

        and for odd W also ``S[n, n] = rho_0``, ``S[n, j] = S[j, n] =
        sqrt(2) rho_(n-j)`` and ``S[n, W-n+j] = S[W-n+j, n] = -sqrt(2)
        iota_(n-j)``.  The samples read are those of the conjugate-symmetric
        part of ``r_tilde``, each lag averaged with the conjugate of its
        mirror, so ``S`` is exactly symmetric.  ``r_tilde`` must be
        conjugate-symmetric within ``1e-9 * max(W |r_tilde[c]|, 1)``: that
        is ``T`` centro-Hermitian within ``1e-9 * |trace|``, the tolerance
        :func:`eig_hermitian` allows on Hermiticity, since the trace is ``W
        r_tilde[c]`` and the differences ``J T J - conj(T)`` are exactly
        those of ``r_tilde[::-1] - conj(r_tilde)``.
        """
        r = np.asarray(r_tilde)
        if r.ndim != 1 or r.size % 2 == 0:
            raise ValueError("coarray vector must be 1-D with odd length")
        w = (r.size + 1) // 2
        c = w - 1
        # A NaN difference (from a NaN, or from inf and its mirror) passes
        # the check, and eig_hermitian names the non-finite sample.
        with np.errstate(invalid="ignore"):
            if np.max(np.abs(r[::-1] - r.conj())) > 1e-9 * max(w * abs(r[c]), 1.0):
                raise ValueError("matrix is not centro-Hermitian within tolerance")
            ahead, behind = r[c:], r[c::-1]
            rho = 0.5 * (ahead.real + behind.real)
            iota = 0.5 * (ahead.imag - behind.imag)
            samples = np.concatenate(
                (rho, iota, -iota, -rho, _SQRT2 * rho, -_SQRT2 * iota, [0.0])
            )
            # The cache keeps 16 tables, so together they hold at most one scan cap.
            cached = 2 * w * w <= MAX_GRID_ENTRIES // 16
            table = _real_toeplitz_table if cached else _real_toeplitz_table.__wrapped__
            pair = samples[table(w)]
            s = pair[0] + pair[1]
        lam, eigvecs = eig_hermitian(s)
        power = lam**2 / w
        order = np.argsort(-power, kind="stable")
        return cls(power[order], eigvecs[:, order], rank)

    def scan(
        self,
        axis: np.ndarray,
        manifold: np.ndarray,
        fold: np.ndarray | None = None,
        mirrored: int = 0,
    ) -> PseudoSpectrum:
        """1 / normalized noise-subspace power of each manifold row, over ``axis``.

        ``manifold`` is ``(A, W)`` in the basis of the decomposed matrix, one
        row per entry of ``axis`` (but see ``mirrored``).  With ``fold``
        (``(..., F, W)``), ``manifold`` is ``(..., R, F)``, the values take
        its leading shape, and row ``r`` of spectrum ``c`` stands for the
        length-W vector ``manifold[c, r] @ fold[c]``: the signal
        basis is folded to ``fold @ U_s`` instead of the manifold being
        unfolded (the range stage's mirror pairs).  Every steering vector
        here has ``||a||^2 = W``: ``exp(1j * phase)`` in the range stage, and
        in the angle stage the real ``Q^H a`` of a centred one (``Q`` the
        unitary of Huarng & Yeh 1991 that makes ``S = Re(Q^H T Q)``).  So its
        noise power ``||(I - U_s U_s^H) a||^2 / W`` equals
        ``1 - ||U_s^H a||^2 / W``, and the scan projects onto the signal
        basis ``U_s`` only.  Near a peak that difference cancels to roundoff,
        so each row below :data:`CANCELLATION_FLOOR` is recomputed as the
        norm of its residual ``a - U_s (U_s^H a)``, from the coefficients the
        projection already holds; with ``fold``, its ``a`` is unfolded first.
        The noise columns ``eigvecs[:, rank:]`` are never read.

        Without ``fold``, ``manifold`` is ``(A - mirrored, W)``, the rows of
        ``axis[mirrored:]``, and the projection is summed as two products,
        over the first ``W - W // 2`` entries of each row and over the rest,
        the sine block of the angle stage's real rows.  Entry ``i <
        mirrored`` of ``axis``, which must be ``-axis[A - 1 - i]``, stands
        for the row of ``axis[A - 1 - i]`` with its sine block negated, so
        its projection is the difference of the two products instead of
        their sum.
        """
        w = self.eigvecs.shape[0]
        signal = self.eigvecs[:, : self.rank]
        if fold is None:
            # A sensor-major manifold (the angle stage's) is read along its
            # rows by the (r, W) x (W, A) products.
            sine = w - w // 2
            columns = manifold.T
            even = signal[:sine].conj().T @ columns[:sine]
            odd = signal[sine:].conj().T @ columns[sine:]
            proj = np.concatenate(((even - odd)[:, ::-1][:, :mirrored], even + odd), axis=1).T
        else:
            proj = manifold @ (fold @ signal.conj())
        denom = 1.0 - _row_power(proj) / w
        near = denom < CANCELLATION_FLOOR
        for c in np.ndindex(near.shape[:-1]):
            rows = near[c]
            if rows.any():
                if fold is None:
                    j = np.flatnonzero(rows)
                    flip = j < mirrored
                    a = manifold[np.where(flip, manifold.shape[0] - 1 - j, j - mirrored)]
                    a[flip, sine:] *= -1.0
                else:
                    a = manifold[c][rows] @ fold[c]
                denom[c][rows] = _row_power(a - proj[c][rows] @ signal.T) / w
        values = 1.0 / np.maximum(denom, _DENOM_FLOOR)
        return PseudoSpectrum(axis, values)


_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=16)
def _real_toeplitz_table(w: int) -> np.ndarray:
    """The ``(2, W, W)`` gather table of :meth:`Subspace.split_coarray`.

    It indexes the samples ``[rho, iota, -iota, -rho, sqrt(2) rho,
    -sqrt(2) iota, 0]``, each block ``W`` long over the lags ``0 .. W - 1``,
    so that ``S = samples[table[0]] + samples[table[1]]``; an entry of one
    sample adds the trailing 0.  ``table[:, i, j]`` and ``table[:, j, i]``
    name the same two samples, so ``S`` is exactly symmetric.
    """
    c, n = w - 1, w // 2
    b = w - n  # the first row of the sine block
    rho, iota, neg_iota, neg_rho, rho2, neg_iota2, zero = (k * w for k in range(7))
    i, j = np.ogrid[:n, :n]
    l1, l2 = i - j, i + j - c

    def odd(l):  # the index of iota_l, which is odd in l
        return np.where(l >= 0, iota + l, neg_iota - l)

    table = np.full((2, w, w), zero)
    table[:, :n, :n] = rho + abs(l1), rho + abs(l2)
    table[:, b:, b:] = rho + abs(l1), neg_rho + abs(l2)
    table[:, b:, :n] = odd(l1), odd(l2)
    table[:, :n, b:] = odd(l2), odd(-l1)
    if w % 2:
        m = n - np.arange(n)
        table[0, n, n] = rho
        table[0, n, :n] = table[0, :n, n] = rho2 + m
        table[0, n, b:] = table[0, b:, n] = neg_iota2 + m
    table.flags.writeable = False
    return table


def _row_power(proj: np.ndarray) -> np.ndarray:
    """Squared norm along the last axis."""
    return np.einsum("...j,...j->...", proj, proj.conj()).real


@lru_cache(maxsize=16)
def _real_angle_manifold(
    w: int, unit: float, wavelength: float, position_scale: float, grid_bytes: bytes
) -> np.ndarray:
    """``Q^H a`` of the centred W-element ULA manifold, one row per angle:
    ``[sqrt(2) cos(psi), 1 (odd W only), sqrt(2) sin(psi)]`` with ``psi`` the
    phases of the first ``W // 2`` elements.

    The cached array is sensor-major, a read-only C-contiguous ``(W, A)``
    filled in place; the ``(A, W)`` transposed view is returned.
    """
    grid_deg = np.frombuffer(grid_bytes, dtype=float)
    n = w // 2
    centred = position_scale * unit * (np.arange(n) - 0.5 * (w - 1))
    psi = -2.0 * np.pi / wavelength * np.outer(centred, np.sin(np.deg2rad(grid_deg)))
    manifold = np.empty((w, grid_deg.size))
    cos, middle, sin = manifold[:n], manifold[n : w - n], manifold[w - n :]
    np.cos(psi, out=cos)
    cos *= math.sqrt(2.0)
    middle[:] = 1.0
    np.sin(psi, out=sin)
    sin *= math.sqrt(2.0)
    manifold.flags.writeable = False
    return manifold.T


def angle_spectrum(
    virtual: Subspace,
    unit: float,
    wavelength: float,
    angle_grid_deg,
    position_scale: float = 2.0,
) -> PseudoSpectrum:
    """Angle-domain MUSIC scan of a split virtual covariance.

    ``virtual`` must be real, as :meth:`Subspace.split_coarray` gives it.
    The scan is of the W-element virtual ULA ``exp(-2j pi / wavelength *
    position_scale * unit * k * sin(theta))``, ``k = 0 .. W-1``:
    ``position_scale=2`` gives the doubled-position manifold the decoupled
    covariance lives on, ``position_scale=1`` the plain physical-lag
    manifold of far-field coarray processing.  Centring the positions on the
    array changes each row by a unit phase only, and ``Q^H`` maps the
    centred row to the real row ``[sqrt(2) cos(psi), 1 (odd W only),
    sqrt(2) sin(psi)]`` the scan uses, so the scan is real matrix
    arithmetic: the unitary-transformation method of Huarng & Yeh (IEEE
    Trans. ASSP 1991).  On a grid that is exactly antisymmetric, as
    :meth:`SpectrumGrid.for_layout` builds it, only the rows of the upper
    half are built and projected: ``sin`` is odd, so the row of ``-theta``
    is the row of ``theta`` with its sine block negated
    (:meth:`Subspace.scan` with ``mirrored``).  The manifold is built
    sensor-major, as a ``(W, A')`` array over the ``A'`` angles it holds,
    cached per grid if it holds at most ``MAX_GRID_ENTRIES // 16`` entries,
    and projected as ``(r, W) x (W, A')``, which reads it along its rows.
    ``unit`` is the coarray lag step in meters.
    Peak locations are invariant to any positive scaling of the coarray
    vector.
    """
    if np.iscomplexobj(virtual.eigvecs):
        raise ValueError("angle_spectrum scans a real subspace (Subspace.split_coarray)")
    grid = np.ascontiguousarray(np.asarray(angle_grid_deg, dtype=float))
    w = virtual.eigvals.size
    # sin is odd: on an antisymmetric grid the row of -theta is the row of
    # theta with its sine block negated, and only the upper half is built.
    half = grid.size // 2
    mirrored = half if np.array_equal(grid[:half], -grid[::-1][:half]) else 0
    built = grid[mirrored:]
    # The cache keeps 16 manifolds, so together they hold at most one scan cap.
    cached = w * built.size <= MAX_GRID_ENTRIES // 16
    build = _real_angle_manifold if cached else _real_angle_manifold.__wrapped__
    manifold = build(w, float(unit), float(wavelength), float(position_scale), built.tobytes())
    return virtual.scan(grid, manifold, mirrored=mirrored)


_NEIGHBOURS = np.array([-1, 0, 1])  # a peak's column offsets for its parabolic fit


def _refine_parabolic(
    db: np.ndarray, row: np.ndarray, col: np.ndarray, axis: np.ndarray
) -> np.ndarray:
    """3-point parabolic vertex around each peak ``db[row, col]``, in axis
    units; a grid endpoint, or a fit that opens upward, keeps the grid point.

    The few values each peak needs are gathered in one indexing step, and
    the fit runs in Python floats, the same IEEE operations as the array
    form at a fraction of its call overhead for a handful of peaks.
    """
    last = axis.size - 1
    near = np.clip(col[:, None] + _NEIGHBOURS, 0, last)
    loc = []
    for (y0, y1, y2), (x0, x1, x2), i in zip(
        db[row[:, None], near].tolist(), axis[near].tolist(), col.tolist()
    ):
        denom = y0 - 2.0 * y1 + y2
        if not (0 < i < last and denom < 0.0 and math.isfinite(denom)):
            loc.append(float(x1))
            continue
        delta = 0.5 * (y0 - y2) / denom
        if delta > 1.0:
            delta = 1.0
        elif delta < -1.0:
            delta = -1.0
        loc.append(x1 + delta * (x2 - x1 if delta >= 0 else x1 - x0))
    return np.array(loc, dtype=float)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Positions of the local maxima of ``x``.

    A maximum is a step up followed, after any level steps, by a step down,
    and sits at the middle of its plateau, rounded down.  Only comparisons
    are made, so infinite samples are fine.
    """
    a, b = x[:-1], x[1:]
    up, down = b > a, b < a
    steps = np.flatnonzero(up | down)
    first, second = steps[:-1], steps[1:]
    peak = up[first] & down[second]
    return (first[peak] + 1 + second[peak]) // 2


def _prominences(heights: list[float], valleys: list[float]) -> list[float]:
    """The prominences of a run of maxima, by one monotone-stack pass.

    ``heights[k]`` is the ``k``-th maximum and ``valleys[k]`` the least
    sample from it up to the next; the first and last entries, and any
    entry bounding a row, are ``+inf`` and get no prominence.  A
    prominence is the height over the higher of its two bases, the least
    sample on each side before the first strictly higher one.  Every sample
    from that one out to the nearest strictly higher *maximum* is higher
    than the peak too, so each base is the least of the valleys between the
    peak and that maximum.  The stack keeps the entries not yet passed by a
    higher one, each with the least valley from it up to the entry above;
    an entry popped by a higher one has both its bases.
    """
    size = len(heights)
    prominence = [0.0] * size
    left = [0.0] * size  # each entry's left base
    stack = [0]
    below = []  # below[k]: least valley from stack[k] up to stack[k + 1]
    run = valleys[0]  # least valley from the top entry up to the current one
    top, h_top = 0, heights[0]
    for i in range(1, size):
        h = heights[i]
        while h_top < h:
            stack.pop()
            base = left[top]
            prominence[top] = h_top - (base if base > run else run)
            v = below.pop()
            if v < run:
                run = v
            top = stack[-1]
            h_top = heights[top]
        # An equal entry shares the nearest strictly higher one on the left.
        base = left[top]
        left[i] = base if h_top == h and base < run else run
        below.append(run)
        stack.append(i)
        run = valleys[i]
        top, h_top = i, h
    return prominence


def _spaced(pos: np.ndarray, height: np.ndarray, distance: int) -> np.ndarray:
    """The peak-distance rule on the maxima of one row.

    Highest first, in ``np.argsort`` order so that ties fall as in the
    module docstring's reference, each maximum still kept drops the others
    closer than ``distance`` samples.  One with no other that close is kept
    and drops none, so only the rest are visited.
    """
    close = np.diff(pos) < distance
    keep = np.ones(pos.size, dtype=bool)
    if not close.any():
        return keep
    crowded = np.zeros(pos.size, dtype=bool)
    crowded[1:] = close
    crowded[:-1] |= close
    order = np.argsort(height)[::-1]
    p = pos.tolist()
    dropped = set()
    for j in order[crowded[order]].tolist():
        if j in dropped:
            continue
        k = j - 1
        while k >= 0 and p[j] - p[k] < distance:
            dropped.add(k)
            k -= 1
        k = j + 1
        while k < len(p) and p[k] - p[j] < distance:
            dropped.add(k)
            k += 1
    keep[list(dropped)] = False
    return keep


def _row_peaks(
    db: np.ndarray, axis: np.ndarray, include_edges: bool, distance: int | None = None
) -> tuple[np.ndarray, ...]:
    """The peaks of every row of a ``(C, R)`` array of finite dB values, in
    one pass over the rows laid end to end.

    Each row is laid out as ``[+inf, pad, row, pad]``, ``pad`` being
    ``-inf`` when the grid endpoints count as peaks and absent otherwise,
    and one more ``+inf`` closes the last row.  Nothing in a row is as high
    as a ``+inf`` bound, so no plateau crosses one, and each bound stops
    the prominence bases' search (:func:`_prominences`) where the end of a
    single row would; the bounds between rows are maxima themselves and are
    dropped by position.  Peaks are the local maxima
    (:func:`_local_maxima`) at least :data:`PEAK_PROMINENCE_DB` prominent
    and, with ``distance``, spaced by :func:`_spaced`; the two rules
    commute, as a prominence is read from the samples, not from the other
    peaks.

    Returns ``(row, index, location, height, prominence)`` arrays, ordered
    by row and within a row by ``(-height, location)``, ties in the order
    of ``index``: each row's peaks as the module docstring's reference,
    run on that row alone, gives them, bit for bit.  ``distance`` is
    allowed for one row only.
    """
    c, r = db.shape
    if distance is not None and c > 1:
        raise ValueError("a peak distance applies to a single row only")
    pad = 1 if include_edges else 0
    stride = r + 2 * pad + 1
    laid = np.empty(c * stride + 1)
    rows = laid[:-1].reshape(c, stride)
    rows[:, 0] = np.inf
    laid[-1] = np.inf
    if pad:
        rows[:, 1] = -np.inf
        rows[:, -1] = -np.inf
    rows[:, 1 + pad : 1 + pad + r] = db
    pos = _local_maxima(laid)
    begins = np.concatenate(([0], pos, [laid.size - 1]))
    heights = laid[begins]
    valleys = np.minimum.reduceat(laid, begins)
    prominence = np.array(_prominences(heights.tolist(), valleys.tolist())[1:-1])
    row, col = np.divmod(pos, stride)
    keep = (col > 0) & (prominence >= PEAK_PROMINENCE_DB)
    if distance is not None:
        keep &= _spaced(pos, heights[1:-1], distance)
    row, col, prominence = row[keep], col[keep] - 1 - pad, prominence[keep]
    height = db[row, col]
    location = _refine_parabolic(db, row, col, axis)
    order = np.lexsort((location, -height, row))
    return row[order], col[order], location[order], height[order], prominence[order]


def detect_peaks(spectrum: PseudoSpectrum, max_count: int | None = None) -> list[Peak]:
    """The angle-peak stage: up to ``max_count`` local maxima at least
    :data:`PEAK_PROMINENCE_DB` prominent, strongest first, each located by a
    parabolic fit through its neighbours.

    The one-row case of the stage's row-wise peak finder (see the module
    docstring).  ``spectrum`` must hold one 1-D spectrum.  Peaks closer than
    :data:`MIN_ANGLE_SEPARATION_DEG` ride on one lobe, and only the highest
    is kept; the grid endpoints never count as peaks.  Ties in height are
    broken by ascending axis location.  ``max_count``, if given, must be an
    integer (:func:`canf.geometry._integer`) of at least 0.
    """
    if max_count is not None and _integer("max_count", max_count) < 0:
        raise ValueError(f"max_count must be None or at least 0, got {max_count!r}")
    y = spectrum.db
    if y.ndim != 1:
        raise ValueError("detect_peaks takes one 1-D spectrum")
    distance = None
    if spectrum.axis.size > 1:
        step = float(spectrum.axis[1] - spectrum.axis[0])
        distance = max(int(round(MIN_ANGLE_SEPARATION_DEG / step)), 1)
    found = _row_peaks(y[None], spectrum.axis, False, distance)
    index, location, height, prominence = (a[:max_count].tolist() for a in found[1:])
    return [
        Peak(location=x, height_db=h, prominence_db=p, index=i)
        for x, h, p, i in zip(location, height, prominence, index)
    ]


@dataclass(frozen=True, eq=False)
class _ChirpPlan:
    """The folded sensors of a layout grid, split into arithmetic runs of ``|g|``.

    ``first[f]`` is a sensor at the ``f``-th distinct ``|g|`` and
    ``unfold[u]`` the fold index of sensor ``u``.  ``runs`` holds one
    ``(s, M)`` per run ``|g| = s * m``, ``m = 1 .. M``, longest first, and
    ``index[j, m - 1]`` is the fold index of element ``m`` of run ``j``.
    ``zero`` is the fold index of ``g = 0``, or None.
    """

    first: np.ndarray
    unfold: np.ndarray
    zero: int | None
    runs: tuple[tuple[int, int], ...]
    index: np.ndarray


@lru_cache(maxsize=64)
def _chirp_plan(grid: tuple[int, ...]) -> _ChirpPlan:
    """Split the distinct ``|g|`` of ``grid`` into runs ``s * (1 .. M)``, each
    from the least ``|g|`` not yet covered, as long as the grid allows."""
    mags, first, unfold = np.unique(np.abs(grid), return_index=True, return_inverse=True)
    fold_of = {int(g): f for f, g in enumerate(mags)}
    left = set(fold_of) - {0}
    runs = []
    while left:
        s = min(left)
        m = 1
        while s * m in left:
            left.discard(s * m)
            m += 1
        runs.append([fold_of[s * i] for i in range(1, m)])
    runs.sort(key=len, reverse=True)
    longest = len(runs[0]) if runs else 0
    index = np.zeros((len(runs), longest), dtype=int)
    for j, run in enumerate(runs):
        index[j, : len(run)] = run
    for shared in (first, unfold, index):
        shared.flags.writeable = False
    return _ChirpPlan(
        first=first,
        unfold=unfold,
        zero=fold_of.get(0),
        runs=tuple((int(mags[run[0]]), len(run)) for run in runs),
        index=index,
    )


def _cis(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(1j * phase)``, bit for bit, at half the cost of the complex exp."""
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _fresnel_chirp(plan: _ChirpPlan, q_unit: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``exp(1j * q_unit / r)`` for every range ``r`` of ``grid``: ``(..., R, F)``
    from the ``(..., F)`` Fresnel phases at ``r = 1`` of the folded sensors.

    Along a run ``|g| = s * m`` the phase is ``q_1 m^2``, so element ``m`` is
    ``w^(m^2)`` with ``w = exp(1j * q_1)``: each next element costs two
    complex products, ``cur *= inc`` and ``inc *= w^2`` with ``inc =
    w^(2m + 1)``.  Every :data:`CHIRP_RESTART` elements both restart from
    exact cos/sin, which bounds the roundoff for any array size.  ``w`` and
    each restart's element take the phase ``q_unit / r`` that the direct
    evaluation would.
    """
    q = np.moveaxis(q_unit, -1, 0)[..., None]
    out = np.empty(q.shape[:-1] + grid.shape, dtype=complex)
    if plan.zero is not None:
        out[plan.zero] = 1.0
    if not plan.runs:
        return np.moveaxis(out, 0, -1)
    q_1 = q[plan.index[:, 0]] / grid
    cur = _cis(q_1)
    w2 = cur * cur
    inc = cur * w2
    out[plan.index[:, 0]] = cur
    for m in range(2, plan.index.shape[1] + 1):
        k = sum(length >= m for _, length in plan.runs)
        c, i = cur[:k], inc[:k]
        if m % CHIRP_RESTART == 0:
            _cis(q[plan.index[:k, m - 1]] / grid, out=c)
            _cis(q_1[:k] * (2 * m + 1), out=i)
        else:
            c *= i
            i *= w2[:k]
        out[plan.index[:k, m - 1]] = c
    return np.moveaxis(out, 0, -1)


def range_spectrum(
    initial: Subspace, layout: SensorLayout, theta_deg, range_grid_m
) -> PseudoSpectrum:
    """Range-domain MUSIC scan of a split initial covariance at fixed angles.

    ``theta_deg`` is a scalar, giving one spectrum, or a 1-D array of
    candidate angles, giving one spectrum per candidate (values ``(C, R)``).
    The scan runs on the quadratic-phase (Fresnel) manifold
    ``exp(1j * (p + q))`` the range stage is derived on; snapshots
    synthesized with exact spherical wavefronts are scanned with that
    approximation's model error.  ``p`` is odd and ``q`` even in the sensor
    position, so each basis is folded per angle onto the ``F`` distinct
    ``|g|`` (a mirror pair's rows weighted by ``exp(+-1j * p)``), and only
    the ``(C, R, F)`` factor ``exp(1j * q)`` is built.  It is filled as a
    chirp along each arithmetic run of ``|g|`` (cached per layout grid), so
    cos/sin are evaluated once per (candidate, range, run) and restart,
    not once per folded sensor; the chirp is within 1e-13 of the direct
    ``exp(1j * q)``.
    """
    grid = np.asarray(range_grid_m, dtype=float)
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    plan = _chirp_plan(layout.grid)
    # q scales as 1 / r: evaluate both terms at r = 1, then q per range.
    p, q_unit = fresnel_phase_terms(layout, theta[..., None], 1.0)
    fold = np.zeros(theta.shape + (plan.first.size, layout.size), dtype=complex)
    fold[..., plan.unfold, np.arange(layout.size)] = np.exp(1j * p)
    manifold = _fresnel_chirp(plan, q_unit[..., plan.first], grid)
    return initial.scan(grid, manifold, fold)


@dataclass(frozen=True)
class MusicConfig:
    """The grid steps of the two-phase estimator.

    ``angle_step_deg`` and ``range_step_m`` are the steps of
    :meth:`SpectrumGrid.for_layout`.  The target count K is not a knob:
    :meth:`plan` reads it from the known waveforms, one row of the
    snapshots' ``x`` per target, and ``k_targets``, if given, must equal
    it.  K sets the subspace ranks and the number of angle candidates (see
    :func:`two_phase`).  The rest of the chain is fixed: the LS covariance,
    per-lag averaging, the coprime smoothing segment,
    :meth:`Subspace.split_coarray`, parabolic peak refinement, the
    quadratic-phase range manifold and the constants
    ``PEAK_PROMINENCE_DB``, ``SIGNIFICANCE_DB`` and
    ``MIN_ANGLE_SEPARATION_DEG``.  ``k_targets`` is stored as an int
    (:func:`canf.geometry._integer`) and the steps as floats (``_real``).
    """

    k_targets: int | None = None
    angle_step_deg: float = 0.05
    range_step_m: float = 0.1

    def __post_init__(self) -> None:
        if self.k_targets is not None:
            object.__setattr__(self, "k_targets", _integer("k_targets", self.k_targets))
            if self.k_targets < 1:
                raise ValueError(f"k_targets must be None or at least 1, got {self.k_targets}")
        for name in ("angle_step_deg", "range_step_m"):
            step = _real(name, getattr(self, name))
            object.__setattr__(self, name, step)
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {step!r}")

    def plan(self, snapshots: SnapshotSet, layout: SensorLayout) -> tuple[int, SpectrumGrid]:
        """K, the number of known waveforms (rows of ``snapshots.x``), and
        :meth:`SpectrumGrid.for_layout`'s grid, rejected before any stage if
        a scan of K targets over it on ``layout`` would hold more than
        :data:`MAX_GRID_ENTRIES` entries.

        The angle scan caches a real manifold of at most ``(W, A)`` entries
        (the upper half of an antisymmetric grid), W the virtual ULA size of
        the layout's coarray.  The range scan of the ``C = K (K + 1)
        / 2`` candidates builds a complex ``(F, C, R)`` chirp over the F
        folded sensors, four ``(runs, C, R)`` temporaries along the chirp's
        runs and a ``(C, R, K)`` projection.
        """
        k = snapshots.x.shape[0]
        if self.k_targets is not None and self.k_targets != k:
            raise ValueError(f"k_targets={self.k_targets}, but the snapshots carry {k} waveforms")
        grid = SpectrumGrid.for_layout(layout, self.angle_step_deg, self.range_step_m)
        w = (len(difference_coarray(layout).smoothing_segment) + 1) // 2
        chirp = _chirp_plan(layout.grid)
        n_a, n_r = grid.angle_deg.size, grid.range_m.size
        per_range = k * (k + 1) // 2 * (chirp.first.size + 4 * len(chirp.runs) + k)
        for stage, points, entries, step in (
            ("angle", n_a, w * n_a, "angle_step_deg"),
            ("range", n_r, per_range * n_r, "range_step_m"),
        ):
            if entries > MAX_GRID_ENTRIES:
                raise ValueError(
                    f"the {stage} scan of {k} targets over {points} grid points would hold "
                    f"{entries} entries, more than {MAX_GRID_ENTRIES}: raise {step}"
                )
        return k, grid


@dataclass(frozen=True)
class ClassifiedTarget:
    """Phase-2 verdict for one (angle, range-peak) pair.

    ``label`` is "true" when the range spectrum carries a significant peak
    inside the near-field region, else "cross".  ``range_m`` is the peak
    location for true entries and the best-scoring (insignificant) range
    for cross entries, kept for diagnostics and forced-estimate protocols.
    """

    theta_deg: float
    range_m: float
    label: str
    significance_db: float

    @property
    def is_true(self) -> bool:
        return self.label == "true"


@dataclass(frozen=True, eq=False)
class LocalizationResult:
    """Everything the two-phase estimator produced for one snapshot set.

    ``range_spectrum`` holds one range scan per entry of ``candidates``
    (values ``(C, R)``, fused over the inputs), the array ``classified`` was
    read from.  ``bundle`` is the covariance bundle it ran on, None for
    fused inputs.
    """

    candidates: tuple[Peak, ...]
    classified: tuple[ClassifiedTarget, ...]
    angle_spectrum: PseudoSpectrum
    range_spectrum: PseudoSpectrum
    virtual_eigvals: np.ndarray
    initial_eigvals: np.ndarray
    angle_signal_rank: int
    range_signal_rank: int
    bundle: CovarianceBundle | None

    @property
    def candidate_angles_deg(self) -> tuple[float, ...]:
        return tuple(p.location for p in self.candidates)

    @property
    def true_targets(self) -> tuple[ClassifiedTarget, ...]:
        return tuple(c for c in self.classified if c.is_true)

    def to_dict(self) -> dict:
        """JSON-ready summary (deterministic for fixed inputs)."""
        return {
            "candidates": [
                dict(theta_deg=p.location, height_db=p.height_db, prominence_db=p.prominence_db)
                for p in self.candidates
            ],
            "classified": [asdict(c) for c in self.classified],
            "angle_signal_rank": self.angle_signal_rank,
            "range_signal_rank": self.range_signal_rank,
            "virtual_eigvals": [float(v) for v in self.virtual_eigvals],
            "initial_eigvals": [float(v) for v in self.initial_eigvals],
        }


def classify_range_spectrum(
    theta_deg, spec: PseudoSpectrum, bounds: tuple[float, float]
) -> list[ClassifiedTarget]:
    """True/cross verdicts for candidate angles from their range spectra.

    ``theta_deg`` is a scalar with a 1-D ``spec``, or a 1-D array of ``C``
    candidate angles with ``spec.values`` of shape ``(C, R)``; the range
    peaks of every candidate are found by one pass of the stage's row-wise
    peak finder (see the module docstring), with the grid endpoints counted
    as peaks.  An angle is kept as true when its spectrum carries a peak
    inside ``bounds`` whose height (the normalized inverse projection, in
    dB) reaches :data:`SIGNIFICANCE_DB`; several significant peaks yield
    several true targets at the same angle.  With no such peak the angle is
    labeled cross, retaining its strongest peak (the spectrum maximum) for
    diagnostics and forced-estimate protocols.  The verdicts come in
    candidate order, each candidate's strongest first.
    """
    thetas = np.asarray(theta_deg, dtype=float).reshape(-1)
    db = spec.db.reshape(-1, spec.axis.size)
    if thetas.size != db.shape[0]:
        raise ValueError(f"{thetas.size} angles for {db.shape[0]} range spectra")
    z_f, z_r = bounds
    row, _, location, height, _ = _row_peaks(db, spec.axis, include_edges=True)
    significant = (height >= SIGNIFICANCE_DB) & (z_f <= location) & (location <= z_r)
    is_true = np.bincount(row[significant], minlength=thetas.size) > 0
    strongest = np.ones(row.size, dtype=bool)
    strongest[1:] = row[1:] != row[:-1]
    chosen = np.where(is_true[row], significant, strongest)
    return [
        ClassifiedTarget(
            theta_deg=float(thetas[k]),
            range_m=float(x),
            label="true" if is_true[k] else "cross",
            significance_db=float(h),
        )
        for k, x, h in zip(row[chosen], location[chosen], height[chosen])
    ]


def two_phase(
    inputs: list[SnapshotSet],
    layout: SensorLayout,
    config: MusicConfig,
) -> LocalizationResult:
    """The staged pipeline on one or more snapshot sets over ``layout``'s grids.

    Each input's coarray lag step is its own layout's spacing.  Several
    inputs (the subarray scheme) are fused: angle scans by their elementwise
    minimum, which keeps the peaks all inputs agree on, range scans by their
    geometric mean (a plain product would scale the dB axis and defeat one
    significance threshold).  Each input's range scan covers every candidate
    at once, and one :func:`classify_range_spectrum` call labels the fused
    ``(C, R)`` array, which the result keeps as ``range_spectrum``.
    :meth:`MusicConfig.plan` reads K from the first input's known
    waveforms and gives the grid, or rejects it, before any stage runs.
    Each angle split keeps ``K (K + 1) / 2`` signal components, the K
    targets plus their pairwise cross terms (at most ``W - 1``), each range
    split ``K`` (at most ``U - 1``), and the angle stage passes up to ``K
    (K + 1) / 2`` candidates.  Eigenvalues are concatenated over the inputs
    and the largest ranks reported.
    """
    k, grid = config.plan(inputs[0], layout)
    pairs = k * (k + 1) // 2
    axis = grid.angle_deg
    bundles = [build_bundle(s) for s in inputs]
    virtual = [
        Subspace.split_coarray(b.r_tilde, min(pairs, (b.r_tilde.size - 1) // 2))
        for b in bundles
    ]
    initial = [Subspace.split(b.r_hat, min(k, b.r_hat.shape[0] - 1)) for b in bundles]
    scans = [
        angle_spectrum(v, s.layout.d, layout.wavelength, axis) for v, s in zip(virtual, inputs)
    ]
    spec_a = PseudoSpectrum(axis, reduce(np.minimum, [scan.values for scan in scans]))
    peaks = detect_peaks(spec_a, pairs)
    thetas = np.array([p.location for p in peaks], dtype=float)
    range_scans = [
        range_spectrum(h, s.layout, thetas, grid.range_m).values for s, h in zip(inputs, initial)
    ]
    spec_r = PseudoSpectrum(grid.range_m, reduce(np.multiply, range_scans) ** (1.0 / len(inputs)))
    bounds = (layout.fresnel_distance, layout.rayleigh_distance)
    return LocalizationResult(
        candidates=tuple(peaks),
        classified=tuple(classify_range_spectrum(thetas, spec_r, bounds)),
        angle_spectrum=spec_a,
        range_spectrum=spec_r,
        virtual_eigvals=np.concatenate([v.eigvals for v in virtual]),
        initial_eigvals=np.concatenate([h.eigvals for h in initial]),
        angle_signal_rank=max(v.rank for v in virtual),
        range_signal_rank=max(h.rank for h in initial),
        bundle=bundles[0] if len(bundles) == 1 else None,
    )


def localize(snapshots: SnapshotSet, config: MusicConfig | None = None) -> LocalizationResult:
    """End-to-end two-phase localization of a snapshot set.

    Deterministic for fixed inputs: :func:`two_phase` on the whole array.
    """
    if config is None:
        config = MusicConfig()
    return two_phase([snapshots], snapshots.layout, config)
