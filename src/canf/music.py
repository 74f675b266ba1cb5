"""Two-phase MUSIC as one sequence of stages, each computed once.

:func:`two_phase` runs them: covariance bundle; one :class:`Subspace` split
each of the virtual covariance ``r_v`` (in its real form, below) and the
initial covariance ``r_hat``; angle scan on the noise subspace of ``r_v``,
whose peaks hold the true angles plus "cross" angles from target pairs; peak
detection (:func:`angle_candidates`); then one range scan of every candidate
angle at once on the noise subspace of ``r_hat``, and a true/cross verdict
per candidate (true angles give significant range peaks inside the
near-field region, cross angles do not).  :func:`localize` runs the stages
on the whole array, and the schemes in :mod:`canf.baselines` are
compositions of them.  The two scan stages are :func:`angle_spectrum` and
:func:`range_spectrum`: each takes a :class:`Subspace` already split from
its covariance, so a covariance is decomposed once however many scans read
it, and they are the only code that pairs a steering manifold with a
subspace.

Both scans use the mirror symmetry of the symmetric array:

- ``r_v`` is a smoothed Toeplitz-like covariance of a conjugate-symmetric
  coarray vector, so it is centro-Hermitian, ``J r_v J = conj(r_v)``.  The
  sparse unitary ``Q`` of the unitary-transformation method (Huarng & Yeh,
  IEEE Trans. ASSP 1991; used by Unitary ESPRIT, Haardt & Nossek 1995, and
  unitary root-MUSIC, Pesavento, Gershman & Haardt 2000) maps it to the
  real symmetric :func:`real_form` ``S = Re(Q^H r_v Q)`` with the same
  eigenvalues, and maps the centred ULA steering vector to a real one.  The
  angle stage decomposes and scans in real arithmetic.
- In the range manifold ``exp(1j * (p + q))`` the linear phase ``p`` is odd
  and the Fresnel phase ``q`` even in the sensor position, so a mirror pair
  shares one ``exp(1j * q)``.  The range stage folds each noise or signal
  basis per candidate angle onto the ``F`` distinct ``|g|`` (19 of the 37
  sensors of the (9, 11) array) and never builds the full manifold.

Every scan measures the noise-subspace power of unit-modulus steering
vectors, so it projects onto whichever basis is narrower: the signal
subspace when it has fewer columns than the noise subspace (10 of 100 for
the angle scan of four targets, 4 of 37 for the range scan), with rows near
cancellation recomputed on the noise basis (:meth:`Subspace.scan`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import find_peaks

from .channel import SnapshotSet, fresnel_phase_terms
from .covariance import CovarianceBundle, build_bundle
from .geometry import SensorLayout

__all__ = [
    "SubspaceRule",
    "Subspace",
    "SpectrumGrid",
    "Peak",
    "PseudoSpectrum",
    "MusicConfig",
    "ClassifiedTarget",
    "LocalizationResult",
    "eig_hermitian",
    "real_form",
    "angle_spectrum",
    "detect_peaks",
    "angle_candidates",
    "range_spectrum",
    "classify_range_spectrum",
    "two_phase",
    "localize",
]

_DENOM_FLOOR = 1e-300

PEAK_PROMINENCE_DB = 1.0  # least prominence of an angle or range peak
SIGNIFICANCE_DB = 10.0  # range-peak height that labels its angle true
MIN_ANGLE_SEPARATION_DEG = 0.5  # closer angle peaks ride on one lobe
EIG_GAP_RATIO = 3.0  # least eigenvalue ratio that counts as a signal/noise gap
CANCELLATION_FLOOR = 1e-3  # least noise power trusted from the signal basis


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix, descending order.

    The input is symmetrized as ``(A + A^H)/2`` before decomposition; it
    must be Hermitian within ``1e-9 * |trace|`` and free of non-finite
    entries.  A real input (the :func:`real_form` of ``r_v``) is decomposed
    by the real symmetric solver and gives real eigenvectors.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(abs(np.trace(a)), 1.0)
    if np.max(np.abs(a - a.conj().T)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(sym)
    return w[::-1], v[:, ::-1]


_HALF_SQRT2 = math.sqrt(0.5)


def _unitary_fold(a: np.ndarray) -> np.ndarray:
    """``Q^H a`` along the first axis, by flips and sums.

    ``Q`` is the sparse unitary of the unitary-transformation method: for
    ``W = 2n`` it is ``[[I, 1j I], [J, -1j J]] / sqrt(2)``, and for
    ``W = 2n + 1`` the same blocks around a middle row and column holding 1.
    """
    w = a.shape[0]
    n = w // 2
    top, flip = a[:n], a[::-1][:n]
    return np.concatenate(
        ((top + flip) * _HALF_SQRT2, a[n : w - n], (top - flip) * (-1j * _HALF_SQRT2))
    )


def real_form(matrix: np.ndarray) -> np.ndarray:
    """The real symmetric ``S = Re(Q^H R Q)`` of a centro-Hermitian ``R``.

    ``Q`` is unitary, so ``S`` has the eigenvalues of ``R`` and ``Q`` maps
    its eigenvectors back; ``Q^H R Q`` is real exactly when
    ``J R J = conj(R)``.  ``R`` must be centro-Hermitian within
    ``1e-9 * |trace|``, the tolerance :func:`eig_hermitian` allows on
    Hermiticity (Huarng & Yeh, IEEE Trans. ASSP 1991).
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(abs(np.trace(a)), 1.0)
    if np.max(np.abs(a[::-1, ::-1] - a.conj())) > 1e-9 * scale:
        raise ValueError("matrix is not centro-Hermitian within tolerance")
    # Q^H R Q = (Q^H (Q^H R)^H)^H, and Re(X^H) = Re(X)^T.
    return _unitary_fold(_unitary_fold(a).conj().T).real.T


@dataclass(frozen=True)
class SubspaceRule:
    """How to split eigenpairs into signal and noise subspaces.

    :meth:`fixed` keeps the top ``rank`` eigenvectors as signal.
    :meth:`eig_gap` (``search=True``) places the split at the largest
    eigenvalue ratio ``lam_i / lam_{i+1}`` with ``i`` searched up to
    ``rank`` (an unrestricted tail search latches onto meaningless ratios
    deep in the noise floor); if no ratio reaches :data:`EIG_GAP_RATIO` the
    split falls back to ``rank``.
    """

    rank: int
    search: bool

    @classmethod
    def fixed(cls, rank: int) -> "SubspaceRule":
        return cls(rank, False)

    @classmethod
    def eig_gap(cls, rank: int) -> "SubspaceRule":
        return cls(rank, True)


def signal_rank(eigvals: np.ndarray, rule: SubspaceRule) -> int:
    """The signal dimension ``rule`` selects for a descending spectrum."""
    n = eigvals.size
    if not rule.search:
        if not (0 < rule.rank < n):
            raise ValueError(f"fixed rule needs 0 < rank < {n}")
        return int(rule.rank)
    lam = np.maximum(eigvals, max(eigvals[0], 0.0) * 1e-18 + 1e-300)
    limit = min(rule.rank, n - 1)
    ratios = lam[:limit] / lam[1 : limit + 1]
    i_best = int(np.argmax(ratios))
    k = i_best + 1 if ratios[i_best] >= EIG_GAP_RATIO else rule.rank
    return min(max(k, 1), n - 1)


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """Search grids as read-only float arrays: angles in degrees, ranges in meters.

    :meth:`for_layout` is cached: equal arguments return the same grid.
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
        cls,
        layout: SensorLayout,
        angle_step_deg: float = 0.05,
        range_step_m: float = 0.1,
    ) -> "SpectrumGrid":
        n_a = int(round((180.0 - 2.0 * angle_step_deg) / angle_step_deg)) + 1
        angles = np.linspace(-90.0 + angle_step_deg, 90.0 - angle_step_deg, n_a)
        z_f, z_r = layout.fresnel_distance, layout.rayleigh_distance
        n_r = max(int(math.floor((z_r - z_f) / range_step_m)) + 1, 2)
        ranges = z_f + range_step_m * np.arange(n_r)
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
    """One eigendecomposition, split into signal and noise parts by a rule."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int

    @classmethod
    def split(cls, matrix: np.ndarray, rule: SubspaceRule) -> "Subspace":
        """Decompose ``matrix`` once and choose its signal rank under ``rule``."""
        eigvals, eigvecs = eig_hermitian(matrix)
        return cls(eigvals, eigvecs, signal_rank(eigvals, rule))

    def scan(
        self, axis: np.ndarray, manifold: np.ndarray, fold: np.ndarray | None = None
    ) -> PseudoSpectrum:
        """1 / normalized noise-subspace power of each manifold row, over ``axis``.

        ``manifold`` is ``(..., W)`` in the basis of the decomposed matrix;
        the values take its leading shape.  With ``fold`` (``(..., F, W)``),
        ``manifold`` is ``(..., R, F)`` and row ``r`` of spectrum ``c`` stands
        for the length-W vector ``manifold[c, r] @ fold[c]``: each basis is
        folded to ``fold @ basis`` instead of the manifold being unfolded
        (the range stage's mirror pairs).  Every steering vector here has
        ``||a||^2 = W``: ``exp(1j * phase)`` in the range stage, and in the
        angle stage the real ``Q^H a`` of a centred one (:func:`real_form`,
        ``Q`` the unitary of Huarng & Yeh 1991).  So its noise power
        ``||a^H U_n||^2 / W`` equals ``1 - ||a^H U_s||^2 / W``.  When
        ``2 * rank < W`` the scan projects onto the narrower signal basis
        ``U_s`` by that identity.  Near a peak the difference cancels to
        roundoff, so rows below :data:`CANCELLATION_FLOOR` are recomputed on
        the noise basis: with ``fold``, by one product per spectrum that has
        such rows, against that spectrum's folded noise basis.
        """
        w = self.eigvecs.shape[0]

        def folded(basis: np.ndarray) -> np.ndarray:
            return basis.conj() if fold is None else fold @ basis.conj()

        signal, noise = self.eigvecs[:, : self.rank], self.eigvecs[:, self.rank :]
        if 2 * self.rank >= w:
            denom = _row_power(manifold @ folded(noise)) / w
        else:
            denom = 1.0 - _row_power(manifold @ folded(signal)) / w
            near = denom < CANCELLATION_FLOOR
            if fold is None:
                if near.any():
                    rows = manifold[near][..., None, :] @ noise.conj()
                    denom[near] = _row_power(rows[..., 0, :]) / w
            else:
                # One product per spectrum: its near rows against its own
                # folded noise basis, folded only when some row needs it.
                noise_conj = noise.conj()
                for c in np.ndindex(near.shape[:-1]):
                    rows = near[c]
                    if rows.any():
                        proj = manifold[c][rows] @ (fold[c] @ noise_conj)
                        denom[c][rows] = _row_power(proj) / w
        values = 1.0 / np.maximum(denom, _DENOM_FLOOR)
        return PseudoSpectrum(axis, values)


def _row_power(proj: np.ndarray) -> np.ndarray:
    """Squared norm along the last axis."""
    return np.einsum("...j,...j->...", proj, proj.conj()).real


@lru_cache(maxsize=16)
def _real_angle_manifold(
    w: int, unit: float, wavelength: float, position_scale: float, grid_bytes: bytes
) -> np.ndarray:
    """``Q^H a`` of the centred W-element ULA manifold, one row per angle:
    ``[sqrt(2) cos(psi), 1 (odd W only), sqrt(2) sin(psi)]`` with ``psi`` the
    phases of the first ``W // 2`` elements."""
    grid_deg = np.frombuffer(grid_bytes, dtype=float)
    n = w // 2
    centred = position_scale * unit * (np.arange(n) - 0.5 * (w - 1))
    psi = -2.0 * np.pi / wavelength * np.outer(np.sin(np.deg2rad(grid_deg)), centred)
    scaled = math.sqrt(2.0)
    manifold = np.concatenate(
        (scaled * np.cos(psi), np.ones((grid_deg.size, w - 2 * n)), scaled * np.sin(psi)),
        axis=1,
    )
    manifold.flags.writeable = False
    return manifold


def angle_spectrum(
    virtual: Subspace,
    unit: float,
    wavelength: float,
    angle_grid_deg,
    position_scale: float = 2.0,
) -> PseudoSpectrum:
    """Angle-domain MUSIC scan of a split virtual covariance.

    ``virtual`` must be split from ``real_form(r_v)``.  The scan is of the
    W-element virtual ULA ``exp(-2j pi / wavelength * position_scale * unit
    * k * sin(theta))``, ``k = 0 .. W-1``: ``position_scale=2`` gives the
    doubled-position manifold the decoupled covariance lives on,
    ``position_scale=1`` the plain physical-lag manifold of far-field
    coarray processing.  Centring the positions on the array changes each
    row by a unit phase only, and ``Q^H`` maps the centred row to the real
    row ``[sqrt(2) cos(psi), 1 (odd W only), sqrt(2) sin(psi)]`` the scan
    uses (cached per grid), so the scan is real matrix arithmetic: the
    unitary-transformation method of Huarng & Yeh (IEEE Trans. ASSP 1991).  ``unit`` is the coarray lag step in meters.  Peak
    locations are invariant to any positive scaling of ``r_v``.
    """
    if np.iscomplexobj(virtual.eigvecs):
        raise ValueError("angle_spectrum scans a subspace split from real_form(r_v)")
    grid = np.ascontiguousarray(np.asarray(angle_grid_deg, dtype=float))
    manifold = _real_angle_manifold(
        virtual.eigvals.size, float(unit), float(wavelength), float(position_scale),
        grid.tobytes(),
    )
    return virtual.scan(grid, manifold)


def _refine_parabolic(y_db: np.ndarray, idx: int, axis: np.ndarray) -> float:
    """3-point parabolic vertex around an interior peak, in axis units."""
    if idx <= 0 or idx >= y_db.size - 1:
        return float(axis[idx])
    y0, y1, y2 = y_db[idx - 1], y_db[idx], y_db[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0 or not np.isfinite(denom):
        return float(axis[idx])
    delta = 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    step = axis[idx + 1] - axis[idx] if delta >= 0 else axis[idx] - axis[idx - 1]
    return float(axis[idx] + delta * step)


def detect_peaks(
    spectrum: PseudoSpectrum,
    max_count: int | None = None,
    include_edges: bool = False,
    min_separation: float = 0.0,
) -> list[Peak]:
    """Local maxima at least :data:`PEAK_PROMINENCE_DB` prominent, strongest
    first, each located by a parabolic fit through its neighbours.

    Ties in height are broken by ascending axis location.  With
    ``include_edges`` the grid endpoints count as peaks (used for range
    spectra, where a target near a region boundary must not be lost).
    ``min_separation`` (in axis units) suppresses duplicate peaks riding
    on one lobe.
    """
    y = spectrum.db
    distance = None
    if min_separation > 0.0 and spectrum.axis.size > 1:
        step = float(spectrum.axis[1] - spectrum.axis[0])
        distance = max(int(round(min_separation / step)), 1)
    pad = [-np.inf] if include_edges else []
    idx, props = find_peaks(
        np.concatenate((pad, y, pad)), prominence=PEAK_PROMINENCE_DB, distance=distance
    )
    idx = idx - len(pad)
    prominences = props["prominences"]
    peaks = [
        Peak(
            location=_refine_parabolic(y, int(i), spectrum.axis),
            height_db=float(y[int(i)]),
            prominence_db=float(p),
            index=int(i),
        )
        for i, p in zip(idx, prominences)
    ]
    peaks.sort(key=lambda p: (-p.height_db, p.location))
    if max_count is not None:
        peaks = peaks[:max_count]
    return peaks


def angle_candidates(spectrum: PseudoSpectrum, max_count: int | None) -> list[Peak]:
    """Peak detection stage: up to ``max_count`` angle peaks."""
    return detect_peaks(spectrum, max_count, min_separation=MIN_ANGLE_SEPARATION_DEG)


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
    the ``(C, R, F)`` factor ``exp(1j * q)`` is evaluated.
    """
    grid = np.asarray(range_grid_m, dtype=float)
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    _, first, unfold = np.unique(np.abs(layout.grid), return_index=True, return_inverse=True)
    # q scales as 1 / r: evaluate both terms at r = 1, then q per range.
    p, q_unit = fresnel_phase_terms(layout, theta[..., None], 1.0)
    fold = np.zeros(theta.shape + (first.size, layout.size), dtype=complex)
    fold[..., unfold, np.arange(layout.size)] = np.exp(1j * p)
    q = q_unit[..., None, first] / grid[:, None]
    # exp(1j * q), bit for bit, at half the cost of the complex exp.
    manifold = np.empty(q.shape, dtype=complex)
    np.cos(q, out=manifold.real)
    np.sin(q, out=manifold.imag)
    return initial.scan(grid, manifold, fold)


@dataclass(frozen=True)
class MusicConfig:
    """The three knobs of the two-phase estimator.

    ``k_targets`` feeds the subspace rules: the virtual (angle) stage keeps
    ``k (k + 1) / 2`` signal components (targets plus pairwise cross terms),
    the range stage ``k``; when it is None both stages use the eigen-gap rule
    with conservative fallbacks.  ``angle_step_deg`` and ``range_step_m`` are
    the steps of :meth:`SpectrumGrid.for_layout`.  The rest of the chain is
    fixed: the LS covariance, per-lag averaging, the coprime smoothing
    segment, parabolic peak refinement, the quadratic-phase range manifold
    and the constants ``EIG_GAP_RATIO``, ``PEAK_PROMINENCE_DB``,
    ``SIGNIFICANCE_DB`` and ``MIN_ANGLE_SEPARATION_DEG``.
    """

    k_targets: int | None = None
    angle_step_deg: float = 0.05
    range_step_m: float = 0.1

    def __post_init__(self) -> None:
        if self.k_targets is not None and self.k_targets < 1:
            raise ValueError(f"k_targets must be None or at least 1, got {self.k_targets}")
        for name in ("angle_step_deg", "range_step_m"):
            step = getattr(self, name)
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {step!r}")

    def angle_rule(self, w: int) -> SubspaceRule:
        # With K declared, the virtual covariance carries K self components
        # plus K(K-1) ordered cross components on K(K-1)/2 distinct angles:
        # fix the signal dimension at K(K+1)/2.  An eigen-gap search is
        # unreliable here (the cross components and the smoothed noise floor
        # produce no clean gap) and is used only when K is unknown.
        if self.k_targets is not None:
            return SubspaceRule.fixed(min(self.candidate_limit(), w - 1))
        return SubspaceRule.eig_gap(max(min(w // 3, w - 1), 1))

    def range_rule(self, u: int) -> SubspaceRule:
        if self.k_targets is not None:
            return SubspaceRule.fixed(min(self.k_targets, u - 1))
        return SubspaceRule.eig_gap(max(u // 4, 1))

    def candidate_limit(self) -> int:
        if self.k_targets is not None:
            return self.k_targets * (self.k_targets + 1) // 2
        return 12


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

    ``bundle`` is the covariance bundle it ran on, None for fused inputs.
    """

    candidates: tuple[Peak, ...]
    classified: tuple[ClassifiedTarget, ...]
    angle_spectrum: PseudoSpectrum
    range_spectra: tuple[tuple[float, PseudoSpectrum], ...]
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
                {
                    "theta_deg": p.location,
                    "height_db": p.height_db,
                    "prominence_db": p.prominence_db,
                }
                for p in self.candidates
            ],
            "classified": [
                {
                    "theta_deg": c.theta_deg,
                    "range_m": c.range_m,
                    "label": c.label,
                    "significance_db": c.significance_db,
                }
                for c in self.classified
            ],
            "angle_signal_rank": self.angle_signal_rank,
            "range_signal_rank": self.range_signal_rank,
            "virtual_eigvals": [float(v) for v in self.virtual_eigvals],
            "initial_eigvals": [float(v) for v in self.initial_eigvals],
        }


def classify_range_spectrum(
    theta_deg: float, spec: PseudoSpectrum, bounds: tuple[float, float]
) -> list[ClassifiedTarget]:
    """True/cross verdict for one candidate angle from its range spectrum.

    The angle is kept as true when the spectrum carries a peak inside
    ``bounds`` whose height (the normalized inverse projection, in dB)
    reaches :data:`SIGNIFICANCE_DB`; several significant peaks yield several
    true targets at the same angle.  With no such peak the angle is labeled
    cross, retaining the strongest peak (the spectrum maximum: edges count
    as peaks) for diagnostics and forced-estimate protocols.
    """
    z_f, z_r = bounds
    peaks = detect_peaks(spec, include_edges=True)
    significant = [
        p for p in peaks if p.height_db >= SIGNIFICANCE_DB and z_f <= p.location <= z_r
    ]
    label, chosen = ("true", significant) if significant else ("cross", peaks[:1])
    return [
        ClassifiedTarget(
            theta_deg=theta_deg,
            range_m=p.location,
            label=label,
            significance_db=p.height_db,
        )
        for p in chosen
    ]


def _classify_candidates(
    candidate_angles_deg,
    initials: list[tuple[SensorLayout, Subspace]],
    layout: SensorLayout,
    grid: SpectrumGrid,
) -> tuple[list[ClassifiedTarget], list[tuple[float, PseudoSpectrum]]]:
    """Range scans of every (sensor layout, ``r_hat`` subspace) pair at each
    candidate, fused by their geometric mean and classified in ``layout``.

    Each pair builds one manifold for all candidates and scans it once.
    """
    bounds = (layout.fresnel_distance, layout.rayleigh_distance)
    range_grid = grid.range_m
    thetas = np.asarray(candidate_angles_deg, dtype=float)
    scans = [range_spectrum(sub, lay, thetas, range_grid).values for lay, sub in initials]
    fused = np.prod(scans, axis=0) ** (1.0 / len(scans))
    classified: list[ClassifiedTarget] = []
    spectra: list[tuple[float, PseudoSpectrum]] = []
    for theta_deg, values in zip(candidate_angles_deg, fused):
        spec = PseudoSpectrum(range_grid, values)
        spectra.append((theta_deg, spec))
        classified.extend(classify_range_spectrum(theta_deg, spec, bounds))
    return classified, spectra


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
    significance threshold).  Eigenvalues are concatenated over the inputs
    and the largest ranks reported.
    """
    grid = SpectrumGrid.for_layout(layout, config.angle_step_deg, config.range_step_m)
    axis = grid.angle_deg
    bundles = [build_bundle(s) for s in inputs]
    virtual = [
        Subspace.split(real_form(b.r_v), config.angle_rule(b.r_v.shape[0])) for b in bundles
    ]
    initial = [Subspace.split(b.r_hat, config.range_rule(b.r_hat.shape[0])) for b in bundles]
    scans = [
        angle_spectrum(v, s.layout.d, layout.wavelength, axis) for v, s in zip(virtual, inputs)
    ]
    spec_a = PseudoSpectrum(axis, np.min([scan.values for scan in scans], axis=0))
    peaks = angle_candidates(spec_a, config.candidate_limit())
    range_inputs = [(s.layout, h) for s, h in zip(inputs, initial)]
    classified, spectra = _classify_candidates(
        [p.location for p in peaks], range_inputs, layout, grid
    )
    return LocalizationResult(
        candidates=tuple(peaks),
        classified=tuple(classified),
        angle_spectrum=spec_a,
        range_spectra=tuple(spectra),
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
