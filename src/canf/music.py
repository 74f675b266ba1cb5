"""Two-phase MUSIC as one sequence of stages, each computed once.

:func:`two_phase` runs them: covariance bundle; one :class:`Subspace` split
each of the virtual covariance ``r_v`` and the initial covariance ``r_hat``;
angle scan on the noise subspace of ``r_v``, whose peaks hold the true
angles plus "cross" angles from target pairs; peak detection
(:func:`angle_candidates`); then at each candidate a range scan on the noise
subspace of ``r_hat`` and a true/cross verdict (true angles give significant
range peaks inside the near-field region, cross angles do not).
:func:`localize` runs the stages on the whole array, and the schemes in
:mod:`canf.baselines` are compositions of them.  :func:`angle_spectrum`,
:func:`range_spectrum` and :func:`classify_and_estimate` start from a bare
covariance: one subspace split, then one scan stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import find_peaks

from .channel import SnapshotSet, Target, fresnel_phase_terms, steering_exact
from .covariance import CovarianceBundle, build_bundle
from .geometry import CoarrayLayout, SensorLayout, difference_coarray

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
    "noise_subspace",
    "angle_spectrum",
    "detect_peaks",
    "angle_candidates",
    "range_steering_matrix",
    "range_spectrum",
    "classify_range_spectrum",
    "classify_and_estimate",
    "two_phase",
    "localize",
]

_DENOM_FLOOR = 1e-300


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix, descending order.

    The input is symmetrized as ``(A + A^H)/2`` before decomposition; it
    must be Hermitian within ``1e-9 * |trace|`` and free of non-finite
    entries.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    scale = max(abs(np.trace(a)), 1.0)
    if np.max(np.abs(a - a.conj().T)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(sym)
    return w[::-1], v[:, ::-1]


@dataclass(frozen=True)
class SubspaceRule:
    """How to split eigenpairs into signal and noise subspaces.

    ``kind="fixed"`` keeps the top ``k_signal`` eigenvectors as signal.
    ``kind="eig_gap"`` places the split at the largest eigenvalue ratio
    ``lam_i / lam_{i+1}`` with ``i`` searched up to ``search_limit``
    (unrestricted tail search latches onto meaningless ratios deep in the
    noise floor); if no ratio reaches ``gap_ratio`` the rule falls back to
    ``fixed(fallback_k)``.
    """

    kind: str
    k_signal: int | None = None
    gap_ratio: float = 3.0
    fallback_k: int | None = None
    search_limit: int | None = None

    @classmethod
    def fixed(cls, k_signal: int) -> "SubspaceRule":
        return cls("fixed", k_signal=k_signal)

    @classmethod
    def eig_gap(
        cls,
        fallback_k: int,
        gap_ratio: float = 3.0,
        search_limit: int | None = None,
    ) -> "SubspaceRule":
        if search_limit is None:
            search_limit = fallback_k
        return cls(
            "eig_gap",
            gap_ratio=gap_ratio,
            fallback_k=fallback_k,
            search_limit=search_limit,
        )


def signal_rank(eigvals: np.ndarray, rule: SubspaceRule) -> int:
    """The signal dimension ``rule`` selects for a descending spectrum."""
    n = eigvals.size
    if rule.kind == "fixed":
        k = rule.k_signal
        if k is None or not (0 < k < n):
            raise ValueError(f"fixed rule needs 0 < k_signal < {n}")
        return int(k)
    if rule.kind != "eig_gap":
        raise ValueError(f"unknown subspace rule {rule.kind!r}")
    lam = np.maximum(eigvals, max(eigvals[0], 0.0) * 1e-18 + 1e-300)
    limit = n - 1 if rule.search_limit is None else min(rule.search_limit, n - 1)
    ratios = lam[:limit] / lam[1 : limit + 1]
    i_best = int(np.argmax(ratios))
    if ratios[i_best] >= rule.gap_ratio:
        k = i_best + 1
    else:
        if rule.fallback_k is None:
            raise ValueError("eigenvalue spectrum has no gap and no fallback set")
        k = rule.fallback_k
    return min(max(k, 1), n - 1)


def noise_subspace(
    eigvals: np.ndarray, eigvecs: np.ndarray, rule: SubspaceRule
) -> np.ndarray:
    """Columns spanning the noise subspace under ``rule``.

    ``eigvals`` must be descending (as returned by :func:`eig_hermitian`).
    Returns the trailing ``n - k_signal`` eigenvectors.
    """
    return eigvecs[:, signal_rank(eigvals, rule):]


@dataclass(frozen=True)
class SpectrumGrid:
    """Search grids: angles in degrees, ranges in meters."""

    angle_deg: tuple[float, ...]
    range_m: tuple[float, ...]

    def __post_init__(self) -> None:
        for axis in (self.angle_deg, self.range_m):
            if len(axis) == 0:
                raise ValueError("grids must be non-empty")
            if any(axis[i] >= axis[i + 1] for i in range(len(axis) - 1)):
                raise ValueError("grids must be strictly increasing")
        if self.angle_deg[0] <= -90.0 or self.angle_deg[-1] >= 90.0:
            raise ValueError("angle grid must lie inside (-90, 90) degrees")

    @classmethod
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
        return cls(tuple(angles), tuple(ranges))


@dataclass(frozen=True)
class Peak:
    """One detected spectrum peak (location refined off-grid when interior)."""

    location: float
    height_db: float
    prominence_db: float
    index: int


@dataclass(frozen=True, eq=False)
class PseudoSpectrum:
    """A 1-D MUSIC pseudospectrum: reciprocal noise-subspace projection."""

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

    def scan(self, axis: np.ndarray, manifold: np.ndarray) -> PseudoSpectrum:
        """1 / normalized noise-subspace power of each manifold row, over ``axis``."""
        proj = manifold.conj() @ self.eigvecs[:, self.rank :]
        denom = np.einsum("ij,ij->i", proj, proj.conj()).real / manifold.shape[1]
        return PseudoSpectrum(axis, 1.0 / np.maximum(denom, _DENOM_FLOOR))


@lru_cache(maxsize=16)
def _angle_manifold_cached(
    w: int, unit: float, wavelength: float, position_scale: float, grid_bytes: bytes
) -> np.ndarray:
    grid_deg = np.frombuffer(grid_bytes, dtype=float)
    positions = position_scale * unit * np.arange(w)
    phase = (
        -2.0
        * np.pi
        / wavelength
        * np.outer(np.sin(np.deg2rad(grid_deg)), positions)
    )
    return np.exp(1j * phase)


def virtual_steering_matrix(
    w: int,
    unit: float,
    wavelength: float,
    angle_grid_deg: np.ndarray,
    position_scale: float = 2.0,
) -> np.ndarray:
    """Steering manifold of a W-element virtual ULA over an angle grid.

    ``position_scale=2`` gives the doubled-position manifold the decoupled
    covariance lives on; ``position_scale=1`` is the plain physical-lag
    manifold used by far-field coarray processing.
    """
    grid = np.ascontiguousarray(np.asarray(angle_grid_deg, dtype=float))
    return _angle_manifold_cached(
        int(w), float(unit), float(wavelength), float(position_scale), grid.tobytes()
    )


def angle_spectrum(
    r_v: np.ndarray,
    unit: float,
    wavelength: float,
    angle_grid_deg,
    rule: SubspaceRule,
    position_scale: float = 2.0,
) -> PseudoSpectrum:
    """Angle-domain MUSIC over the smoothed virtual covariance.

    ``unit`` is the coarray lag step in meters.  Peak locations are
    invariant to any positive scaling of ``r_v``.
    """
    grid = np.asarray(angle_grid_deg, dtype=float)
    manifold = virtual_steering_matrix(
        r_v.shape[0], unit, wavelength, grid, position_scale
    )
    return Subspace.split(r_v, rule).scan(grid, manifold)


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
    prominence_db: float = 1.0,
    refine: bool = True,
    include_edges: bool = False,
    min_separation: float = 0.0,
) -> list[Peak]:
    """Local maxima above a prominence threshold, strongest first.

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
        np.concatenate((pad, y, pad)), prominence=prominence_db, distance=distance
    )
    idx = idx - len(pad)
    prominences = props["prominences"]
    peaks = [
        Peak(
            location=_refine_parabolic(y, int(i), spectrum.axis)
            if refine
            else float(spectrum.axis[int(i)]),
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


def angle_candidates(
    spectrum: PseudoSpectrum, max_count: int | None, config: "MusicConfig"
) -> list[Peak]:
    """Peak detection stage: up to ``max_count`` angle peaks under ``config``."""
    return detect_peaks(
        spectrum,
        max_count=max_count,
        prominence_db=config.peak_prominence_db,
        refine=config.refine,
        min_separation=config.min_angle_separation_deg,
    )


def range_steering_matrix(
    layout: SensorLayout, theta_deg: float, range_grid_m, model: str = "fresnel"
) -> np.ndarray:
    """Steering vectors at one angle, one row per range (``model`` as in
    :func:`range_spectrum`)."""
    grid = np.asarray(range_grid_m, dtype=float)
    theta = math.radians(theta_deg)
    if model == "fresnel":
        p, q = fresnel_phase_terms(layout, theta, grid[:, None])
        return np.exp(1j * (p + q))
    if model == "exact":
        return np.stack([steering_exact(layout, Target(theta, float(r))) for r in grid])
    raise ValueError(f"unknown steering model {model!r}")


def range_spectrum(
    r_hat: np.ndarray,
    layout: SensorLayout,
    theta_deg: float,
    range_grid_m,
    rule: SubspaceRule,
    model: str = "fresnel",
) -> PseudoSpectrum:
    """Range-domain MUSIC at a fixed candidate angle.

    Steering follows the quadratic-phase model by default; ``model="exact"``
    switches to spherical distances for sensitivity studies.
    """
    grid = np.asarray(range_grid_m, dtype=float)
    manifold = range_steering_matrix(layout, theta_deg, grid, model)
    return Subspace.split(r_hat, rule).scan(grid, manifold)


@dataclass(frozen=True)
class MusicConfig:
    """Tuning knobs for the two-phase estimator.

    ``k_targets`` feeds the subspace rules: the virtual (angle) stage falls
    back to ``k (k + 1) / 2`` signal components (targets plus pairwise cross
    terms), the range stage to ``k``.  When ``k_targets`` is None both
    stages rely on the eigen-gap rule with conservative fallbacks.
    """

    k_targets: int | None = None
    estimator: str = "ls"
    angle_step_deg: float = 0.05
    range_step_m: float = 0.1
    peak_prominence_db: float = 1.0
    significance_db: float = 10.0
    gap_ratio: float = 3.0
    lag_mode: str = "average"
    smoothing_segment: str = "auto"
    refine: bool = True
    min_angle_separation_deg: float = 0.5

    def angle_rule(self, w: int) -> SubspaceRule:
        # With K declared, the virtual covariance carries K self components
        # plus K(K-1) ordered cross components on K(K-1)/2 distinct angles:
        # fix the signal dimension at K(K+1)/2.  An eigen-gap search is
        # unreliable here (the cross components and the smoothed noise floor
        # produce no clean gap) and is used only when K is unknown.
        if self.k_targets is not None:
            return SubspaceRule.fixed(min(self.candidate_limit(), w - 1))
        return SubspaceRule.eig_gap(max(min(w // 3, w - 1), 1), self.gap_ratio)

    def range_rule(self, u: int) -> SubspaceRule:
        if self.k_targets is not None:
            return SubspaceRule.fixed(min(self.k_targets, u - 1))
        return SubspaceRule.eig_gap(max(u // 4, 1), self.gap_ratio)

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
    theta_deg: float,
    spec: PseudoSpectrum,
    bounds: tuple[float, float],
    config: MusicConfig,
) -> list[ClassifiedTarget]:
    """True/cross verdict for one candidate angle from its range spectrum.

    The angle is kept as true when the spectrum carries a peak inside
    ``bounds`` whose height (the normalized inverse projection, in dB)
    reaches ``significance_db``; several significant peaks yield several
    true targets at the same angle.  With no such peak the angle is labeled
    cross, retaining the strongest peak (the spectrum maximum: edges count
    as peaks) for diagnostics and forced-estimate protocols.
    """
    z_f, z_r = bounds
    peaks = detect_peaks(
        spec,
        max_count=None,
        prominence_db=min(config.peak_prominence_db, config.significance_db),
        refine=config.refine,
        include_edges=True,
    )
    significant = [
        p
        for p in peaks
        if p.height_db >= config.significance_db and z_f <= p.location <= z_r
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
    config: MusicConfig,
) -> tuple[list[ClassifiedTarget], list[tuple[float, PseudoSpectrum]]]:
    """Range scans of every (sensor layout, ``r_hat`` subspace) pair at each
    candidate, fused by their geometric mean and classified in ``layout``."""
    bounds = (layout.fresnel_distance, layout.rayleigh_distance)
    range_grid = np.asarray(grid.range_m, dtype=float)
    classified: list[ClassifiedTarget] = []
    spectra: list[tuple[float, PseudoSpectrum]] = []
    for theta_deg in candidate_angles_deg:
        scans = [
            sub.scan(range_grid, range_steering_matrix(lay, theta_deg, range_grid)).values
            for lay, sub in initials
        ]
        spec = PseudoSpectrum(range_grid, np.prod(scans, axis=0) ** (1.0 / len(scans)))
        spectra.append((theta_deg, spec))
        classified.extend(classify_range_spectrum(theta_deg, spec, bounds, config))
    return classified, spectra


def classify_and_estimate(
    candidate_angles_deg,
    r_hat: np.ndarray,
    layout: SensorLayout,
    grid: SpectrumGrid,
    config: MusicConfig,
) -> tuple[list[ClassifiedTarget], list[tuple[float, PseudoSpectrum]]]:
    """Range-domain MUSIC at each candidate angle with true/cross labels."""
    initial = Subspace.split(r_hat, config.range_rule(layout.size))
    return _classify_candidates(
        candidate_angles_deg, [(layout, initial)], layout, grid, config
    )


def two_phase(
    inputs: list[tuple[SnapshotSet, CoarrayLayout]],
    layout: SensorLayout,
    config: MusicConfig,
) -> LocalizationResult:
    """The staged pipeline on one or more snapshot sets over ``layout``'s grids.

    Several inputs (the subarray scheme) are fused: angle scans by their
    elementwise minimum, which keeps the peaks all inputs agree on, range
    scans by their geometric mean (a plain product would scale the dB axis
    and defeat one significance threshold).  Eigenvalues are concatenated
    over the inputs and the largest ranks reported.
    """
    grid = SpectrumGrid.for_layout(layout, config.angle_step_deg, config.range_step_m)
    axis = np.asarray(grid.angle_deg, dtype=float)
    bundles = [build_bundle(s, c, config.estimator, config.lag_mode) for s, c in inputs]
    virtual = [Subspace.split(b.r_v, config.angle_rule(b.r_v.shape[0])) for b in bundles]
    initial = [Subspace.split(b.r_hat, config.range_rule(b.r_hat.shape[0])) for b in bundles]
    scans = [
        v.scan(axis, virtual_steering_matrix(v.eigvals.size, c.unit, layout.wavelength, axis))
        for v, (_, c) in zip(virtual, inputs)
    ]
    spec_a = PseudoSpectrum(axis, np.min([scan.values for scan in scans], axis=0))
    peaks = angle_candidates(spec_a, config.candidate_limit(), config)
    range_inputs = [(s.layout, h) for (s, _), h in zip(inputs, initial)]
    classified, spectra = _classify_candidates(
        [p.location for p in peaks], range_inputs, layout, grid, config
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
    coarray = difference_coarray(snapshots.layout, config.smoothing_segment)
    return two_phase([(snapshots, coarray)], snapshots.layout, config)
