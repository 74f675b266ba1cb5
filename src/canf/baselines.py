"""Comparison schemes composed from the stages of :mod:`canf.music`.

Dense near-field is the primary pipeline on a dense uniform layout.
Far-field virtual-array is the sample covariance on the coarray with no
decoupling, one subspace split, a ``position_scale=1`` angle scan and peak
detection, with no range stage.  Subarray near-field is
:func:`canf.music.two_phase` on the two uniform subarrays, fusing their angle
and range scans pairwise.  All three consume the same snapshot sets and grids
as the primary method, so swapping the scheme changes nothing about a
scenario.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import SnapshotSet
from .covariance import covariance_sample, spatial_smooth, vectorize_to_coarray
from .geometry import build_subarrays, difference_coarray
from .music import (  # noqa: F401  (eig_hermitian is bound here for perfbench's tracer)
    LocalizationResult,
    MusicConfig,
    Peak,
    PseudoSpectrum,
    SpectrumGrid,
    Subspace,
    SubspaceRule,
    angle_candidates,
    eig_hermitian,
    localize,
    two_phase,
    virtual_steering_matrix,
)

__all__ = [
    "BASELINE_KINDS",
    "AngleOnlyResult",
    "localize_dense",
    "localize_farfield_virtual",
    "localize_subarray",
]

BASELINE_KINDS = ("dense_nearfield", "farfield_virtual", "subarray_nearfield")


def localize_dense(
    snapshots: SnapshotSet, config: MusicConfig | None = None
) -> LocalizationResult:
    """Decoupled two-phase pipeline on a dense uniform layout.

    The decoupling only needs layout symmetry, so the primary pipeline runs
    unchanged; the dense array simply brings a much smaller aperture and
    near-field region.
    """
    layout = snapshots.layout
    if layout.kind != "dense":
        raise ValueError("dense baseline expects snapshots from a dense layout")
    return localize(snapshots, config)


@dataclass(frozen=True, eq=False)
class AngleOnlyResult:
    """Output of the far-field virtual-array scheme: angles, no ranges."""

    candidates: tuple[Peak, ...]
    angle_spectrum: PseudoSpectrum
    virtual_eigvals: np.ndarray
    angle_signal_rank: int

    @property
    def angles_deg(self) -> tuple[float, ...]:
        return tuple(p.location for p in self.candidates)


def localize_farfield_virtual(
    snapshots: SnapshotSet, config: MusicConfig | None = None
) -> AngleOnlyResult:
    """Classic far-field coarray MUSIC on the plain sample covariance.

    The sample covariance is vectorized over the physical difference
    coarray (single-position phase), smoothed, and scanned in angle.  No
    range estimation: the scheme assumes planar wavefronts, which is
    exactly the model mismatch it exhibits on near-field data.
    """
    if config is None:
        config = MusicConfig()
    layout = snapshots.layout
    coarray = difference_coarray(layout, config.smoothing_segment)
    r_hat = covariance_sample(snapshots)
    r_v = spatial_smooth(vectorize_to_coarray(r_hat, layout, coarray, config.lag_mode))
    w = r_v.shape[0]
    k = config.k_targets
    rule = config.angle_rule(w) if k is None else SubspaceRule.fixed(min(k, w - 1))
    grid = SpectrumGrid.for_layout(layout, config.angle_step_deg, config.range_step_m)
    axis = np.asarray(grid.angle_deg, dtype=float)
    virtual = Subspace.split(r_v, rule)
    manifold = virtual_steering_matrix(w, coarray.unit, layout.wavelength, axis, 1.0)
    spec = virtual.scan(axis, manifold)
    peaks = angle_candidates(spec, config.candidate_limit() if k is None else k, config)
    return AngleOnlyResult(tuple(peaks), spec, virtual.eigvals, virtual.rank)


def localize_subarray(
    snapshots: SnapshotSet, config: MusicConfig | None = None
) -> LocalizationResult:
    """Decoupled two-phase pipeline run per uniform subarray, then fused.

    Each sparse subarray produces a periodically ambiguous angle spectrum;
    :func:`canf.music.two_phase` fuses the two so that only the peaks the
    coprime-spaced subarrays agree on remain, and fuses their range spectra
    at each common candidate.  Diagnostics are concatenated over the two
    subarrays.
    """
    if config is None:
        config = MusicConfig()
    layout = snapshots.layout
    params = layout.coprime
    if layout.kind != "coprime" or params is None:
        raise ValueError("subarray baseline expects snapshots from a coprime layout")
    parent_index = {g: i for i, g in enumerate(layout.grid)}
    inputs = []
    for sub, factor in zip(build_subarrays(params), (params.n, params.m)):
        rows = [parent_index[g * factor] for g in sub.grid]
        sub_snaps = replace(snapshots, layout=sub, y=snapshots.y[rows, :])
        inputs.append((sub_snaps, difference_coarray(sub)))
    return two_phase(inputs, layout, config)
