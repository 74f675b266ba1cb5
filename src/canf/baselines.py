"""Comparison schemes composed from the stages of :mod:`canf.music`.

Dense near-field is the primary pipeline on a dense uniform layout.
Far-field virtual-array is the sample covariance on the coarray with no
decoupling, one :meth:`canf.music.Subspace.split_coarray` of its coarray
vector, an angle scan at the sensor spacing and peak detection, with no range
stage.  Subarray near-field is :func:`canf.music.two_phase` on the two
uniform subarrays, fusing their angle and range scans pairwise.  All three
consume the same snapshot sets and grids as the primary method, so swapping
the scheme changes nothing about a scenario: each plans its run with
:meth:`canf.music.MusicConfig.plan`, so a config one rejects, all reject.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import SnapshotSet
from .covariance import covariance_sample, vectorize_to_coarray
from .geometry import build_subarrays
from .music import (  # noqa: F401  (eig_hermitian is bound here for perfbench's tracer)
    LocalizationResult,
    MusicConfig,
    Peak,
    PseudoSpectrum,
    Subspace,
    angle_spectrum,
    detect_peaks,
    eig_hermitian,
    localize,
    two_phase,
)

__all__ = [
    "AngleOnlyResult",
    "localize_dense",
    "localize_farfield_virtual",
    "localize_subarray",
]


def localize_dense(
    snapshots: SnapshotSet, config: MusicConfig | None = None
) -> LocalizationResult:
    """Decoupled two-phase pipeline on a dense uniform layout.

    The decoupling only needs layout symmetry, so the primary pipeline runs
    unchanged; the dense array simply brings a much smaller aperture and
    near-field region.  Rejecting a layout with coprime parameters is what
    separates this scheme from :func:`canf.music.localize`: without it,
    coprime snapshots passed here would run the proposed method and be
    reported as the dense one.
    """
    if snapshots.layout.coprime is not None:
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
    coarray (single-position phase), split as its smoothed covariance
    (:meth:`canf.music.Subspace.split_coarray`, which never forms it) and
    scanned in angle.  No range estimation: the scheme assumes planar
    wavefronts, which is exactly the model mismatch it exhibits on
    near-field data.  With K known waveforms, the split keeps ``K`` signal
    components (at most ``W - 1``) and the scan reports up to ``K`` angles.
    :meth:`MusicConfig.plan` rejects a range step too fine for the K-target
    range scan here too, though this scheme scans no ranges.
    """
    if config is None:
        config = MusicConfig()
    layout = snapshots.layout
    k, grid = config.plan(snapshots, layout)
    r_tilde = vectorize_to_coarray(covariance_sample(snapshots), layout)
    virtual = Subspace.split_coarray(r_tilde, min(k, (r_tilde.size - 1) // 2))
    spec = angle_spectrum(virtual, layout.d, layout.wavelength, grid.angle_deg)
    peaks = detect_peaks(spec, k)
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
    if params is None:
        raise ValueError("subarray baseline expects snapshots from a coprime layout")
    if params.m == 1:
        raise ValueError(
            "subarray baseline needs M >= 2: with M = 1, subarray 1 has 2M - 1 = 1 sensor"
        )
    parent_index = {g: i for i, g in enumerate(layout.grid)}
    inputs = []
    for sub, factor in zip(build_subarrays(params), (params.n, params.m)):
        rows = [parent_index[g * factor] for g in sub.grid]
        inputs.append(replace(snapshots, layout=sub, y=snapshots.y[rows, :]))
    return two_phase(inputs, layout, config)
