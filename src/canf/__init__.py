"""canf: near-field multi-target localization with symmetric coprime arrays.

The pipeline decouples angle and range through an anti-diagonal covariance
product, restores rank on the difference coarray by decomposing its Toeplitz
matrix (the spatially smoothed covariance's eigenpairs, without smoothing),
and localizes with a two-phase MUSIC search (angles first, then ranges with
true/cross classification).  Dense-array, far-field virtual-array and
subarray baselines plus a Monte Carlo RMSE harness ride on the same
primitives.
"""

from .baselines import (
    AngleOnlyResult,
    localize_dense,
    localize_farfield_virtual,
    localize_subarray,
)
from .bench import (
    Detections,
    MonteCarloConfig,
    RmseReport,
    associate,
    rmse,
    run_monte_carlo,
    score_detections,
)
from .channel import (
    SnapshotSet,
    Target,
    TargetSet,
    steering_exact,
    steering_fresnel,
    synthesize,
    synthesize_sweep,
)
from .covariance import (
    CovarianceBundle,
    build_bundle,
    covariance_ls,
    covariance_sample,
    decouple,
    spatial_smooth,
    vectorize_to_coarray,
)
from .geometry import (
    CoarrayLayout,
    CoprimeParams,
    SensorLayout,
    build_coprime_layout,
    build_dense_layout,
    build_subarrays,
    difference_coarray,
    max_targets,
)
from .music import (
    ClassifiedTarget,
    LocalizationResult,
    MusicConfig,
    PseudoSpectrum,
    SpectrumGrid,
    angle_spectrum,
    detect_peaks,
    eig_hermitian,
    localize,
    range_spectrum,
)
from .scenario import Scenario, default_benchmark_scenario

__version__ = "0.1.0"

__all__ = [
    "AngleOnlyResult",
    "ClassifiedTarget",
    "CoarrayLayout",
    "CoprimeParams",
    "CovarianceBundle",
    "Detections",
    "LocalizationResult",
    "MonteCarloConfig",
    "MusicConfig",
    "PseudoSpectrum",
    "RmseReport",
    "Scenario",
    "SensorLayout",
    "SnapshotSet",
    "SpectrumGrid",
    "Target",
    "TargetSet",
    "angle_spectrum",
    "associate",
    "build_bundle",
    "build_coprime_layout",
    "build_dense_layout",
    "build_subarrays",
    "covariance_ls",
    "covariance_sample",
    "decouple",
    "default_benchmark_scenario",
    "detect_peaks",
    "difference_coarray",
    "eig_hermitian",
    "localize",
    "localize_dense",
    "localize_farfield_virtual",
    "localize_subarray",
    "max_targets",
    "range_spectrum",
    "rmse",
    "run_monte_carlo",
    "score_detections",
    "spatial_smooth",
    "steering_exact",
    "steering_fresnel",
    "synthesize",
    "synthesize_sweep",
    "vectorize_to_coarray",
]
