"""Near-field steering vectors and synthetic snapshot generation.

Angles are radians internally (degrees only at CLI / file boundaries).
All steering entries are unit modulus; the phase convention is fixed by the
quadratic (Fresnel) expansion ``exp(j * (p_u + q_u))`` with

    p_u(theta)    = -s_u * 2*pi * sin(theta) / lambda
    q_u(theta, r) =  s_u^2 * pi * cos(theta)^2 / (lambda * r)

and the exact spherical-wavefront vector uses the same sign family so the
two models agree in the far-field limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SensorLayout

__all__ = [
    "Target",
    "TargetSet",
    "SnapshotSet",
    "fresnel_phase_terms",
    "steering_exact",
    "steering_fresnel",
    "synthesize",
]


@dataclass(frozen=True)
class Target:
    """One point target at broadside angle ``theta`` (rad) and range ``r`` (m)."""

    theta: float
    r: float

    def __post_init__(self) -> None:
        if not (-math.pi / 2 < self.theta < math.pi / 2):
            raise ValueError("theta must lie in (-pi/2, pi/2)")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"range must be finite and positive, got {self.r!r}")

    @classmethod
    def from_degrees(cls, theta_deg: float, r: float) -> "Target":
        return cls(math.radians(theta_deg), r)

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)


@dataclass(frozen=True)
class TargetSet:
    """Ground-truth targets for a scenario."""

    targets: tuple[Target, ...]

    def __post_init__(self) -> None:
        if len(self.targets) == 0:
            raise ValueError("a scenario needs at least one target")

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self):
        return iter(self.targets)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t.theta for t in self.targets])

    @property
    def ranges(self) -> np.ndarray:
        return np.array([t.r for t in self.targets])


def fresnel_phase_terms(
    layout: SensorLayout, theta: float, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sensor linear and quadratic phase terms (p_u, q_u) in radians.

    p is odd and q is even under the sensor mirror s -> -s; the covariance
    decoupling rests on exactly this parity split.
    """
    s = layout.positions
    lam = layout.wavelength
    p = -s * 2.0 * np.pi * np.sin(theta) / lam
    q = s**2 * np.pi * np.cos(theta) ** 2 / (lam * r)
    return p, q


def steering_exact(layout: SensorLayout, target: Target) -> np.ndarray:
    """Spherical-wavefront steering vector.

    Element u is ``exp(j * (2*pi/lambda) * (d_u - r))`` with
    ``d_u = sqrt(r^2 + s_u^2 - 2 r s_u sin(theta))``; the excess path is
    evaluated as ``(s_u^2 - 2 r s_u sin(theta)) / (d_u + r)`` to avoid
    cancellation at long range.
    """
    s = layout.positions
    r = target.r
    num = s**2 - 2.0 * r * s * np.sin(target.theta)
    dist = np.sqrt(r**2 + num)
    excess = num / (dist + r)
    return np.exp(1j * 2.0 * np.pi / layout.wavelength * excess)


def steering_fresnel(layout: SensorLayout, target: Target) -> np.ndarray:
    """Quadratic-phase (Fresnel) steering vector, ``exp(j*(p_u + q_u))``."""
    p, q = fresnel_phase_terms(layout, target.theta, target.r)
    return np.exp(1j * (p + q))


_MODELS = ("exact", "fresnel")


def steering_matrix(
    layout: SensorLayout, targets: TargetSet, model: str = "exact"
) -> np.ndarray:
    """Stacked steering vectors, one column per target."""
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}, got {model!r}")
    fn = steering_exact if model == "exact" else steering_fresnel
    return np.column_stack([fn(layout, t) for t in targets])


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Received snapshots plus the known source waveforms.

    ``y`` is (U, T) complex, ``x`` is (K, T) complex with unit average power
    per source, ``sigma2`` the noise variance actually applied.  ``snr_db``
    is None for noise-free synthesis.  The generating layout travels with
    the data so estimators are self-contained.
    """

    layout: SensorLayout
    y: np.ndarray
    x: np.ndarray
    sigma2: float
    snr_db: float | None
    seed: int
    model: str

    @property
    def n_snapshots(self) -> int:
        return self.y.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.y.shape[0]


_INV_SQRT2 = 1.0 / math.sqrt(2.0)  # one ulp below math.sqrt(0.5); see synthesize


def synthesize(
    layout: SensorLayout,
    targets: TargetSet,
    n_snapshots: int,
    snr_db: float | None,
    seed: int,
    model: str = "exact",
) -> SnapshotSet:
    """Draw snapshots ``y(t) = B x(t) + z(t)`` for uncorrelated targets.

    Sources are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; noise is CSCG with ``sigma2 = 10**(-snr_db/10)`` (per-source
    transmit SNR).  ``snr_db=None`` (or +inf) disables noise; NaN, -inf and
    an SNR so low that ``sigma2`` overflows are rejected.

    The draw is fully determined by ``seed``, in a fixed order that keeps
    every output bitwise stable: one ``standard_normal`` call of
    ``(2K + 2U, T)`` normals (``(2K, T)`` when noise-free), whose row blocks
    are, in order, the real and imaginary parts of ``x`` and then of ``z``.
    ``x`` is its block times ``1 / sqrt(2)`` (the float ``1.0 /
    math.sqrt(2.0)``: complex division by ``sqrt(2)`` multiplies by it), and
    ``y`` is ``B @ x`` with ``sqrt(sigma2 / 2)`` times each noise block
    added to its real or imaginary part.  Apart from the draw itself, only
    ``x`` and ``y`` are allocated at full size.
    """
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if snr_db is not None and (math.isnan(snr_db) or snr_db == -math.inf):
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db!r}")
    if snr_db is None or snr_db == math.inf:
        sigma2, snr_db = 0.0, None
    else:
        try:
            sigma2 = 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:
            raise ValueError(
                f"snr_db={snr_db!r} is too low: its noise power overflows a float"
            ) from None
    k, u = len(targets), layout.size
    b = steering_matrix(layout, targets, model)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((2 * k + (0 if snr_db is None else 2 * u), n_snapshots))
    x = np.empty((k, n_snapshots), dtype=complex)
    np.multiply(draws[:k], _INV_SQRT2, out=x.real)
    np.multiply(draws[k : 2 * k], _INV_SQRT2, out=x.imag)
    y = b @ x
    if snr_db is not None:
        noise = draws[2 * k :]
        noise *= math.sqrt(sigma2 / 2.0)
        y.real += noise[:u]
        y.imag += noise[u:]
    return SnapshotSet(layout, y, x, sigma2, snr_db, seed, model)
