"""Symmetric coprime / dense array geometry and difference coarrays.

Sensor positions are stored as integer multiples of the base spacing ``d``,
so coarray bookkeeping (lag sets, multiplicities, consecutive runs) is exact
integer arithmetic; meters appear only at the API surface.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CoprimeParams",
    "SensorLayout",
    "CoarrayLayout",
    "build_coprime_layout",
    "build_dense_layout",
    "build_subarrays",
    "difference_coarray",
    "max_targets",
]


def _check_spacing(d: float, wavelength: float, stacklevel: int) -> None:
    """Warn when the spacing exceeds lambda/4, at ``stacklevel`` (this
    function is level 1), which each constructor sets to its caller's line."""
    # Spacing above lambda/4 aliases the doubled-position (self-spectrum)
    # steering; kept as a warning so the ambiguity can be studied on purpose.
    if d > wavelength / 4.0 * (1.0 + 1e-12):
        msg = (
            f"spacing d={d:g} m exceeds lambda/4={wavelength / 4.0:g} m; "
            "angle estimates may be ambiguous"
        )
        warnings.warn(msg, UserWarning, stacklevel=stacklevel)


@dataclass(frozen=True)
class CoprimeParams:
    """Coprime integer pair with base spacing and carrier wavelength.

    ``m`` and ``n`` are normalized so that ``m < n``.  ``d`` is the minimum
    inter-sensor spacing in meters; ``wavelength`` is the carrier wavelength
    in meters, both finite and positive (:func:`_positive`).  A spacing
    above lambda/4 warns; it does not raise.
    """

    m: int
    n: int
    d: float
    wavelength: float

    def __post_init__(self) -> None:
        m, n = sorted(_coprime_pair(self.m, self.n))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", _positive("d", self.d))
        object.__setattr__(self, "wavelength", _positive("wavelength", self.wavelength))
        # Level 3 is the dataclass-generated __init__, level 4 its caller.
        _check_spacing(self.d, self.wavelength, stacklevel=4)


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int if it is an int or an integral float (numpy's
    included), not a bool, and at least ``least`` if that is given: the one
    integer rule of every config field and scenario file key.  A real too
    large for a float is rejected by name, without its digits, as
    :func:`_real` does."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and _real(name, value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and int(value) < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float if it is a real number (numpy's included), not a
    bool: the one number rule of every config field and scenario file key.
    An integer too large for a float is rejected by name, without its
    digits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _positive(name: str, value) -> float:
    """``value`` as a float (:func:`_real`) if it is finite and above 0: the
    one rule of every spacing, wavelength, carrier, range, step and scale."""
    number = _real(name, value)
    if not 0.0 < number < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


def _coprime_pair(m, n) -> tuple[int, int]:
    """``(m, n)`` as ints if both are integers (:func:`_integer`) of at
    least 1, distinct and coprime."""
    m, n = _integer("m", m, least=1), _integer("n", n, least=1)
    if m == n:
        raise ValueError("coprime pair must be two distinct integers")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} are not coprime")
    return m, n


@dataclass(frozen=True)
class SensorLayout:
    """A linear array on the integer grid ``positions = grid * d``.

    ``coprime`` holds the generating parameters of a coprime layout, the
    only record that it is one, and is None for a dense array or subarray.
    """

    grid: tuple[int, ...]
    d: float
    wavelength: float
    coprime: CoprimeParams | None = None

    def __post_init__(self) -> None:
        g = self.grid
        if len(g) == 0:
            raise ValueError("layout needs at least one sensor")
        if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
            raise ValueError("grid positions must be strictly ascending")

    @property
    def positions(self) -> np.ndarray:
        """Sensor positions in meters, ascending."""
        return np.asarray(self.grid, dtype=float) * self.d

    @property
    def size(self) -> int:
        return len(self.grid)

    @property
    def is_symmetric(self) -> bool:
        g = self.grid
        return all(g[i] == -g[len(g) - 1 - i] for i in range(len(g)))

    @property
    def aperture(self) -> float:
        """End-to-end extent in meters."""
        return (self.grid[-1] - self.grid[0]) * self.d

    @property
    def fresnel_distance(self) -> float:
        """Inner boundary of the usable near-field region, 1.2 * aperture."""
        return 1.2 * self.aperture

    @property
    def rayleigh_distance(self) -> float:
        """Outer boundary of the near-field region, 2 * aperture^2 / lambda."""
        return 2.0 * self.aperture**2 / self.wavelength


@dataclass(frozen=True)
class CoarrayLayout:
    """Difference coarray of a layout, in units of its spacing ``layout.d``.

    ``lags`` is the sorted unique difference set, ``multiplicity`` the number
    of sensor pairs generating each lag.  ``consecutive_segment`` is the
    maximal zero-centered run of step-1 lags; ``smoothing_segment`` is the
    central part of it (all of it but for coprime layouts) used for smoothing.
    """

    lags: tuple[int, ...]
    multiplicity: tuple[int, ...]
    consecutive_segment: tuple[int, ...]
    smoothing_segment: tuple[int, ...]


def build_coprime_layout(params: CoprimeParams) -> SensorLayout:
    """Symmetric coprime array: {m*k*d, |k| < n} union {n*k*d, |k| < m}.

    The two generating sub-grids share only the origin, so the array has
    2(m + n - 1) - 1 sensors.
    """
    m, n = params.m, params.n
    grid = sorted(
        {m * k for k in range(-n + 1, n)} | {n * k for k in range(-m + 1, m)}
    )
    return SensorLayout(tuple(grid), params.d, params.wavelength, params)


def build_dense_layout(u: int, d: float, wavelength: float) -> SensorLayout:
    """Uniform symmetric array with an odd number ``u`` of sensors, at a
    finite and positive spacing and wavelength (:func:`_positive`)."""
    d, wavelength = _positive("d", d), _positive("wavelength", wavelength)
    layout = _dense_layout(_integer("u", u), d, wavelength)
    _check_spacing(d, wavelength, stacklevel=3)
    return layout


def _dense_layout(u: int, d: float, wavelength: float) -> SensorLayout:
    """:func:`build_dense_layout` without the spacing check, for a spacing
    and wavelength already checked."""
    if u < 1 or u % 2 == 0:
        raise ValueError("dense layout needs an odd, positive sensor count")
    half = (u - 1) // 2
    return SensorLayout(tuple(range(-half, half + 1)), d, wavelength)


def build_subarrays(params: CoprimeParams) -> tuple[SensorLayout, SensorLayout]:
    """The two uniform sparse subarrays whose union is the coprime array.

    Subarray 1 has 2m - 1 sensors at spacing n*d; subarray 2 has 2n - 1
    sensors at spacing m*d.  Each is returned on its own integer grid (unit
    = its spacing) without coprime parameters, so the generic coarray
    machinery applies unchanged and smooths over the full consecutive run.
    The > lambda/4 spacing of these grids is inherent, so no ambiguity
    diagnostic is emitted here.
    """
    m, n = params.m, params.n
    sub1 = SensorLayout(tuple(range(-m + 1, m)), n * params.d, params.wavelength)
    sub2 = SensorLayout(tuple(range(-n + 1, n)), m * params.d, params.wavelength)
    return sub1, sub2


@lru_cache(maxsize=64)
def difference_coarray(layout: SensorLayout) -> CoarrayLayout:
    """Difference set of a layout with its zero-centered consecutive run.

    The smoothing segment is the central ``2*m*n + 1`` lags for a layout with
    coprime parameters (the guaranteed hole-free span, asserted here) and
    the full consecutive run otherwise.  Lags are in units of ``layout.d``.
    The run is read from the positive lags alone: every sensor gives lag 0
    with itself, and a difference set is symmetric.
    """
    g = np.asarray(layout.grid, dtype=int)
    diffs = (g[:, None] - g[None, :]).ravel()
    lags, counts = np.unique(diffs, return_counts=True)

    present = set(int(v) for v in lags)
    half = 0
    while (half + 1) in present:
        half += 1
    consecutive = tuple(range(-half, half + 1))

    segment = consecutive
    if layout.coprime is not None:
        mn = layout.coprime.m * layout.coprime.n
        if half < mn:
            raise AssertionError(
                f"coprime coarray run [{-half}, {half}] shorter than expected 2*{mn}+1"
            )
        segment = tuple(range(-mn, mn + 1))

    return CoarrayLayout(
        lags=tuple(int(v) for v in lags),
        multiplicity=tuple(int(c) for c in counts),
        consecutive_segment=consecutive,
        smoothing_segment=segment,
    )


def max_targets(m: int, n: int) -> tuple[int, int]:
    """Capacity of the decoupled-coarray and subarray estimators.

    The decoupled route spends one virtual component per target plus one per
    unordered target pair, so the largest feasible count K_v satisfies
    K_v (K_v + 1) / 2 <= m*n + 1.  The subarray route is limited to
    K_p = min(m, n).  ``m`` and ``n`` are checked as :class:`CoprimeParams`
    checks them.
    """
    m, n = _coprime_pair(m, n)
    budget = m * n + 1
    k_v = (math.isqrt(8 * budget + 1) - 1) // 2
    k_p = min(m, n)
    return k_v, k_p
