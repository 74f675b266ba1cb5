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
import queue
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ._helper import beside
from .geometry import SensorLayout, _integer, _real

__all__ = [
    "Target",
    "TargetSet",
    "SnapshotSet",
    "fresnel_phase_terms",
    "steering_exact",
    "steering_fresnel",
    "noise_power",
    "synthesize",
    "synthesize_sweep",
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


_INV_SQRT2 = 1.0 / math.sqrt(2.0)  # one ulp below math.sqrt(0.5); see synthesize
DRAW_BLOCK = 1 << 14  # most normals synthesize draws per call into its buffer
HANDOFF_ROWS = 8  # noise rows per chunk a helper draws when T > DRAW_BLOCK


def noise_power(snr_db: float | None) -> float:
    """The noise variance ``sigma2 = 10**(-snr_db/10)`` of a per-source
    transmit SNR; 0 for ``snr_db=None`` or +inf (no noise).

    Raises ValueError for a value that is not a real number
    (:func:`canf.geometry._real`: a bool, a string), NaN, -inf and an SNR so
    low that ``sigma2`` overflows a float.
    """
    if snr_db is None:
        return 0.0
    snr = _real("snr_db", snr_db)
    if math.isnan(snr) or snr == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db!r}")
    if snr == math.inf:
        return 0.0
    try:
        return 10.0 ** (-snr / 10.0)
    except OverflowError:
        raise ValueError(
            f"snr_db={snr_db!r} is too low: its noise power overflows a float"
        ) from None


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
    transmit SNR, :func:`noise_power`).  ``snr_db=None`` (or +inf) disables
    noise, here as in :meth:`canf.Scenario.snapshots` and everywhere else;
    NaN, -inf and an SNR so low that ``sigma2`` overflows are rejected.

    The draw is fully determined by ``seed``, in a fixed order that keeps
    every output bitwise stable: the rows of one ``(2K + 2U, T)`` array of
    standard normals (``(2K, T)`` when noise-free), whose row blocks are, in
    order, the real and imaginary parts of ``x`` and then of ``z``.  ``x`` is
    its block times ``1 / sqrt(2)`` (the float ``1.0 / math.sqrt(2.0)``:
    complex division by ``sqrt(2)`` multiplies by it), and ``y`` is ``B @ x``
    with ``sqrt(sigma2 / 2)`` times each noise block added to its real or
    imaginary part.  The rows are drawn in order into one reused buffer of
    at most :data:`DRAW_BLOCK` normals (one row when ``T`` is larger), which
    draws the same bits as one bulk call, and each noise block is scaled in
    that buffer once it is spent, so only ``x`` and ``y`` are allocated at
    full size.

    With noise and ``T > DRAW_BLOCK``, one helper thread
    (:func:`canf._helper.beside`) draws the ``2U`` noise rows, once the
    caller has drawn ``x``: in order, :data:`HANDOFF_ROWS` rows of one part
    at a time, into two buffers in turn.  Meanwhile the caller forms
    ``B @ x`` and then adds each chunk as the helper finishes it.  numpy
    fills a buffer from the generator without the GIL, so the draw runs on
    one core while ``B @ x`` and the adds run on the other.  One thread
    draws every noise row in stream order, and each entry of ``y`` still
    takes one scaled normal in one add, so the output is bitwise the serial
    draw's.  The helper is started per call and joined before it returns,
    not kept in a pool, whose thread would not survive the fork of a worker
    process and, woken on a 2-core host, ran slower than a new thread
    (:mod:`canf._helper`).  It starts before the caller forms ``B @ x``:
    forming ``B @ x`` first made a T = 20000 call take 44.8 ms against
    34.1 ms there.  This is the one-SNR case of :func:`synthesize_sweep`.
    """
    (snaps,) = synthesize_sweep(layout, targets, n_snapshots, (snr_db,), seed, model)
    return snaps


def synthesize_sweep(
    layout: SensorLayout,
    targets: TargetSet,
    n_snapshots: int,
    snr_db_list: Sequence[float | None],
    seed: int,
    model: str = "exact",
) -> tuple[SnapshotSet, ...]:
    """One draw of :func:`synthesize` at every SNR of ``snr_db_list``.

    Entry ``i`` is bitwise ``synthesize(..., snr_db_list[i], ...)``: the
    same ``x`` and ``B @ x`` serve every SNR, and each noise row block is
    drawn once and added, scaled by each noisy SNR's ``sqrt(sigma2 / 2)``
    in turn, with the same two roundings as a single-SNR call (the last
    noisy SNR's scaling goes into the spent block, every other into one
    scratch buffer of the block's size).  Each set owns its ``y`` and ``x``,
    so the call holds ``len(snr_db_list)`` of each; the caller bounds the
    list when ``T`` is large.

    ``n_snapshots`` (at least 1) and ``seed`` (at least 0) must be integers
    (:func:`canf.geometry._integer`), and every SNR None or a real number
    (:func:`noise_power`).  All are checked before anything is drawn, and
    each set records its seed as an int and its SNR as a float.
    """
    n_snapshots, seed = _integer("n_snapshots", n_snapshots), _integer("seed", seed)
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sigma2s = [noise_power(snr) for snr in snr_db_list]
    if not sigma2s:
        raise ValueError("snr_db_list must hold at least one SNR")
    has_noise = [snr is not None and snr != math.inf for snr in snr_db_list]
    noisy = [i for i, flag in enumerate(has_noise) if flag]
    k, u = len(targets), layout.size
    b = steering_matrix(layout, targets, model)
    rng = np.random.default_rng(seed)
    # With noise and T > DRAW_BLOCK, a helper draws the noise rows (see
    # synthesize) while the caller forms B @ x and adds each chunk.
    handed = bool(noisy) and n_snapshots > DRAW_BLOCK
    per_draw = HANDOFF_ROWS if handed else max(DRAW_BLOCK // n_snapshots, 1)
    buffers = [np.empty((min(per_draw, max(k, u)), n_snapshots)) for _ in range(1 + handed)]

    def spans(n_rows: int) -> list[tuple[int, int]]:
        # (first row, rows) of each draw of the next n_rows rows.
        return [(start, min(per_draw, n_rows - start)) for start in range(0, n_rows, per_draw)]

    x = np.empty((k, n_snapshots), dtype=complex)
    for part in (x.real, x.imag):
        for start, n in spans(k):
            block = rng.standard_normal(out=buffers[0][:n])
            np.multiply(block, _INV_SQRT2, out=part[start : start + n])
    noise = [(part, start, n) for part in ("real", "imag") for start, n in spans(u) if noisy]
    if handed:
        free, ready = queue.SimpleQueue(), queue.SimpleQueue()
        for buffer in buffers:
            free.put(buffer)

        def draw() -> None:
            try:
                for _, _, n in noise:
                    buffer = free.get()
                    if buffer is None:
                        return
                    rng.standard_normal(out=buffer[:n])
                    ready.put(buffer)
            finally:
                ready.put(None)

        def filled():
            while (buffer := ready.get()) is not None:
                yield buffer
                free.put(buffer)

        helper = beside(draw, stop=lambda: free.put(None))
    else:

        def filled():
            for _, _, n in noise:
                rng.standard_normal(out=buffers[0][:n])
                yield buffers[0]

        helper = nullcontext()
    with helper:
        clean = b @ x
        # The last set takes clean and x themselves, every other set a copy.
        ys = [clean.copy() for _ in sigma2s[1:]] + [clean]
        xs = [x.copy() for _ in sigma2s[1:]] + [x]
        scales = [(ys[i], math.sqrt(sigma2s[i] / 2.0)) for i in noisy]
        scaled = np.empty_like(buffers[0]) if len(noisy) > 1 else None
        for (part, start, n), buffer in zip(noise, filled()):
            block = buffer[:n]
            # Every noisy set but the last scales into scratch; the last
            # scales the drawn block itself, which is spent after it.
            for y, scale in scales[:-1]:
                getattr(y, part)[start : start + n] += np.multiply(block, scale, out=scaled[:n])
            y, scale = scales[-1]
            getattr(y, part)[start : start + n] += np.multiply(block, scale, out=block)
    return tuple(
        SnapshotSet(layout, y, x, sigma2, float(snr) if flag else None, seed, model)
        for y, x, sigma2, snr, flag in zip(ys, xs, sigma2s, snr_db_list, has_noise)
    )
