"""Scenario files: geometry, targets, and synthesis settings in one JSON."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .channel import _MODELS, SnapshotSet, Target, TargetSet, synthesize
from .geometry import CoprimeParams, SensorLayout, build_coprime_layout, max_targets
from .geometry import _dense_layout, _is_integer

__all__ = ["SPEED_OF_LIGHT", "Scenario", "default_benchmark_scenario"]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class Scenario:
    """A complete synthetic measurement setup.

    ``params`` is the coprime array (M, N, spacing and wavelength, checked
    once when it is built), ``targets`` the ground truth, and
    ``n_snapshots``, ``snr_db`` (None for noise-free), ``seed`` and
    ``model`` the synthesis settings.

    JSON schema: ``{"M": int, "N": int, "d_mm": float and/or "freq_ghz":
    float, "targets": [{"theta_deg": float, "range_m": float}, ...],
    "T": int, "snr_db": float | null, "seed": int, "model": "exact" |
    "fresnel"}``.  When only ``freq_ghz`` is given the spacing defaults to
    a quarter wavelength; when only ``d_mm`` is given the wavelength
    defaults to four spacings.  ``CoprimeParams`` orders the pair, so a
    file with M > N saves with M <= N, the order its layout uses.
    """

    params: CoprimeParams
    targets: TargetSet
    n_snapshots: int
    snr_db: float | None
    seed: int
    model: str = "exact"

    def __post_init__(self) -> None:
        # Checked here so that a bad file fails when it is loaded, not
        # later inside synthesis or in every Monte Carlo trial.
        if self.n_snapshots < 1:
            raise ValueError(f"T must be at least 1, got {self.n_snapshots}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")

    def layout(self) -> SensorLayout:
        return build_coprime_layout(self.params)

    def dense_layout(self) -> SensorLayout:
        """Dense comparison layout with the same sensor count and spacing.  The
        spacing was checked when ``params`` was built, so it does not warn again."""
        return _dense_layout(self.layout().size, self.params.d, self.params.wavelength)

    def snapshots(self, seed: int | None = None) -> SnapshotSet:
        """Synthesize on the coprime layout at the scenario's SNR, from its
        seed unless ``seed`` is given.

        A ``snr_db`` of None is noise-free, as in :func:`synthesize`; for
        another SNR use ``dataclasses.replace(scenario, snr_db=...)``.
        """
        return synthesize(
            self.layout(),
            self.targets,
            self.n_snapshots,
            self.snr_db,
            self.seed if seed is None else seed,
            self.model,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Load a scenario, rejecting data that is not an object, a missing
        key, ``targets`` that are not a list of objects, an ``M``, ``N``,
        ``T`` or ``seed`` that is not an integer, a ``d_mm``, ``freq_ghz``,
        ``snr_db``, ``theta_deg`` or ``range_m`` that is not a number, or a
        value the constructor rejects (an unknown ``model``, say), and
        warning when the targets exceed the decoupled capacity
        ``max_targets(M, N)[0]``."""
        if not isinstance(data, dict):
            raise ValueError(f"scenario must be an object, got {data!r}")
        _require(data, ("M", "N", "targets"), "scenario")
        entries = data["targets"]
        if not (isinstance(entries, list) and all(isinstance(t, dict) for t in entries)):
            raise ValueError(f"targets must be a list of objects, got {entries!r}")
        for i, t in enumerate(entries):
            _require(t, ("theta_deg", "range_m"), f"scenario target {i}")
        d_mm = _number(data, "d_mm", nullable=True)
        freq_ghz = _number(data, "freq_ghz", nullable=True)
        if d_mm is None and freq_ghz is None:
            raise ValueError("scenario needs d_mm and/or freq_ghz")
        d, wavelength = _spacing_and_wavelength(d_mm, freq_ghz)
        targets = TargetSet(
            tuple(
                Target.from_degrees(_number(t, "theta_deg"), _number(t, "range_m"))
                for t in entries
            )
        )
        params = CoprimeParams(_integer(data, "M"), _integer(data, "N"), d, wavelength)
        k_max = max_targets(params.m, params.n)[0]
        if len(targets) > k_max:
            msg = (
                f"{len(targets)} targets exceed the capacity {k_max} "
                f"of M={params.m}, N={params.n}"
            )
            warnings.warn(msg, UserWarning, stacklevel=2)
        return cls(
            params=params,
            targets=targets,
            n_snapshots=_integer(data, "T", 100),
            snr_db=_number(data, "snr_db", nullable=True),
            seed=_integer(data, "seed", 0),
            model=str(data.get("model", "exact")),
        )

    def to_dict(self) -> dict:
        return {
            "M": self.params.m,
            "N": self.params.n,
            "d_mm": self.params.d * 1e3,
            "freq_ghz": SPEED_OF_LIGHT / self.params.wavelength / 1e9,
            "targets": [
                {"theta_deg": t.theta_deg, "range_m": t.r} for t in self.targets
            ],
            "T": self.n_snapshots,
            "snr_db": self.snr_db,
            "seed": self.seed,
            "model": self.model,
        }

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _spacing_and_wavelength(d_mm, freq_ghz) -> tuple[float, float]:
    """Spacing and wavelength in meters: the wavelength from the carrier, else
    four spacings; the spacing from ``d_mm``, else a quarter wavelength."""
    if freq_ghz is None:
        wavelength = 4.0 * float(d_mm) * 1e-3
    elif 0.0 < float(freq_ghz) < math.inf:
        wavelength = SPEED_OF_LIGHT / (float(freq_ghz) * 1e9)
    else:
        raise ValueError(f"freq_ghz must be positive and finite, got {freq_ghz!r}")
    d = wavelength / 4.0 if d_mm is None else float(d_mm) * 1e-3
    return d, wavelength


def _integer(data: dict, key: str, default: int | None = None) -> int:
    """``data[key]``, else ``default``, if an integer as ``CoprimeParams``
    reads one: an int or an integral float, not a bool."""
    value = data.get(key, default)
    if not _is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(data: dict, key: str, nullable: bool = False) -> float | None:
    """``data[key]`` as a float if an int or a float (not a bool); an absent or
    null key gives ``None`` where ``nullable``."""
    value = data.get(key)
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _require(data: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(map(repr, missing))}")


def default_benchmark_scenario(snr_db: float | None = 10.0, seed: int = 0) -> Scenario:
    """Four-target 30 GHz setup on the (9, 11) coprime array.

    Two of the targets share the 30-degree angle and differ only in range,
    which is what makes the scenario a meaningful stress test.
    """
    wavelength = SPEED_OF_LIGHT / 30e9
    targets = TargetSet(
        (
            Target.from_degrees(-35.0, 25.0),
            Target.from_degrees(10.0, 30.0),
            Target.from_degrees(30.0, 20.0),
            Target.from_degrees(30.0, 40.0),
        )
    )
    return Scenario(
        params=CoprimeParams(9, 11, wavelength / 4.0, wavelength),
        targets=targets,
        n_snapshots=100,
        snr_db=snr_db,
        seed=seed,
        model="exact",
    )
