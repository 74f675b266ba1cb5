"""Scenario files: geometry, targets, and synthesis settings in one JSON."""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .channel import _MODELS, SnapshotSet, Target, TargetSet, noise_power, synthesize
from .geometry import CoprimeParams, SensorLayout, build_coprime_layout, max_targets
from .geometry import _dense_layout, _integer, _positive, _real

__all__ = ["SPEED_OF_LIGHT", "Scenario", "default_benchmark_scenario"]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class Scenario:
    """A complete synthetic measurement setup.

    ``params`` is the coprime array (M, N, spacing and wavelength, checked
    once when it is built), ``targets`` the ground truth, and
    ``n_snapshots``, ``snr_db`` (None for noise-free), ``seed`` and
    ``model`` the synthesis settings.  A file and a direct call take one
    validation path: T and seed are stored as ints (:func:`canf.geometry._integer`)
    and ``snr_db`` as a float (:func:`canf.geometry._real`) whose noise
    power :func:`canf.channel.noise_power` accepts.

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
        # Checked here so that a bad file or call fails when it is built, not
        # later inside synthesis or in every Monte Carlo trial.
        object.__setattr__(self, "n_snapshots", _integer("T", self.n_snapshots, least=1))
        if self.snr_db is not None:
            object.__setattr__(self, "snr_db", _real("snr_db", self.snr_db))
        noise_power(self.snr_db)  # the SNR rule: no NaN, -inf or overflowing noise
        object.__setattr__(self, "seed", _integer("seed", self.seed, least=0))
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
        key, ``targets`` that are not a list of objects, an ``M`` or ``N``
        that is not an integer of at least 1, a ``theta_deg`` that is not a
        number, a ``d_mm``, ``freq_ghz`` or ``range_m`` that is not finite
        and positive, or a ``d_mm`` or ``freq_ghz`` that gives a spacing or
        wavelength that is not (each by its key's name), or a value the
        constructors reject, and warning when the targets exceed the
        decoupled capacity ``max_targets(M, N)[0]``.  ``T``, ``snr_db``,
        ``seed`` and ``model`` are only mapped to the fields that check
        them."""
        if not isinstance(data, dict):
            raise ValueError(f"scenario must be an object, got {data!r}")
        _require(data, ("M", "N", "targets"), "scenario")
        entries = data["targets"]
        if not (isinstance(entries, list) and all(isinstance(t, dict) for t in entries)):
            raise ValueError(f"targets must be a list of objects, got {entries!r}")
        for i, t in enumerate(entries):
            _require(t, ("theta_deg", "range_m"), f"scenario target {i}")
        d, wavelength = _spacing_and_wavelength(data.get("d_mm"), data.get("freq_ghz"))
        targets = TargetSet(
            tuple(
                Target.from_degrees(t["theta_deg"], _positive("range_m", t["range_m"]))
                for t in entries
            )
        )
        m, n = _integer("M", data["M"], least=1), _integer("N", data["N"], least=1)
        params = CoprimeParams(m, n, d, wavelength)
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
            n_snapshots=data.get("T", 100),
            snr_db=data.get("snr_db"),
            seed=data.get("seed", 0),
            model=data.get("model", "exact"),
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
    """Spacing and wavelength in meters, from finite and positive numbers
    (:func:`canf.geometry._positive`) or None, not both None: the wavelength
    from the carrier, else four spacings; the spacing from ``d_mm``, else a
    quarter wavelength.  A spacing or wavelength that underflows to 0 or
    overflows is rejected by the same rule, under the key it came from."""
    if d_mm is None and freq_ghz is None:
        raise ValueError("give d_mm and/or freq_ghz")
    if d_mm is not None:
        mm = _positive("d_mm", d_mm)
        d = _positive(f"the spacing from d_mm={d_mm!r}", mm * 1e-3)
    if freq_ghz is None:
        wavelength = _positive(f"the wavelength from d_mm={d_mm!r}", 4.0 * mm * 1e-3)
    else:
        hz = _positive("freq_ghz", freq_ghz) * 1e9
        wavelength = _positive(f"the wavelength from freq_ghz={freq_ghz!r}", SPEED_OF_LIGHT / hz)
    if d_mm is None:
        d = wavelength / 4.0
    return d, wavelength


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
