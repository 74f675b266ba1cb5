"""Command-line interface: geometry inspection, snapshot simulation,
spectrum dumps and Monte Carlo sweeps.

All outputs are deterministic for a fixed seed: repeated invocations write
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation, Overflow
from pathlib import Path

import numpy as np

from .bench import METHODS, MonteCarloConfig, _fmt, _write_lines, run_monte_carlo
from .covariance import covariance_ls
from .geometry import CoprimeParams, build_coprime_layout, difference_coarray, max_targets
from .music import MusicConfig, SpectrumGrid, localize
from .scenario import Scenario, _spacing_and_wavelength

__all__ = ["main"]

MAX_SNR_POINTS = 1000  # most SNR values a start:step:stop range may expand to


@contextmanager
def _usage_errors(command: str):
    """Report a ValueError raised while checking inputs, or an OSError raised
    while reading them, as a usage error."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _geometry_summary(params: CoprimeParams) -> dict:
    layout = build_coprime_layout(params)
    coarray = difference_coarray(layout)
    k_v, k_p = max_targets(params.m, params.n)
    return {
        "m": params.m,
        "n": params.n,
        "d_mm": params.d * 1e3,
        "wavelength_mm": params.wavelength * 1e3,
        "n_sensors": layout.size,
        "positions_d": list(layout.grid),
        "aperture_m": layout.aperture,
        "fresnel_distance_m": layout.fresnel_distance,
        "rayleigh_distance_m": layout.rayleigh_distance,
        "coarray_lags": list(coarray.lags),
        "consecutive_segment": [
            coarray.consecutive_segment[0],
            coarray.consecutive_segment[-1],
        ],
        "smoothing_segment": [
            coarray.smoothing_segment[0],
            coarray.smoothing_segment[-1],
        ],
        "max_targets_decoupled": k_v,
        "max_targets_subarray": k_p,
    }


def _cmd_geometry(args: argparse.Namespace) -> int:
    if args.freq_ghz is None and args.d_mm is None:
        raise SystemExit("geometry: provide --freq-ghz and/or --d-mm")
    with _usage_errors("geometry"):
        d, wavelength = _spacing_and_wavelength(args.d_mm, args.freq_ghz)
        info = _geometry_summary(CoprimeParams(args.m, args.n, d, wavelength))
    if args.format == "json":
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        for key in sorted(info):
            value = info[key]
            if isinstance(value, float):
                value = _fmt(value)
            print(f"{key}: {value}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _usage_errors("simulate"):
        scenario = Scenario.load(args.scenario)
    snaps = scenario.snapshots()
    out = Path(args.out)
    if args.format == "npz":
        with open(out, "wb") as fh:  # given a path, np.savez may append ".npz"
            np.savez(fh, y=snaps.y, x=snaps.x, sigma2=snaps.sigma2, seed=snaps.seed)
    else:
        _write_matrix_csv(out, "sensor,t,re,im", snaps.y)
    return 0


def _write_matrix_csv(path: Path, header: str, matrix: np.ndarray) -> None:
    """One ``i,j,re,im`` line per entry of a complex matrix, row by row."""
    lines = (f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}" for (i, j), v in np.ndenumerate(matrix))
    _write_lines(path, header, lines)


def _write_coarray_csv(path: Path, r_tilde: np.ndarray) -> None:
    """The coarray vector the angle stage decomposes, one lag per line, each
    part written by ``repr`` so that it reads back to the same float."""
    half = (r_tilde.size - 1) // 2
    lags = range(-half, half + 1)
    lines = (f"{lag},{float(v.real)!r},{float(v.imag)!r}" for lag, v in zip(lags, r_tilde))
    _write_lines(path, "lag,re,im", lines)


def _write_spectrum_csv(path: Path, header: str, axis, values_db) -> None:
    _write_lines(path, header, (f"{_fmt(a)},{_fmt(v)}" for a, v in zip(axis, values_db)))


def _cmd_spectrum(args: argparse.Namespace) -> int:
    with _usage_errors("spectrum"):
        scenario = Scenario.load(args.scenario)
        config = MusicConfig(angle_step_deg=args.angle_step, range_step_m=args.range_step)
        snapshots = scenario.snapshots()
        # The two failures the inputs can still cause: a grid too fine (the
        # grid is cached, so localize reuses it) and a covariance that
        # overflows a float (an O(U^2 T) product, small beside the scans).
        SpectrumGrid.for_layout(snapshots.layout, config.angle_step_deg, config.range_step_m)
        covariance_ls(snapshots)
    result = localize(snapshots, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    angle, ranges = result.angle_spectrum, result.range_spectrum
    _write_spectrum_csv(out_dir / "angle_spectrum.csv", "theta_deg,p_db", angle.axis, angle.db)
    for idx, row_db in enumerate(ranges.db):
        path = out_dir / f"range_spectrum_{idx:02d}.csv"
        _write_spectrum_csv(path, "range_m,p_db", ranges.axis, row_db)
    payload = result.to_dict()
    payload["range_spectrum_angles_deg"] = list(result.candidate_angles_deg)
    (out_dir / "result.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if args.dump_covariance:
        bundle = result.bundle
        _write_matrix_csv(out_dir / "r_hat.csv", "row,col,re,im", bundle.r_hat)
        _write_matrix_csv(out_dir / "r_d.csv", "row,col,re,im", bundle.r_d)
        _write_coarray_csv(out_dir / "r_tilde.csv", bundle.r_tilde)
    return 0


def _parse_snr_list(text: str) -> tuple[float, ...]:
    """Either 'start:step:stop' (inclusive, stepped in decimal so that
    '0:0.1:1' yields 0.3, not 0.30000000000000004, and at most
    ``MAX_SNR_POINTS`` values) or a comma-separated list.  Every value must
    be finite as a float."""
    try:
        parts = [Decimal(p) for p in text.split(":" if ":" in text else ",")]
    except InvalidOperation:
        raise SystemExit(f"snr list {text!r} holds a value that is not a number") from None
    if ":" not in text:
        values = [float(p) for p in parts]
    else:
        if len(parts) != 3 or not all(p.is_finite() for p in parts):
            raise SystemExit("snr range must be start:step:stop with finite numbers")
        start, step, stop = parts
        if not (step > 0 and stop >= start):
            raise SystemExit("snr range needs a positive step and stop >= start")
        try:
            count = int((stop - start) / step) + 1
        except Overflow:  # more points than Decimal can count
            count = MAX_SNR_POINTS + 1
        if count > MAX_SNR_POINTS:
            raise SystemExit(f"snr range {text!r} holds more than {MAX_SNR_POINTS} points")
        values = [float(start + i * step) for i in range(count)]
    if not all(math.isfinite(v) for v in values):
        raise SystemExit(f"snr list {text!r} holds a value that is not a finite float")
    return tuple(values)


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    with _usage_errors("montecarlo"):
        scenario = Scenario.load(args.scenario)
        config = MonteCarloConfig(
            scenario=scenario,
            snr_db_list=_parse_snr_list(args.snr),
            q_trials=args.q,
            methods=tuple(m.strip() for m in args.methods.split(",")),
            base_seed=args.seed if args.seed is not None else scenario.seed,
        )
    report = run_monte_carlo(config)
    report.write_csv(args.out)
    if args.raw is not None:
        report.write_raw_jsonl(args.raw)
    # A completed sweep exits 0 even when individual trials failed.
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canf",
        description="Near-field localization with symmetric coprime arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geometry", help="print layout, coarray and capacity")
    p_geo.add_argument("--m", type=int, required=True)
    p_geo.add_argument("--n", type=int, required=True)
    p_geo.add_argument("--d-mm", type=float, default=None)
    p_geo.add_argument("--freq-ghz", type=float, default=None)
    p_geo.add_argument("--format", choices=("json", "table"), default="json")
    p_geo.set_defaults(func=_cmd_geometry)

    p_sim = sub.add_parser("simulate", help="write synthetic snapshots")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--format", choices=("csv", "npz"), default="csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="angle/range spectra and result JSON")
    p_spec.add_argument("--scenario", required=True)
    p_spec.add_argument("--out-dir", required=True)
    p_spec.add_argument("--angle-step", type=float, default=MusicConfig.angle_step_deg)
    p_spec.add_argument("--range-step", type=float, default=MusicConfig.range_step_m)
    p_spec.add_argument("--dump-covariance", action="store_true")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_mc = sub.add_parser("montecarlo", help="RMSE sweep over SNR")
    p_mc.add_argument("--scenario", required=True)
    p_mc.add_argument(
        "--snr",
        required=True,
        help="start:step:stop or comma list, in dB; negative values may follow"
        " --snr as one argument, as in --snr -10:10:30 or --snr -10,0,10",
    )
    p_mc.add_argument("--q", type=int, default=100)
    p_mc.add_argument("--methods", default=",".join(METHODS))
    p_mc.add_argument("--out", required=True)
    p_mc.add_argument("--raw", default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.set_defaults(func=_cmd_montecarlo)

    return parser


def _join_negative_snr(argv: list[str]) -> list[str]:
    """``--snr <value>`` as ``--snr=<value>`` when the value starts with a
    minus sign and a digit or a dot: argparse reads such a value as an
    option unless it is a plain number, so ``--snr -10:10:30`` would fail."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--snr" and re.match(r"-[\d.]", token):
            joined[-1] = f"--snr={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_negative_snr(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
