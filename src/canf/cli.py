"""Command-line interface: geometry inspection, snapshot simulation,
spectrum dumps and Monte Carlo sweeps.

All outputs are deterministic for a fixed seed: repeated invocations write
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import METHODS, MonteCarloConfig, run_monte_carlo
from .geometry import CoprimeParams, build_coprime_layout, difference_coarray, max_targets
from .music import MusicConfig, localize
from .scenario import SPEED_OF_LIGHT, Scenario

__all__ = ["main"]


def _fmt(value: float) -> str:
    return f"{float(value):.10g}"


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
    if args.freq_ghz is not None:
        wavelength = SPEED_OF_LIGHT / (args.freq_ghz * 1e9)
    elif args.d_mm is not None:
        wavelength = 4.0 * args.d_mm * 1e-3
    else:
        raise SystemExit("geometry: provide --freq-ghz and/or --d-mm")
    d = args.d_mm * 1e-3 if args.d_mm is not None else wavelength / 4.0
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
    scenario = Scenario.load(args.scenario)
    snaps = scenario.snapshots()
    out = Path(args.out)
    if args.format == "npz":
        np.savez(out, y=snaps.y, x=snaps.x, sigma2=snaps.sigma2, seed=snaps.seed)
    else:
        lines = ["sensor,t,re,im"]
        for u in range(snaps.n_sensors):
            for t in range(snaps.n_snapshots):
                v = snaps.y[u, t]
                lines.append(f"{u},{t},{_fmt(v.real)},{_fmt(v.imag)}")
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    lines = ["row,col,re,im"]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            v = matrix[i, j]
            lines.append(f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_spectrum_csv(path: Path, header: str, axis, values_db) -> None:
    lines = [header]
    for a, v in zip(axis, values_db):
        lines.append(f"{_fmt(a)},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_spectrum(args: argparse.Namespace) -> int:
    scenario = Scenario.load(args.scenario)
    config = MusicConfig(
        k_targets=len(scenario.targets),
        angle_step_deg=args.angle_step,
        range_step_m=args.range_step,
    )
    result = localize(scenario.snapshots(), config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_spectrum_csv(
        out_dir / "angle_spectrum.csv",
        "theta_deg,p_db",
        result.angle_spectrum.axis,
        result.angle_spectrum.db,
    )
    for idx, (theta_deg, spec) in enumerate(result.range_spectra):
        _write_spectrum_csv(
            out_dir / f"range_spectrum_{idx:02d}.csv",
            "range_m,p_db",
            spec.axis,
            spec.db,
        )
    payload = result.to_dict()
    payload["range_spectrum_angles_deg"] = [t for t, _ in result.range_spectra]
    (out_dir / "result.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if args.dump_covariance:
        _write_matrix_csv(out_dir / "r_hat.csv", result.bundle.r_hat)
        _write_matrix_csv(out_dir / "r_d.csv", result.bundle.r_d)
        _write_matrix_csv(out_dir / "r_v.csv", result.bundle.r_v)
    return 0


def _parse_snr_list(text: str) -> tuple[float, ...]:
    """Either 'start:step:stop' (inclusive) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SystemExit("snr range must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise SystemExit("snr step must be positive")
        n = int(round((stop - start) / step)) + 1
        values = tuple(start + i * step for i in range(max(n, 1)))
        return tuple(v for v in values if v <= stop + 1e-9)
    return tuple(float(p) for p in text.split(","))


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    scenario = Scenario.load(args.scenario)
    methods = tuple(m.strip() for m in args.methods.split(","))
    config = MonteCarloConfig(
        scenario=scenario,
        snr_db_list=_parse_snr_list(args.snr),
        q_trials=args.q,
        methods=methods,
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
    p_spec.add_argument("--angle-step", type=float, default=0.05)
    p_spec.add_argument("--range-step", type=float, default=0.1)
    p_spec.add_argument("--dump-covariance", action="store_true")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_mc = sub.add_parser("montecarlo", help="RMSE sweep over SNR")
    p_mc.add_argument("--scenario", required=True)
    p_mc.add_argument("--snr", required=True, help="start:step:stop or comma list")
    p_mc.add_argument("--q", type=int, default=100)
    p_mc.add_argument("--methods", default=",".join(METHODS))
    p_mc.add_argument("--out", required=True)
    p_mc.add_argument("--raw", default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
