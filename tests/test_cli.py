"""The command-line interface: repeated runs write byte-identical files, and
bad inputs and a closed stdout pipe end without a traceback."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import canf
from canf import covariance
from canf.cli import MAX_SNR_POINTS, _fmt, _parse_snr_list, main
from canf.covariance import mirror_antidiagonal
from canf.music import MusicConfig, Subspace, localize
from canf.scenario import Scenario, default_benchmark_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    default_benchmark_scenario(snr_db=10.0, seed=0).save(path)
    return path


def test_spectrum_dump_covariance_is_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.json"
    default_benchmark_scenario(snr_db=10.0, seed=0).save(scenario)
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in runs:
        argv = ["spectrum", "--scenario", str(scenario), "--out-dir", str(out_dir)]
        assert main(argv + ["--dump-covariance"]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    dumped = {"r_hat.csv", "r_d.csv", "r_tilde.csv", "result.json"}
    assert dumped | {"angle_spectrum.csv"} <= set(names)
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_dumped_matrices_are_the_bundle(tmp_path, scenario_file):
    # The dump writes exactly the bundle's stages; r_hat.csv and r_d.csv hold
    # its matrices entry by entry in the CLI's number format.
    argv = ["spectrum", "--scenario", str(scenario_file), "--out-dir", str(tmp_path)]
    assert main(argv + ["--dump-covariance"]) == 0
    dumped = sorted(p.name for p in tmp_path.glob("r_*.csv"))
    assert dumped == ["r_d.csv", "r_hat.csv", "r_tilde.csv"]
    scenario = Scenario.load(scenario_file)
    bundle = localize(scenario.snapshots(), MusicConfig(k_targets=len(scenario.targets))).bundle
    r_hat = bundle.r_hat
    assert bundle.r_d.tobytes() == (r_hat * mirror_antidiagonal(r_hat)).tobytes()
    for name, matrix in (("r_hat.csv", r_hat), ("r_d.csv", bundle.r_d)):
        expected = ["row,col,re,im"] + [
            f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}" for (i, j), v in np.ndenumerate(matrix)
        ]
        assert (tmp_path / name).read_text(encoding="utf-8").splitlines() == expected, name


def test_dumped_r_tilde_reproduces_the_virtual_eigenvalues(tmp_path, scenario_file):
    # r_tilde.csv is the vector the angle stage decomposes, at round-trip
    # precision: its split gives result.json's eigenvalues.
    argv = ["spectrum", "--scenario", str(scenario_file), "--out-dir", str(tmp_path)]
    assert main(argv + ["--dump-covariance"]) == 0
    lines = (tmp_path / "r_tilde.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lag,re,im"
    rows = [line.split(",") for line in lines[1:]]
    half = (len(rows) - 1) // 2
    assert [int(lag) for lag, _, _ in rows] == list(range(-half, half + 1))
    r_tilde = np.array([complex(float(re), float(im)) for _, re, im in rows])
    eigvals = Subspace.split_coarray(r_tilde, 1).eigvals
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    np.testing.assert_allclose(eigvals, result["virtual_eigvals"], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "argv, status",
    [
        (["geometry", "--m", "9", "--n", "11", "--freq-ghz", "30"], 1),
        (["geometry", "--m", "9", "--n", "11", "--freq-ghz", "30", "--format", "table"], 1),
        (["--help"], 0),
    ],
    ids=["geometry-json", "geometry-table", "help"],
)
def test_a_closed_stdout_pipe_ends_without_a_traceback(argv, status):
    src = str(Path(canf.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "canf.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (status, "")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_geometry_is_byte_identical(capsys, fmt):
    outputs = []
    for _ in range(2):
        assert main(["geometry", "--m", "9", "--n", "11", "--freq-ghz", "30", "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if fmt == "json":
        assert json.loads(outputs[0])["n_sensors"] == 37


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_simulate_is_byte_identical(tmp_path, scenario_file, fmt):
    outs = [tmp_path / f"snaps{i}.{fmt}" for i in range(2)]
    for out in outs:
        argv = ["simulate", "--scenario", str(scenario_file), "--out", str(out)]
        assert main(argv + ["--format", fmt]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_simulate_writes_exactly_the_out_path(tmp_path, scenario_file, fmt):
    # np.savez appends ".npz" to a path without it; the file must be --out.
    out = tmp_path / "snaps"
    argv = ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "snaps"]
    if fmt == "npz":
        with np.load(out) as saved:
            expected = Scenario.load(scenario_file).snapshots().y
            np.testing.assert_array_equal(saved["y"], expected)


def test_montecarlo_is_byte_identical(tmp_path, scenario_file):
    runs = []
    for i in range(2):
        csv, raw = tmp_path / f"rmse{i}.csv", tmp_path / f"raw{i}.jsonl"
        argv = ["montecarlo", "--scenario", str(scenario_file), "--snr", "0,20", "--q", "2"]
        assert main(argv + ["--out", str(csv), "--raw", str(raw)]) == 0
        runs.append((csv.read_bytes(), raw.read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][0].splitlines()) == 1 + 2 * 4
    assert len(runs[0][1].splitlines()) == 2 * 2 * 4


@pytest.mark.parametrize("snr", ["-10:10:10", "-10,0,10"])
def test_montecarlo_takes_a_negative_snr_list_either_way(tmp_path, scenario_file, snr):
    # argparse would read "-10:10:10" after "--snr" as an option; both
    # spellings must give the same sweep.
    outs = []
    for i, argv in enumerate((["--snr", snr], [f"--snr={snr}"])):
        csv = tmp_path / f"rmse{i}.csv"
        common = ["--scenario", str(scenario_file), "--q", "1", "--methods", "farfield"]
        assert main(["montecarlo", *argv, *common, "--out", str(csv)]) == 0
        outs.append(csv.read_text(encoding="utf-8"))
    assert outs[0] == outs[1]
    assert [line.split(",")[1] for line in outs[0].splitlines()[1:]] == ["-10", "0", "10"]


def test_montecarlo_rejects_an_snr_whose_noise_power_overflows(tmp_path, scenario_file):
    argv = ["montecarlo", "--scenario", str(scenario_file), "--out", str(tmp_path / "rmse.csv")]
    with pytest.raises(SystemExit, match="^montecarlo: snr_db=-4000.0 is too low"):
        main(argv + ["--snr", "-4000"])
    assert list(tmp_path.iterdir()) == [scenario_file]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0:0.1:1", tuple(i / 10 for i in range(11))),
        ("0:5:30", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
        ("0:0.6:1", (0.0, 0.6)),
        ("-5:2.5:5", (-5.0, -2.5, 0.0, 2.5, 5.0)),
        ("10:1:10", (10.0,)),
        ("10, 0.3", (10.0, 0.3)),
        (f"1:1:{MAX_SNR_POINTS}", tuple(float(i) for i in range(1, MAX_SNR_POINTS + 1))),
    ],
)
def test_parse_snr_list(text, expected):
    assert _parse_snr_list(text) == expected


@pytest.mark.parametrize(
    "text",
    # The last three hold more than MAX_SNR_POINTS points (10^30 + 1 for the
    # first); the count is checked before any point is built.
    # "1e400" is finite as a Decimal but overflows float.
    ["10,", "", "ten", "10:5:0", "1:2", "0:0:1", "0:-1:3", "nan:1:2",
     "nan", "10,inf", "1e400", "1e400:1:1e400", "-1e400,0",
     "0:1e-30:1", "0:1e-999999:1e999999", f"1:1:{MAX_SNR_POINTS + 1}"],
)
def test_parse_snr_list_rejects(text):
    with pytest.raises(ValueError, match="^snr (list|range) "):
        _parse_snr_list(text)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "give d_mm and/or freq_ghz$"),
        (["--freq-ghz", "0"], "freq_ghz must be finite and positive, got 0.0$"),
        (["--freq-ghz", "-30"], "freq_ghz must be finite and positive, got -30.0$"),
        (["--freq-ghz", "nan"], "freq_ghz must be finite and positive, got nan$"),
        (["--d-mm", "0"], "d_mm must be finite and positive, got 0.0$"),
        (["--d-mm", "-2.5"], "d_mm must be finite and positive, got -2.5$"),
        (
            ["--freq-ghz", "1e300"],
            "the wavelength from freq_ghz=1e\\+300 must be finite and positive, got 0.0$",
        ),
        (
            ["--freq-ghz", "1e-320"],
            "the wavelength from freq_ghz=1e-320 must be finite and positive, got inf$",
        ),
        (
            ["--d-mm", "5e-324"],
            "the spacing from d_mm=5e-324 must be finite and positive, got 0.0$",
        ),
        (["--m", "4", "--n", "6", "--freq-ghz", "30"], "m=4 and n=6 are not coprime"),
        (
            ["--d-mm", "1e308"],
            "the wavelength from d_mm=1e\\+308 must be finite and positive, got inf$",
        ),
    ],
)
def test_bad_geometry_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit, match=f"^geometry: {message}"):
        main(["geometry", "--m", "9", "--n", "11"] + argv)
    assert capsys.readouterr().out == ""


def test_geometry_from_the_spacing_alone_takes_four_spacings_per_wavelength(capsys):
    assert main(["geometry", "--m", "9", "--n", "11", "--d-mm", "2.5"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["d_mm"], info["wavelength_mm"]) == (2.5, 10.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--out-dir", "{tmp}/out", "--angle-step", "0"], "angle_step_deg"),
        (["spectrum", "--out-dir", "{tmp}/out", "--range-step", "nan"], "range_step_m"),
        (
            ["spectrum", "--out-dir", "{tmp}/out", "--angle-step", "1e-300"],
            "angle_step_deg=1e-300 gives 1.8e\\+302 grid points",
        ),
        (
            ["spectrum", "--out-dir", "{tmp}/out", "--range-step", "1e-6"],
            "range_step_m=1e-06 gives 3.99.* grid points",
        ),
        (
            ["spectrum", "--out-dir", "{tmp}/out", "--angle-step", "100"],
            "angle_step_deg=100.0 is above 90",
        ),
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--q", "0"], "q_trials"),
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--methods", "foo"], "unknown methods"),
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--seed", "-1"], "base_seed"),
        (["montecarlo", "--snr", "10,10", "--out", "{tmp}/rmse.csv"], "repeats an SNR"),
        (
            ["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--methods", "dense,dense"],
            "repeats a method",
        ),
        (["montecarlo", "--snr", "ten", "--out", "{tmp}/rmse.csv"], "snr list 'ten' holds"),
    ],
)
def test_bad_config_is_a_usage_error(tmp_path, scenario_file, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--scenario", str(scenario_file)]
    with pytest.raises(SystemExit, match=f"^{argv[0]}: .*{message}"):
        main(argv)
    assert list(tmp_path.iterdir()) == [scenario_file]


@pytest.mark.parametrize(
    "steps, name",
    [(["--angle-step", "1e-4"], "angle_step_deg"), (["--range-step", "2.3e-5"], "range_step_m")],
)
def test_spectrum_rejects_a_grid_too_large_to_scan_before_any_scan(
    tmp_path, scenario_file, monkeypatch, steps, name
):
    # Each axis passes the per-axis cap, but its scan of the 4 targets would
    # hold over a billion bytes.  localize plans the grid before its first stage.
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    for stage in ("build_bundle", "angle_spectrum", "range_spectrum"):
        monkeypatch.setattr(f"canf.music.{stage}", no_stage)
    out = ["--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit, match=f"^spectrum: the .* scan of 4 targets .* raise {name}$"):
        main(["spectrum", "--scenario", str(scenario_file), *out, *steps])
    assert list(tmp_path.iterdir()) == [scenario_file]


def _scenario_argv(command, scenario, tmp_path):
    out = {"simulate": "--out", "spectrum": "--out-dir", "montecarlo": "--out"}[command]
    argv = [command, "--scenario", str(scenario), out, str(tmp_path / "out")]
    return argv + ["--snr", "10"] if command == "montecarlo" else argv


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
def test_bad_scenario_is_a_usage_error(tmp_path, command):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"M": 9, "N": 11, "targets": []}), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: give d_mm and/or freq_ghz$"):
        main(_scenario_argv(command, scenario, tmp_path))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "{tmp}/absent/snaps.csv"],
        ["spectrum", "--out-dir", "{tmp}/scenario.json"],
        ["montecarlo", "--out", "{tmp}/absent/rmse.csv"],
        ["montecarlo", "--out", "{tmp}/rmse.csv", "--raw", "{tmp}/absent/raw.jsonl"],
    ],
    ids=["simulate-out", "spectrum-out-dir", "montecarlo-out", "montecarlo-raw"],
)
def test_an_unwritable_output_is_a_usage_error(tmp_path, scenario_file, argv):
    # A missing parent directory, or an --out-dir that is a file.
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--scenario", str(scenario_file)]
    if argv[0] == "montecarlo":
        argv += ["--snr", "10", "--q", "1", "--methods", "farfield"]
    with pytest.raises(SystemExit, match=f"^{argv[0]}: .*(No such file|File exists)"):
        main(argv)


@pytest.mark.parametrize(
    "out, raw", [("nodir/r.csv", "r.jsonl"), ("r.csv", "nodir/r.jsonl")], ids=["out", "raw"]
)
def test_montecarlo_opens_its_outputs_before_the_sweep(
    tmp_path, scenario_file, monkeypatch, out, raw
):
    # An unwritable --raw used to be found only after every trial had run,
    # with --out already holding the CSV.
    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("canf.cli.run_monte_carlo", no_sweep)
    argv = ["montecarlo", "--scenario", str(scenario_file), "--snr", "10", "--q", "1"]
    argv += ["--out", str(tmp_path / out), "--raw", str(tmp_path / raw)]
    with pytest.raises(SystemExit, match=r"^montecarlo: \[Errno 2\] No such file"):
        main(argv)
    for name in ("r.csv", "r.jsonl"):
        assert not (tmp_path / name).exists() or (tmp_path / name).read_text() == ""


def test_spectrum_reports_a_covariance_overflow_as_a_usage_error(tmp_path):
    # The file loads and its snapshots are finite, but their Gram overflows.
    scenario = tmp_path / "scenario.json"
    default_benchmark_scenario(snr_db=-3080.0).save(scenario)
    with pytest.raises(SystemExit, match="^spectrum: .*a covariance that overflows a float"):
        main(_scenario_argv("spectrum", scenario, tmp_path))
    assert list(tmp_path.iterdir()) == [scenario]


def test_spectrum_computes_one_ls_covariance(tmp_path, scenario_file, monkeypatch):
    # The spy replaces covariance_ls in every canf module that binds it, so
    # a pre-flight copy of the chain's covariance would count too.
    real, calls = covariance.covariance_ls, []

    def spy(snapshots):
        calls.append(snapshots)
        return real(snapshots)

    for name, module in list(sys.modules.items()):
        if name.startswith("canf") and getattr(module, "covariance_ls", None) is real:
            monkeypatch.setattr(module, "covariance_ls", spy)
    assert main(_scenario_argv("spectrum", scenario_file, tmp_path)) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("T", 0, "T must be at least 1"),
        ("d_mm", -2.5, "d_mm must be finite and positive, got -2.5$"),
        ("d_mm", float("inf"), "d_mm must be finite and positive, got inf$"),
        ("freq_ghz", 0, "freq_ghz must be finite and positive, got 0$"),
        ("seed", -1, "seed must be at least 0, got -1$"),
        ("range_m", float("nan"), "range_m must be finite and positive, got nan$"),
        ("T", 50.7, "T must be an integer, got 50.7"),
        ("T", True, "T must be an integer, got True"),
        ("seed", 1.9, "seed must be an integer, got 1.9"),
        ("M", 9.5, "M must be an integer, got 9.5"),
        ("N", False, "N must be an integer, got False"),
        ("snr_db", True, "snr_db must be a number, got True"),
        ("freq_ghz", True, "freq_ghz must be a number, got True"),
        ("d_mm", "2.5", "d_mm must be a number, got '2.5'"),
        ("theta_deg", "30", "theta_deg must be a number, got '30'"),
        ("range_m", None, "range_m must be a number, got None"),
        ("targets", None, "targets must be a list of objects, got None"),
        ("targets", [5], "targets must be a list of objects"),
        ("M", 0, "M must be at least 1, got 0$"),
        ("N", -3, "N must be at least 1, got -3$"),
        ("theta_deg", 95, r"theta_deg must lie in \(-90, 90\), got 95$"),
        ("theta_deg", -90, r"theta_deg must lie in \(-90, 90\), got -90$"),
        ("theta_deg", float("nan"), r"theta_deg must lie in \(-90, 90\), got nan$"),
    ],
)
def test_bad_scenario_value_is_a_usage_error(tmp_path, command, key, value, message):
    # Each value used to pass the load, to fail inside synthesis or to load as
    # a number it is not (True as 1, '30' as 30).
    data = default_benchmark_scenario().to_dict()
    (data["targets"][0] if key in ("theta_deg", "range_m") else data)[key] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: {message}"):
        main(_scenario_argv(command, scenario, tmp_path))
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
def test_an_snr_too_large_for_a_float_is_a_usage_error(tmp_path, command):
    # 400 digits written out in full: json reads them as an int that float()
    # cannot hold, which used to end in an OverflowError traceback.
    data = default_benchmark_scenario().to_dict()
    data["snr_db"] = 10**400
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: snr_db is too large for a float$"):
        main(_scenario_argv(command, scenario, tmp_path))
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
@pytest.mark.parametrize(
    "snr_db, message",
    [
        (float("nan"), r"snr_db must be a number or \+inf, got nan"),
        (-float("inf"), r"snr_db must be a number or \+inf, got -inf"),
        (-4000, r"snr_db=-4000\.0 is too low: its noise power overflows a float"),
    ],
    ids=["nan", "-inf", "-4000"],
)
def test_an_snr_without_a_noise_power_is_a_usage_error(tmp_path, command, snr_db, message):
    # json writes NaN and -Infinity; each used to load, and simulate then
    # ended in a ValueError traceback from the noise power.
    data = default_benchmark_scenario().to_dict()
    data["snr_db"] = snr_db
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: {message}$"):
        main(_scenario_argv(command, scenario, tmp_path))
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
def test_missing_scenario_key_is_a_usage_error(tmp_path, command):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"M": 9, "N": 11, "d_mm": 2.5}), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: scenario is missing 'targets'"):
        main(_scenario_argv(command, scenario, tmp_path))


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
def test_missing_scenario_file_is_a_usage_error(tmp_path, command):
    scenario = tmp_path / "absent.json"
    with pytest.raises(SystemExit, match=f"^{command}: .*No such file"):
        main(_scenario_argv(command, scenario, tmp_path))
    assert list(tmp_path.iterdir()) == []
