"""The command-line interface: repeated runs write byte-identical files, and
bad inputs end in a usage error, not a traceback."""
import json

import numpy as np
import pytest

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
    with pytest.raises(SystemExit):
        _parse_snr_list(text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--freq-ghz", "0"], "freq_ghz must be positive"),
        (["--freq-ghz", "-30"], "freq_ghz must be positive"),
        (["--freq-ghz", "nan"], "freq_ghz must be positive"),
        (["--d-mm", "0"], "spacing and wavelength must be finite and positive"),
        (["--d-mm", "-2.5"], "spacing and wavelength must be finite and positive"),
        (["--m", "4", "--n", "6", "--freq-ghz", "30"], "m=4 and n=6 are not coprime"),
    ],
)
def test_bad_geometry_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit, match=f"^geometry: {message}"):
        main(["geometry", "--m", "9", "--n", "11"] + argv)
    assert capsys.readouterr().out == ""


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
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--q", "0"], "q_trials"),
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--methods", "foo"], "unknown methods"),
        (["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--seed", "-1"], "base_seed"),
        (["montecarlo", "--snr", "10,10", "--out", "{tmp}/rmse.csv"], "repeats an SNR"),
        (
            ["montecarlo", "--snr", "10", "--out", "{tmp}/rmse.csv", "--methods", "dense,dense"],
            "repeats a method",
        ),
    ],
)
def test_bad_config_is_a_usage_error(tmp_path, scenario_file, argv, message):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--scenario", str(scenario_file)]
    with pytest.raises(SystemExit, match=f"^{argv[0]}: .*{message}"):
        main(argv)
    assert list(tmp_path.iterdir()) == [scenario_file]


def _scenario_argv(command, scenario, tmp_path):
    out = {"simulate": "--out", "spectrum": "--out-dir", "montecarlo": "--out"}[command]
    argv = [command, "--scenario", str(scenario), out, str(tmp_path / "out")]
    return argv + ["--snr", "10"] if command == "montecarlo" else argv


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
def test_bad_scenario_is_a_usage_error(tmp_path, command):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"M": 9, "N": 11, "targets": []}), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^{command}: scenario needs d_mm"):
        main(_scenario_argv(command, scenario, tmp_path))


def test_spectrum_reports_a_covariance_overflow_as_a_usage_error(tmp_path):
    # The file loads and its snapshots are finite, but their Gram overflows.
    scenario = tmp_path / "scenario.json"
    default_benchmark_scenario(snr_db=-3080.0).save(scenario)
    with pytest.raises(SystemExit, match="^spectrum: .*a covariance that overflows a float"):
        main(_scenario_argv("spectrum", scenario, tmp_path))
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("command", ["simulate", "spectrum", "montecarlo"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("T", 0, "T must be at least 1"),
        ("d_mm", -2.5, "spacing and wavelength must be finite and positive"),
        ("d_mm", float("inf"), "spacing and wavelength must be finite and positive"),
        ("freq_ghz", 0, "freq_ghz must be positive"),
        ("seed", -1, "seed must be non-negative"),
        ("range_m", float("nan"), "range must be finite and positive"),
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
