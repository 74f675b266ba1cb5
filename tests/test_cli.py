"""The command-line interface: repeated runs write byte-identical files."""
from canf.cli import main
from canf.scenario import default_benchmark_scenario


def test_spectrum_dump_covariance_is_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.json"
    default_benchmark_scenario(snr_db=10.0, seed=0).save(scenario)
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in runs:
        argv = ["spectrum", "--scenario", str(scenario), "--out-dir", str(out_dir)]
        assert main(argv + ["--dump-covariance"]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert {"r_hat.csv", "r_d.csv", "r_v.csv", "result.json", "angle_spectrum.csv"} <= set(names)
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
