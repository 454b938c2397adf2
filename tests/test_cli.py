import json
import pathlib
import warnings

import numpy as np
import pytest

from qnmlab import cli
from qnmlab.cli import main, run_pipeline
from qnmlab.config import ConfigError, RunConfig, parse_quantity


def _coarse_config(tmp_path, **overrides):
    # a cheap dielectric cylinder pipeline that runs in a few seconds
    data = {
        "geometry": {"type": "cylinder", "radius": "150 nm"},
        "material": {"type": "constant", "eps": 16.0},
        "background": {"n": 1.5},
        "grid": {"h": "10 nm", "half_width": "800 nm", "pml_cells": 16},
        "pole_search": {"guess": {"real": "293 THz", "imag": "-31 THz"}},
        "normalization": {"clearances": ["250 nm", "350 nm", "450 nm"],
                          "rtol": 0.05},
        "dipoles": [{"position": ["0 nm", "200 nm"], "orientation": [0, 1]}],
        "spectrum": {"half_width_gammas": 1.0, "points": 3},
        "distance_scan": {"axis": "y", "standoffs": ["50 nm", "150 nm"],
                          "orientation": [0, 1]},
        "propagator": {"source_standoff": "50 nm",
                       "distances": ["100 nm", "300 nm"]},
        "variants": ["f", "far"],
        "oracle": {"enabled": False},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_parse_quantity_units():
    assert parse_quantity("10 nm", "length") == pytest.approx(10e-9)
    assert parse_quantity("1.5 um", "length") == pytest.approx(1.5e-6)
    assert parse_quantity("415.863 THz", "frequency") == pytest.approx(
        2 * np.pi * 415.863e12)
    assert parse_quantity("7e13 rad/s", "frequency") == pytest.approx(7e13)
    with pytest.raises(ConfigError):
        parse_quantity("10", "length")
    with pytest.raises(ConfigError):
        parse_quantity("10 parsec", "length")
    with pytest.raises(ConfigError):
        parse_quantity(10e-9, "length")


def test_unknown_keys_rejected(tmp_path):
    path = _coarse_config(tmp_path)
    data = json.loads(path.read_text())
    data["tyop"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="tyop"):
        RunConfig.load(path)


def test_missing_section_rejected(tmp_path):
    path = _coarse_config(tmp_path)
    data = json.loads(path.read_text())
    del data["material"]
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="material"):
        RunConfig.load(path)


def test_bundled_paper_config_parses():
    cfg = RunConfig.load("configs/paper-2d-rod.json")
    assert cfg.geometry.width == pytest.approx(10e-9)
    assert cfg.geometry.length == pytest.approx(80e-9)
    assert cfg.material.omega_p == pytest.approx(1.26e16)
    assert cfg.bg.n_b == 1.5
    assert cfg.symmetry == "xy"


def test_full_pipeline_and_reproducibility(tmp_path):
    cfg = RunConfig.load(_coarse_config(tmp_path))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(cfg, str(out1))
        run_pipeline(cfg, str(out2))
    for name in ("mode.field", "modevol.csv", "spectrum.csv", "distance.csv",
                 "propagator.csv", "report.json"):
        assert (out1 / name).exists(), name
    # identical config, identical build: byte-identical CSVs
    for name in ("modevol.csv", "spectrum.csv", "distance.csv",
                 "propagator.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["quality_factor"] > 1
    assert report["v_eff_m2"] > 0
    assert not report["zero_contrast"]
    # spectrum rows carry every requested variant
    header = (out1 / "spectrum.csv").read_text().splitlines()[0]
    assert header == "omega_thz,f_a_f,f_a_far"


def test_empty_dipole_list_yields_mode_and_norm_only(tmp_path):
    cfg = RunConfig.load(_coarse_config(tmp_path, dipoles=[]))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(cfg, str(out))
    assert (out / "mode.field").exists()
    assert (out / "modevol.csv").exists()
    assert not (out / "spectrum.csv").exists()
    assert not (out / "distance.csv").exists()


def test_zero_contrast_flagged(tmp_path):
    cfg = RunConfig.load(_coarse_config(
        tmp_path, material={"type": "constant", "eps": 2.25}))
    out = tmp_path / "out"
    run_pipeline(cfg, str(out))
    report = json.loads((out / "report.json").read_text())
    assert report["zero_contrast"]
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "omega_thz,f_a_background"
    assert all(float(l.split(",")[1]) == 1.0 for l in lines[1:])
    assert not (out / "mode.field").exists()


def test_cli_entry_point_staged_commands(tmp_path):
    path = _coarse_config(tmp_path, dipoles=[])
    out = tmp_path / "cli-out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["find", "--config", str(path), "--out", str(out)]) == 0
        assert main(["normalize", "--config", str(path),
                     "--out", str(out)]) == 0
        assert main(["modevol", "--config", str(path), "--out",
                     str(out)]) == 0
    assert (out / "modevol.csv").exists()
    # stage ordering errors are reported, not raised
    out2 = tmp_path / "cli-out2"
    assert main(["normalize", "--config", str(path),
                 "--out", str(out2)]) == 1
    # config errors exit with status 2
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 2


def test_resolution_override(tmp_path):
    path = _coarse_config(tmp_path, dipoles=[])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["find", "--config", str(path), "--out", str(out),
                     "--resolution-override", "20e-9"]) == 0
    from qnmlab.solver import load_mode
    mode = load_mode(out / "mode.field")
    assert mode.grid.h == pytest.approx(20e-9)


# -- golden artifacts ---------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CSVS = ("modevol.csv", "spectrum.csv", "distance.csv",
               "propagator.csv")


def _golden_config(tmp_path):
    # every Green model plus the oracle; the standoffs keep each dipole
    # inside the oracle grid
    return _coarse_config(
        tmp_path,
        variants=["f", "far", "out", "far+born"],
        oracle={"enabled": True, "spectrum_stride": 2,
                "scan_checkpoints": [0, 1]},
        dipoles=[{"position": ["0 nm", "180 nm"], "orientation": [0, 1]}],
        distance_scan={"axis": "y", "standoffs": ["20 nm", "40 nm"],
                       "orientation": [0, 1]},
        propagator={"source_standoff": "20 nm",
                    "distances": ["100 nm", "300 nm"]})


def _run(cfg, out, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(cfg, str(out), **kwargs)
    return out


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    cfg = RunConfig.load(_golden_config(tmp))
    return cfg, _run(cfg, tmp / "out")


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(v) for v in line.split(",")]
                               for line in lines[1:]])


def _assert_tree_close(got, want, where="report"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_tree_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_tree_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0), where
    else:
        assert got == want, where


def test_golden_artifacts_unchanged(golden_run):
    _, out = golden_run
    for name in GOLDEN_CSVS:
        header, vals = _read_csv(out / name)
        want_header, want = _read_csv(GOLDEN / name)
        assert header == want_header, name
        assert vals.shape == want.shape, name
        np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0,
                                   equal_nan=True, err_msg=name)
    report = json.loads((out / "report.json").read_text())
    golden = json.loads((GOLDEN / "report.json").read_text())
    # tolerances_met is compared by its meaning: the oracle checks ran here
    met = report.pop("tolerances_met")
    golden.pop("tolerances_met")
    _assert_tree_close(report, golden)
    assert report["oracle_checks"]
    assert met == all(c["within_10pct"]
                      for c in report["oracle_checks"].values())


def test_threaded_spectrum_matches_serial(golden_run, tmp_path):
    cfg, out = golden_run
    threaded = _run(cfg, tmp_path / "threads2", threads=2)
    assert (threaded / "spectrum.csv").read_bytes() == \
        (out / "spectrum.csv").read_bytes()


def test_validate_without_oracle_checks_nothing(tmp_path, monkeypatch):
    calls = []

    def no_oracle(*args):
        calls.append(args)
        raise AssertionError("oracle solve with the oracle disabled")

    monkeypatch.setattr(cli, "oracle_se", no_oracle)
    cfg = RunConfig.load(_coarse_config(
        tmp_path, oracle={"enabled": False, "scan_checkpoints": [0]}))
    out = _run(cfg, tmp_path / "out")
    report = json.loads((out / "report.json").read_text())
    assert not calls
    assert report["oracle_checks"] == {}
    assert report["tolerances_met"] is None


def test_run_rebuilds_report(tmp_path):
    out = tmp_path / "out"
    _run(RunConfig.load(_coarse_config(tmp_path)), out)
    assert "eigenfrequency_thz" in json.loads(
        (out / "report.json").read_text())
    flat = RunConfig.load(_coarse_config(
        tmp_path, material={"type": "constant", "eps": 2.25}))
    _run(flat, out)
    report = json.loads((out / "report.json").read_text())
    assert report["zero_contrast"]
    assert "eigenfrequency_thz" not in report
