import csv
import json
import pathlib
import warnings

import numpy as np
import pytest

from qnmlab import cli
from qnmlab.background import green_b_2d, im_green_b_diag
from qnmlab.cli import main, run_pipeline
from qnmlab.config import ConfigError, RunConfig, parse_quantity
from qnmlab.core import DomainError, QnmError
from qnmlab.dyson import RegularizedField
from qnmlab.observables import (
    far_green_model,
    se_enhancement,
    se_from_scattered,
)
from qnmlab.solver import driven_response, fdfd, oracle
from qnmlab.solver.mie import MAX_ORDER, mie_scattered_green


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
    for bad in ("nan nm", "inf nm", "-inf THz"):
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(bad, "length" if "nm" in bad else "frequency")


def test_nonfinite_length_and_zero_oracle_stride_rejected(tmp_path):
    # all three used to pass RunConfig: a NaN half-width then failed in
    # round() and a zero cell size divided by zero, both with a traceback;
    # a zero stride divided by zero once the oracle ran
    path = _coarse_config(tmp_path, oracle={"enabled": True,
                                            "spectrum_stride": 0})
    with pytest.raises(ConfigError, match="spectrum_stride"):
        RunConfig.load(path)
    for grid in ({"h": "10 nm", "half_width": "nan nm"},
                 {"h": "0 nm", "half_width": "800 nm"}):
        path = _coarse_config(tmp_path, grid=grid)
        assert main(["find", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


def test_unknown_keys_rejected(tmp_path):
    path = _coarse_config(tmp_path)
    data = json.loads(path.read_text())
    data["tyop"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="tyop"):
        RunConfig.load(path)
    # the PML grading is not configurable: its keys are unknown too
    for key, value in (("pml_order", 3), ("pml_reflection", 1e-8)):
        path = _coarse_config(tmp_path, grid={"h": "10 nm",
                                              "half_width": "800 nm",
                                              key: value})
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)
    # no key selects Green models: every run writes f, far and out, and a
    # config that names them is refused before any output
    path = _coarse_config(tmp_path, variants=["f", "far", "out", "far+born"])
    with pytest.raises(ConfigError, match="variants"):
        RunConfig.load(path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


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
    # spectrum rows carry every Green model
    header = (out1 / "spectrum.csv").read_text().splitlines()[0]
    assert header == "omega_thz,f_a_f,f_a_far,f_a_out"


def test_running_mode_volume_ends_at_the_reported_one(tmp_path):
    # the last clearance's total is the norm, 1 after normalization; both
    # files use one f(r0).f(r0), not two that differ by 8e-14 here
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(RunConfig.load(_coarse_config(tmp_path, dipoles=[])),
                     str(out))
    with open(out / "modevol.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    report = json.loads((out / "report.json").read_text())
    assert float(last["re_total"]) == pytest.approx(1.0, rel=1e-13, abs=0)
    assert float(last["V_eff_running"]) == pytest.approx(report["v_eff_m2"],
                                                         rel=1e-14, abs=0)


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


def test_zero_contrast_config_is_refused_before_any_solve(tmp_path,
                                                          monkeypatch):
    # a material equal to the background (eps = n**2 = 2.25) has no
    # resonator and no mode: exit 2, no factorization, and an earlier
    # run's files stay as they were
    out = tmp_path / "out"
    _run(RunConfig.load(_coarse_config(tmp_path, dipoles=[])), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    path = _coarse_config(tmp_path, material={"type": "constant",
                                              "eps": 2.25})
    with pytest.raises(ConfigError, match="material"):
        RunConfig.load(path)
    factored = []
    splu = fdfd.spla.splu

    def spy(a, *args, **kwargs):
        factored.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(fdfd.spla, "splu", spy)
    for command in ("run", "find"):
        assert main([command, "--config", str(path),
                     "--out", str(out)]) == 2
    assert not factored
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


@pytest.mark.parametrize("option", [["--threads", "2"],
                                    ["--resolution-override", "20e-9"]],
                         ids=["threads", "resolution-override"])
def test_removed_option_exits_2(tmp_path, option):
    # the stages run serially, and grid.h is the one cell size: argparse
    # rejects the old thread count and the old second cell size
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(_coarse_config(tmp_path)),
              "--out", str(tmp_path / "out"), *option])
    assert exc.value.code == 2


@pytest.mark.parametrize("section,key,value", [
    ("grid", "pml_cells", 4),
    ("geometry", "width", "-10 nm"),
    ("background", "n", 0),
], ids=["pml_cells", "width", "n"])
def test_constructor_rejection_is_config_error(tmp_path, section, key, value):
    # a value a core constructor rejects exits 2 (bad configuration), not 1
    data = json.loads(pathlib.Path("configs/paper-2d-rod.json").read_text())
    data[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    assert main(["find", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("keys,value", [
    (("geometry", "width"), None),
    (("pole_search", "guess", "imag"), None),
    (("grid", "pml_cells"), "abc"),
    (("background", "n"), "x"),
    (("pole_search", "rel_tol"), "abc"),
    (("oracle", "scan_checkpoints"), "ab"),
    (("grid",), []),
    (("material",), {"type": "constant", "eps": [16.0]}),
], ids=["no-width", "no-guess-imag", "word-pml-cells", "word-n",
        "word-rel-tol", "word-checkpoints", "grid-list", "1-eps"])
def test_malformed_values_are_config_errors(tmp_path, keys, value):
    # each used to end in a KeyError, ValueError, TypeError or IndexError
    # traceback with exit 1; a value of None deletes the key
    data = json.loads(pathlib.Path("configs/paper-2d-rod.json").read_text())
    inner = data
    for key in keys[:-1]:
        inner = inner[key]
    if value is None:
        del inner[keys[-1]]
    else:
        inner[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    assert main(["find", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("section,key,value", [
    ("geometry", "center", ["0 nm", "0 nm", "0 nm"]),
    ("dipoles", "orientation", [0, 0]),
    ("dipoles", "orientation", [0, 1, 0]),
    ("dipoles", "orientation", [float("nan"), 1]),
    ("dipoles", "orientation", ["up", 1]),
    ("dipoles", "position", ["0 nm"]),
    ("distance_scan", "orientation", [0.0, 0.0]),
    ("spectrum", "points", 0),
    ("pole_search", "max_iter", 0),
    ("pole_search", "rel_tol", float("nan")),
    ("pole_search", "rel_tol", 0.0),
    ("normalization", "rtol", float("inf")),
    ("normalization", "rtol", -0.01),
    ("oracle", "scan_checkpoints", [0, -1]),
    ("oracle", "scan_checkpoints", [0, 2]),
    ("distance_scan", "standoffs", ["0 nm", "150 nm"]),
    ("distance_scan", "standoffs", ["-20 nm", "150 nm"]),
    ("propagator", "source_standoff", "-20 nm"),
    ("propagator", "distances", ["0 nm", "300 nm"]),
    ("normalization", "clearances", ["-100 nm", "0 nm", "250 nm"]),
], ids=["3-centre", "zero-dipole", "3-vector", "nan-orientation", "word",
        "1-position", "zero-scan", "no-points", "no-iterations",
        "nan-rel-tol", "zero-rel-tol", "inf-rtol", "negative-rtol",
        "negative-checkpoint", "checkpoint-past-scan", "zero-standoff",
        "negative-standoff", "negative-source-standoff", "zero-distance",
        "negative-clearance"])
def test_values_without_a_meaningful_run_are_config_errors(
        tmp_path, section, key, value):
    # each used to pass RunConfig and end in NaN rates, a header-only CSV,
    # a traceback or failed search (exit 1), an oracle solve at the wrong
    # point, or an oracle column of NaN with no check; the lengths failed
    # only after the pole search
    data = json.loads(_coarse_config(tmp_path).read_text())
    (data[section][0] if section == "dipoles" else data[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=key):
        RunConfig.load(path)
    assert main(["find", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_checkpoint_past_the_propagator_distances_is_config_error(tmp_path):
    # the propagator rows share the scan's checkpoints: with 3 standoffs
    # and 2 distances, checkpoint 2 used to exit 0 with prop_oracle NaN in
    # every row
    path = _coarse_config(
        tmp_path,
        distance_scan={"axis": "y", "standoffs": ["50 nm", "150 nm",
                                                  "250 nm"],
                       "orientation": [0, 1]},
        oracle={"enabled": True, "scan_checkpoints": [2]})
    with pytest.raises(ConfigError, match="scan_checkpoints"):
        RunConfig.load(path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis", ["x", "y"])
def test_scan_points_of_off_centre_rod_sit_at_their_standoffs(tmp_path,
                                                              axis):
    cfg = RunConfig.load(_coarse_config(
        tmp_path,
        geometry={"type": "rod", "width": "10 nm", "length": "80 nm",
                  "center": ["30 nm", "100 nm"]},
        distance_scan={"axis": axis, "standoffs": ["5 nm", "20 nm",
                                                   "100 nm"]}))
    path = cli._scan_path(cfg)
    assert len(path) == len(cfg.scan_standoffs)
    for standoff, p in zip(cfg.scan_standoffs, path):
        plane = cfg.geometry.nearest_tangent_plane(np.asarray(p))
        assert plane.signed_distance(p) == pytest.approx(standoff, rel=1e-12)


# -- full-wave oracle ---------------------------------------------------------

# a real frequency near the paper rod's resonance
ROD_OMEGA = 2 * np.pi * 411.25e12


@pytest.fixture(scope="module")
def paper_cfg():
    return RunConfig.load("configs/paper-2d-rod.json")


def _oracle(cfg, r_a, n_a, omega=ROD_OMEGA):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.oracle_se(cfg, r_a, n_a, omega)


@pytest.mark.parametrize("r_a, n_a", [
    # rod-oracle draws 7, 15, 19 and 25 at seed 1: 327 nm off a side face,
    # 466, 353 and 337 nm off a tip, all more than 290 nm from the rod's
    # centre line
    ((-332.0e-9, 22.1e-9), (-0.758, -0.652)),
    ((3.9e-9, -505.7e-9), (-0.884, 0.467)),
    ((3.7e-9, -393.2e-9), (-0.675, -0.738)),
    ((1.9e-9, -376.7e-9), (-1.0, -0.002)),
])
def test_oracle_answers_dipoles_hundreds_of_nm_out(paper_cfg, r_a, n_a):
    (ix0, ix1), (iy0, iy1) = oracle.oracle_grid(paper_cfg,
                                                [r_a]).interior_box()
    margin = min(r_a[0] - ix0, ix1 - r_a[0], r_a[1] - iy0, iy1 - r_a[1])
    assert margin >= oracle.ORACLE_MARGIN
    f_a = _oracle(paper_cfg, r_a, n_a)
    assert np.isfinite(f_a) and f_a > 0


def test_patching_the_margin_widens_the_oracle_grid(paper_cfg, monkeypatch):
    # the margin tests below patch the name that oracle_grid reads
    r_a = (10e-9, 0.0)
    (x0, x1), (y0, y1) = oracle.oracle_grid(paper_cfg, [r_a]).extent
    monkeypatch.setattr(oracle, "ORACLE_MARGIN", oracle.ORACLE_MARGIN + 50e-9)
    (u0, u1), (v0, v1) = oracle.oracle_grid(paper_cfg, [r_a]).extent
    h = paper_cfg.grid.h
    for grown in (x0 - u0, u1 - x1, y0 - v0, v1 - y1):
        assert grown == pytest.approx(50e-9, abs=h)


def test_oracle_margin_is_converged(paper_cfg, monkeypatch):
    r_a, n_a = (10e-9, 0.0), (0.0, 1.0)
    f_a = _oracle(paper_cfg, r_a, n_a)
    monkeypatch.setattr(oracle, "ORACLE_MARGIN", oracle.ORACLE_MARGIN + 50e-9)
    assert f_a == pytest.approx(_oracle(paper_cfg, r_a, n_a), rel=1e-5)


@pytest.mark.parametrize("r_a, r_b, n, classes", [
    # off a side face: the grid is symmetric about y = 0, and a tilted
    # dipole off the axis drives both classes
    ((15e-9, 20e-9), None, (0.6, 0.8), 2),
    # the validate stage's y-dipole on the x axis: its field has one parity
    ((15e-9, 0.0), None, (0.0, 1.0), 1),
    # a pair on both sides of both planes: four quarter grids
    ((15e-9, 5e-9), (-15e-9, -20e-9), (0.6, 0.8), 4),
    # beyond a corner the grid has no mirror plane: one full grid
    ((100e-9, 100e-9), None, (0.6, 0.8), 0),
])
def test_oracle_factors_each_parity_class_on_its_reduced_grid(
        paper_cfg, monkeypatch, r_a, r_b, n, classes):
    # a query factors once per class with a nonzero share, each factor of
    # at most 55 % of the unreduced grid's unknowns, and sums the class
    # samples to the unreduced solve's value on the same grid
    r_b = r_a if r_b is None else r_b
    sizes = []
    splu = fdfd.spla.splu

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return splu(a, *args, **kwargs)

    grid = oracle.oracle_grid(paper_cfg, [r_a, r_b])
    n_full = int(np.prod(grid.n_cells))
    monkeypatch.setattr(fdfd.spla, "splu", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = oracle.scattered_green(paper_cfg, r_a, n, r_b, n, ROD_OMEGA)
        if classes:
            assert len(sizes) == classes
            assert max(sizes) <= 0.55 * n_full
        else:
            assert sizes == [n_full]
        op = fdfd.assemble(grid, paper_cfg.geometry, paper_cfg.material,
                           paper_cfg.bg, ROD_OMEGA)
        want = op.sample(op.solve(op.scattered_rhs(
            lambda r: green_b_2d(r, r_a, ROD_OMEGA, paper_cfg.bg) @ n)),
            r_b, n)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("r_a", [(0.0, 0.0), (2e-9, -30e-9)])
def test_oracle_rejects_a_dipole_inside_the_rod(paper_cfg, r_a):
    with pytest.raises(DomainError):
        _oracle(paper_cfg, r_a, (0.0, 1.0))
    with pytest.raises(DomainError, match="inside the resonator"):
        cli.oracle_propagator(paper_cfg, r_a, (100e-9, 0.0), ROD_OMEGA)


@pytest.mark.parametrize("r", [
    (5e-9, 0.0),        # the middle of the +x side face
    (5e-9, 1.25e-9),    # the same face, between E_y nodes
    (0.0, 40e-9),       # the middle of the +y tip
    (5e-9, 40e-9),      # the corner
])
def test_points_on_the_rod_surface_are_refused(paper_cfg, rod_pipeline, r):
    # the oracle (as emitter, source or receiver) and the far model refuse
    # a point on the paper rod's surface before any solve
    surface = "on the resonator surface"
    with pytest.raises(DomainError, match=surface):
        cli.oracle_se(paper_cfg, r, (1.0, 0.0), ROD_OMEGA)
    with pytest.raises(DomainError, match=surface):
        cli.oracle_propagator(paper_cfg, r, (100e-9, 0.0), ROD_OMEGA)
    with pytest.raises(DomainError, match=surface):
        cli.oracle_propagator(paper_cfg, (100e-9, 0.0), r, ROD_OMEGA)
    p = rod_pipeline
    assert p["rod"] == paper_cfg.geometry
    far = far_green_model(RegularizedField(p["mode"], p["rod"],
                                           p["material"], p["bg"]))
    with pytest.raises(DomainError, match=surface):
        se_enhancement(far, r, (1.0, 0.0), ROD_OMEGA)


def test_propagator_oracle_margin_is_converged(paper_cfg, monkeypatch):
    # the paper's source 10 nm off the +x face, its receiver 100 nm on
    omega = 2 * np.pi * 386.805e12
    r_a = cli._face_point(paper_cfg.geometry, paper_cfg.prop_source_standoff,
                          "x")
    r_b = (r_a[0] + 100e-9, r_a[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = cli.oracle_propagator(paper_cfg, r_a, r_b, omega)
        monkeypatch.setattr(oracle, "ORACLE_MARGIN",
                            oracle.ORACLE_MARGIN + 50e-9)
        assert g == pytest.approx(
            cli.oracle_propagator(paper_cfg, r_a, r_b, omega), rel=1e-4)


def test_oracle_is_stateless(tmp_path, monkeypatch):
    # each query is one factorization of its own grid, at a new frequency
    # and at a repeated one, and gives the same value to the last bit
    # whether it is asked first or after queries at other frequencies
    cfg = RunConfig.load(_coarse_config(tmp_path))
    calls = []
    splu = fdfd.spla.splu

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(fdfd.spla, "splu", counting)
    r_a, n_a, r_b = (0.0, 200e-9), (0.0, 1.0), (0.0, 300e-9)

    def queries(omega):
        before = len(calls)
        se = cli.oracle_se(cfg, r_a, n_a, omega)
        assert len(calls) == before + 1
        prop = cli.oracle_propagator(cfg, r_a, r_b, omega)
        assert len(calls) == before + 2
        return se, prop

    omegas = 2 * np.pi * 1e12 * np.array([290.0, 291.0, 292.0])
    first = queries(omegas[0])
    for omega in omegas[1:]:
        queries(omega)
    assert queries(omegas[0]) == first


def test_oracle_is_within_10pct_of_the_series_near_a_curved_face(tmp_path):
    # a normal dipole 5 nm off a 30 nm Drude cylinder at h = 2.5 nm, where
    # the normal near field is steep: the scattered-field oracle against
    # the exact series, in units of the series' F_a - 1
    cfg = RunConfig.load(_coarse_config(
        tmp_path, geometry={"type": "cylinder", "radius": "30 nm"},
        material={"type": "drude", "omega_p": "1.26e16 rad/s",
                  "gamma_d": "7e13 rad/s"},
        grid={"h": "2.5 nm", "half_width": "800 nm", "pml_cells": 16}))
    omega = 2 * np.pi * 415.863e12
    r, n = np.array([35e-9, 0.0]), np.array([1.0, 0.0])
    g = mie_scattered_green(cfg.geometry.radius, cfg.material, cfg.bg,
                            omega, r, r)
    series = se_from_scattered(n @ g @ n, omega, cfg.bg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f_a = cli.oracle_se(cfg, r, n, omega)
    assert abs(f_a - series) < 0.10 * (series - 1)


def test_driven_solves_factorize_in_double_precision(tmp_path, monkeypatch):
    # only the pole search's shift-inverse is single precision
    cfg = RunConfig.load(_coarse_config(tmp_path))
    dtypes = []
    splu = fdfd.spla.splu

    def spy(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(fdfd.spla, "splu", spy)
    omega = 2 * np.pi * 295e12
    cli.oracle_se(cfg, (0.0, 200e-9), (0.0, 1.0), omega)
    cli.oracle_propagator(cfg, (0.0, 200e-9), (0.0, 300e-9), omega)
    driven_response(cfg.grid, cfg.geometry, cfg.material, cfg.bg, omega)
    # the emission oracle's grid, the propagator grid, the driven
    # response's grid
    assert dtypes == [np.complex128] * 3


@pytest.mark.parametrize("r_a, n_a", [
    ((0.0, 45e-9), (0.0, 1.0)),          # 5 nm off the tip
    ((-332.0e-9, 22.1e-9), (-0.758, -0.652)),
])
def test_oracle_grids_raise_no_margin_warning(paper_cfg, r_a, n_a):
    # the oracle sizes its own converged margin; the wavelength rule is
    # the pole search's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.oracle_se(paper_cfg, r_a, n_a, ROD_OMEGA)
    assert not [w for w in caught if "margin between" in str(w.message)]


# -- golden artifacts ---------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CSVS = ("modevol.csv", "spectrum.csv", "distance.csv",
               "propagator.csv")


def _golden_config(tmp_path):
    # every Green model plus the oracle; the standoffs keep each dipole
    # inside the oracle grid; the mirror reduction keeps the mode to the
    # y-dipole's parity, free of its degenerate partner's admixture
    return _coarse_config(
        tmp_path,
        pole_search={"guess": {"real": "293 THz", "imag": "-31 THz"},
                     "symmetry": "xy"},
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


def test_report_closed_form_matches_spectrum_on_resonance(golden_run):
    # F_P eta + 1 at the first dipole is the f-model rate of the spectrum's
    # middle row, which sits exactly on w_c
    _, out = golden_run
    report = json.loads((out / "report.json").read_text())
    header, vals = _read_csv(out / "spectrum.csv")
    f_a_f = vals[len(vals) // 2, header.split(",").index("f_a_f")]
    assert report["purcell_factor"] * report["eta_dipole"] + 1 == \
        pytest.approx(f_a_f, rel=1e-12)


def test_golden_oracle_matches_cylinder_series(tmp_path):
    # the h = 10 nm oracle of the golden run against the exact dipole
    # series at its own frequency and points (no solve): the grid is a few
    # per cent off, so the far model's 72-91 % gap there is the single-mode
    # truncation, not the oracle
    cfg = RunConfig.load(_golden_config(tmp_path))
    golden = json.loads((GOLDEN / "report.json").read_text())
    omega = 2 * np.pi * 1e12 * golden["eigenfrequency_thz"]["real"]
    n = np.asarray(cfg.scan_orientation)
    for standoff, r in zip(cfg.scan_standoffs, cli._scan_path(cfg)):
        # (150/170)^200 ~ 1e-11: the cap is enough at 20 nm
        g = mie_scattered_green(cfg.geometry.radius, cfg.material, cfg.bg,
                                omega, r, r, n_max=MAX_ORDER)
        series = se_from_scattered(n @ g @ n, omega, cfg.bg)
        check = golden["oracle_checks"][f"standoff_{standoff * 1e9:.3g}nm"]
        assert check["oracle"] == pytest.approx(series, rel=0.05)
        assert abs(check["far_model"] - series) > 0.5 * series


def _golden_omega():
    golden = json.loads((GOLDEN / "report.json").read_text())
    return 2 * np.pi * 1e12 * golden["eigenfrequency_thz"]["real"]


def _series_propagator(cfg, r_a, r_b, omega):
    """|G_yy(r_b, r_a)|^2 of the exact cylinder series, normalized as the
    columns of propagator.csv."""
    r_a, r_b = np.asarray(r_a), np.asarray(r_b)
    g = mie_scattered_green(cfg.geometry.radius, cfg.material, cfg.bg, omega,
                            r_b, r_a) + green_b_2d(r_b, r_a, omega, cfg.bg)
    return abs(g[1, 1]) ** 2 / im_green_b_diag(omega, cfg.bg) ** 2


def test_propagator_oracle_matches_cylinder_series(tmp_path):
    # the golden propagator's source, 20 nm off the cylinder; at h = 10 nm
    # the staircase puts the tight-grid oracle 2.2-13.2 % above the series
    # from 100 to 2000 nm, and halving h halves the error
    omega = _golden_omega()
    rel = {}
    for h, distances in (("10 nm", (100e-9, 300e-9, 2000e-9)),
                         ("5 nm", (300e-9,))):
        cfg = RunConfig.load(_coarse_config(
            tmp_path, grid={"h": h, "half_width": "800 nm",
                            "pml_cells": 16}))
        r_a = cli._face_point(cfg.geometry, 20e-9, "x")
        for d in distances:
            r_b = (r_a[0] + d, r_a[1])
            series = _series_propagator(cfg, r_a, r_b, omega)
            got = cli.oracle_propagator(cfg, r_a, r_b, omega)
            rel[h, d] = abs(got - series) / series
    assert max(rel.values()) < 0.15, rel
    assert rel["5 nm", 300e-9] <= 0.6 * rel["10 nm", 300e-9], rel


def test_golden_propagator_oracle_matches_cylinder_series(tmp_path):
    cfg = RunConfig.load(_golden_config(tmp_path))
    omega = _golden_omega()
    header, vals = _read_csv(GOLDEN / "propagator.csv")
    oracle = vals[:, header.split(",").index("prop_oracle")]
    assert np.all(np.isfinite(oracle))
    r_a = cli._face_point(cfg.geometry, cfg.prop_source_standoff, "x")
    for (x_nm, y_nm), got in zip(vals[:, :2], oracle):
        series = _series_propagator(cfg, r_a, (x_nm * 1e-9, y_nm * 1e-9),
                                    omega)
        assert got == pytest.approx(series, rel=0.15), x_nm


def test_coarse_oracle_run_fills_the_propagator_checkpoints(tmp_path):
    # the coarse cylinder's 50 nm propagator source keeps ORACLE_MARGIN
    # from the PML of its receiver's grid; each receiver has its own grid,
    # so a row reads the same whichever other rows are asked
    path = _coarse_config(tmp_path, oracle={"enabled": True,
                                            "scan_checkpoints": [0, 1]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    header, vals = _read_csv(out / "propagator.csv")
    oracle = vals[:, header.split(",").index("prop_oracle")]
    assert len(oracle) == 2 and np.all(np.isfinite(oracle))
    cfg = RunConfig.load(path)
    report = json.loads((out / "report.json").read_text())
    omega = 2 * np.pi * 1e12 * report["eigenfrequency_thz"]["real"]
    r_a = cli._face_point(cfg.geometry, cfg.prop_source_standoff, "x")
    r_b = (r_a[0] + cfg.prop_distances[1], r_a[1])
    assert cli.oracle_propagator(cfg, r_a, r_b, omega) == \
        pytest.approx(oracle[1], rel=1e-12)


def test_run_solves_each_oracle_point_once(tmp_path, monkeypatch):
    # validate reads the scan's oracle values back from distance.csv
    calls = []
    oracle_se = cli.oracle_se

    def counting(*args):
        calls.append(args)
        return oracle_se(*args)

    monkeypatch.setattr(cli, "oracle_se", counting)
    cfg = RunConfig.load(_golden_config(tmp_path))
    _run(cfg, tmp_path / "out")
    spectrum = range(0, cfg.spectrum_points, cfg.oracle_spectrum_stride)
    assert len(calls) == len(spectrum) + len(cfg.oracle_scan_checkpoints)


def test_oracle_runs_only_at_the_stride_and_the_checkpoints(tmp_path,
                                                           monkeypatch):
    # spectrum rows off the stride and scan rows off the checkpoints read
    # NaN in the oracle column
    calls = []

    def fake_oracle(cfg, r_a, n_a, omega):
        calls.append((tuple(r_a), tuple(n_a), omega))
        return 42.0

    monkeypatch.setattr(cli, "oracle_se", fake_oracle)
    cfg = RunConfig.load(_coarse_config(
        tmp_path,
        spectrum={"half_width_gammas": 1.0, "points": 5},
        distance_scan={"axis": "y", "standoffs": ["50 nm", "150 nm",
                                                  "250 nm"],
                       "orientation": [0, 1]},
        propagator={},
        oracle={"enabled": True, "spectrum_stride": 2,
                "scan_checkpoints": [1]}))
    out = _run(cfg, tmp_path / "out")
    header, spectrum = _read_csv(out / "spectrum.csv")
    assert header == "omega_thz,f_a_f,f_a_far,f_a_out,f_a_oracle"
    header, scan = _read_csv(out / "distance.csv")
    assert header == "standoff_nm,f_a_f,f_a_far,f_a_out,f_a_oracle"
    r_a, n_a = cfg.dipoles[0]
    omega = 2 * np.pi * 1e12
    assert [c[:2] for c in calls] == [(r_a, n_a)] * 3 + [
        (cli._scan_path(cfg)[1], cfg.scan_orientation)]
    assert [c[2] / omega for c in calls] == pytest.approx(
        list(spectrum[::2, 0]) + [spectrum[2, 0]], rel=1e-15)
    np.testing.assert_array_equal(spectrum[:, -1],
                                  [42.0, np.nan, 42.0, np.nan, 42.0])
    np.testing.assert_array_equal(scan[:, -1], [np.nan, 42.0, np.nan])
    assert np.all(np.isfinite(spectrum[:, 1:-1]))
    assert np.all(np.isfinite(scan[:, 1:-1]))


@pytest.mark.parametrize("distance_csv", [
    None, "standoff_nm,f_a_f,f_a_far\n20,1.5,1.4\n40,1.2,1.1\n",
    "standoff_nm,f_a_f,f_a_oracle\n20,1.5,nan\n40,1.2,nan\n",
    "standoff_nm,f_a_f,f_a_oracle\n20,1.5,1.4\n40,1.2,1.1\n"])
def test_validate_without_the_scan_oracle_points_to_se(tmp_path,
                                                       distance_csv):
    cfg = RunConfig.load(_golden_config(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    if distance_csv is not None:
        (out / "distance.csv").write_text(distance_csv)
    with pytest.raises(QnmError, match="qnm se"):
        cli.stage_validate(cfg, str(out))


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


def test_oracle_run_without_dipoles_checks_nothing(tmp_path):
    # with no dipole the emission stage writes no scan, so validate has no
    # oracle value to compare and must not ask for one
    path = _coarse_config(tmp_path, dipoles=[],
                          oracle={"enabled": True, "scan_checkpoints": [0]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_checks"] == {}
    assert report["tolerances_met"] is None


@pytest.fixture
def full_then_bare(tmp_path):
    """A full run, then in the same directory a run of a config with no
    dipoles and no propagator; the report of the first run, and the
    directory."""
    out = tmp_path / "out"
    _run(RunConfig.load(_coarse_config(tmp_path)), out)
    first = json.loads((out / "report.json").read_text())
    _run(RunConfig.load(_coarse_config(tmp_path, dipoles=[], propagator={})),
         out)
    return first, out


def test_run_rebuilds_report(full_then_bare):
    first, out = full_then_bare
    assert "eta_dipole" in first
    report = json.loads((out / "report.json").read_text())
    assert "eta_dipole" not in report
    assert "eigenfrequency_thz" in report


def test_rerun_without_dipoles_leaves_no_stale_artifacts(full_then_bare):
    _, out = full_then_bare
    assert sorted(p.name for p in out.iterdir()) == \
        ["mode.field", "modevol.csv", "report.json"]


def test_find_after_a_full_run_leaves_only_the_mode(tmp_path):
    out = tmp_path / "out"
    path = _coarse_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert main(["find", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["mode.field", "report.json"]
    assert "v_eff_m2" not in json.loads((out / "report.json").read_text())


def test_normalize_twice_changes_nothing(tmp_path):
    # the second normalize finds the mode normalized and writes nothing
    path = str(_coarse_config(tmp_path, dipoles=[]))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command in ("find", "normalize"):
            assert main([command, "--config", path, "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes()
              for name in ("mode.field", "report.json")}
    assert main(["normalize", "--config", path, "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in before} == before


def test_mode_file_of_the_wrong_size_exits_1(tmp_path):
    # a truncated or padded mode.field is reported, not raised
    path = str(_coarse_config(tmp_path, dipoles=[]))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["find", "--config", path, "--out", str(out)]) == 0
    field = out / "mode.field"
    good = field.read_bytes()
    # and so is a JSON first line that is not a mode header
    header, payload = good.split(b"\n", 1)
    shapeless = {**json.loads(header), "shape_ex": "ab"}
    gridless = json.loads(header)
    del gridless["grid"]
    # the PML grading is fixed: a header carrying its old keys is refused
    graded = json.loads(header)
    graded["grid"]["pml"].update(order=3, target_reflection=1e-8)
    for bad in (good[:-1000], good + b"\0",
                *(json.dumps(h).encode() + b"\n" + payload
                  for h in ([1], {"format": "qnmlab-mode"}, shapeless,
                            gridless, graded))):
        field.write_bytes(bad)
        assert main(["normalize", "--config", path, "--out", str(out)]) == 1


def test_mode_of_another_config_exits_1(tmp_path):
    # a stage refuses a mode found for another background, and leaves it
    path = str(_coarse_config(tmp_path, dipoles=[]))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["find", "--config", path, "--out", str(out)]) == 0
    raw = (out / "mode.field").read_bytes()
    other = str(_coarse_config(tmp_path, dipoles=[], background={"n": 1.4}))
    assert main(["normalize", "--config", other, "--out", str(out)]) == 1
    assert (out / "mode.field").read_bytes() == raw


def test_validate_reads_both_values_from_the_scan(tmp_path, monkeypatch):
    # validate loads no mode: with mode.field gone it still compares the
    # scan's far and oracle columns, value for value
    monkeypatch.setattr(cli, "oracle_se", lambda cfg, r_a, n_a, omega: 42.0)
    cfg = RunConfig.load(_coarse_config(
        tmp_path,
        distance_scan={"axis": "y", "standoffs": ["50 nm", "150 nm",
                                                  "250 nm"],
                       "orientation": [0, 1]},
        propagator={},
        oracle={"enabled": True, "spectrum_stride": 2,
                "scan_checkpoints": [1, 2]}))
    out = _run(cfg, tmp_path / "out")
    (out / "mode.field").unlink()
    report = cli.stage_validate(cfg, str(out))
    header, scan = _read_csv(out / "distance.csv")
    columns = header.split(",")
    far = scan[:, columns.index("f_a_far")]
    checks = report["oracle_checks"]
    assert [c["far_model"] for c in checks.values()] == list(far[1:])
    assert [c["oracle"] for c in checks.values()] == [42.0, 42.0]
    assert list(checks) == ["standoff_150nm", "standoff_250nm"]


def test_find_starts_fresh_and_reports_pole_search(tmp_path):
    path = _coarse_config(tmp_path, dipoles=[])
    out = tmp_path / "out"
    out.mkdir()
    for name in GOLDEN_CSVS:
        (out / name).write_text("stale\n")
    (out / "report.json").write_text('{"v_eff_m2": 1.0}')
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["find", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["mode.field", "report.json"]
    report = json.loads((out / "report.json").read_text())
    assert "v_eff_m2" not in report
    search = report["pole_search"]
    its, steps = search["iterates_thz"], search["step_rel"]
    assert len(steps) == len(its) - 1 >= 1
    eig = report["eigenfrequency_thz"]
    assert its[-1] == pytest.approx([eig["real"], eig["imag"]], rel=1e-15)
    # the last step met the configured tolerance, the ones before did not
    tol = RunConfig.load(path).pole_rel_tol
    assert steps[-1] <= tol < min(steps[:-1], default=np.inf)
    # the search factorized first at the guess, later only at iterates
    shifts = search["shifts_thz"]
    assert shifts[0] == its[0] == [293.0, -31.0]
    assert all(z in its[:-1] for z in shifts)
