import json
import logging
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from qnmlab.core import (
    Background,
    ComplexFrequency,
    ConstantMaterial,
    Cylinder2D,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
    PoleSearchError,
    Rod2D,
)
from qnmlab.solver import (
    DiscreteOperator,
    ModeField,
    PoleSearch,
    assemble,
    driven_response,
    find_qnm,
    load_mode,
    save_mode,
)
from qnmlab.solver.mie import mie_pole
from qnmlab.solver.modes import _uniform_ey
from qnmlab.solver.roots import secant_root

BG = Background(1.5)
MAT = ConstantMaterial(9.0)
CYL = Cylinder2D(radius=150e-9)
GUESS = 2.4e15 - 0.35e15j

# the paper rod on a coarse h = 5 nm grid, mirror-reduced, guessed near its
# pole; ROD_POLE is what a secant search on the inverse driven response
# (six factorizations) found on this grid from this guess
ROD = Rod2D(width=10e-9, length=80e-9)
DRUDE = DrudeModel(omega_p=1.26e16, gamma_d=7e13)
ROD_GUESS = 2 * np.pi * (358e12 - 25e12j)
ROD_POLE = 2249240428473682.8 - 159600938226948.72j


def _grid(h, width=1.0e-6, pml=16):
    half = (round(width / h) // 2) * h
    return GridSpec(extent=((-half, half), (-half, half)), h=h,
                    pml=PmlSpec(cells=pml))


@pytest.fixture(scope="module")
def analytic_pole():
    return mie_pole(150e-9, MAT, BG, 1, GUESS).omega_tilde


@pytest.fixture(scope="module")
def cylinder_modes():
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in (10e-9, 5e-9, 2.5e-9):
            out[h] = find_qnm(_grid(h), CYL, MAT, BG,
                              PoleSearch(omega_guess=GUESS))
    return out


def test_cylinder_pole_matches_analytic_series(cylinder_modes, analytic_pole):
    got = cylinder_modes[5e-9].frequency.omega_tilde
    assert abs(got - analytic_pole) / abs(analytic_pole) < 6e-3


def test_grid_convergence_of_eigenfrequency(cylinder_modes, analytic_pole):
    # halving h cuts the eigenfrequency error at least threefold against the
    # extrapolated limit (second-order bulk scheme)
    f = [cylinder_modes[h].frequency.omega_tilde for h in (10e-9, 5e-9, 2.5e-9)]
    p_obs = np.log2(abs(f[0] - f[1]) / abs(f[1] - f[2]))
    f_rich = f[2] + (f[2] - f[1]) / (2**p_obs - 1)
    errs = np.abs(np.array(f) - f_rich)
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0
    # and the extrapolated value agrees with the analytic pole to ~0.1%
    assert abs(f_rich - analytic_pole) / abs(analytic_pole) < 2e-3


def test_mode_profile_quality(cylinder_modes):
    m = cylinder_modes[5e-9]
    # eigen-residual of the extracted field, relative to the operator scale
    assert m.residual < 1e-10
    # gauge: the largest-magnitude sample is real and positive
    vals = np.concatenate([m.ex.ravel(), m.ey.ravel()])
    v = vals[np.argmax(np.abs(vals))]
    assert v.imag == pytest.approx(0.0, abs=1e-9 * abs(v))
    assert v.real > 0
    assert m.norm_state == "raw"


def test_mode_symmetry_reduction_matches_full(cylinder_modes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m_q = find_qnm(_grid(5e-9), CYL, MAT, BG,
                       PoleSearch(omega_guess=GUESS), symmetry="xy")
    full = cylinder_modes[5e-9].frequency.omega_tilde
    assert abs(m_q.frequency.omega_tilde - full) / abs(full) < 1e-7


# the rod of the Lorentzian test: its guess is 3.6 % from the pole, the near
# guess 2e-5
LORENTZ_GUESS = 2 * np.pi * (400e12 - 35e12j)
LORENTZ_NEAR = 2 * np.pi * (386.8e12 - 30.3e12j)


def test_single_pole_lorentzian_fit_of_rod_response():
    # the rod plasmon is spectrally isolated: the driven response (the
    # scattered field of a uniform E_y incident field, at a probe inside the
    # rod) over omega_c +- 1.5 gamma_c fits one pole plus a smooth
    # background to well under 5%
    rod = Rod2D(10e-9, 80e-9)
    mat = DrudeModel(1.26e16, 7e13)
    grid = _grid(2.5e-9, width=0.9e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mode = find_qnm(grid, rod, mat, BG,
                        PoleSearch(omega_guess=LORENTZ_GUESS),
                        symmetry="xy")
        wt = mode.frequency.omega_tilde
        ws = wt.real + np.linspace(-1.5, 1.5, 9) * abs(wt.imag)
        resp = np.array([driven_response(grid, rod, mat, BG, w,
                                         symmetry="xy") for w in ws])
    # least squares for r(w) = a w^2/(wt - w) + b + c (w - w0), with
    # column normalization so the pole scale does not swamp the background
    basis = np.stack([ws**2 / (wt - ws), np.ones_like(ws), ws - wt.real],
                     axis=1)
    basis = basis / np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis, resp, rcond=None)
    fit = basis @ coef
    assert np.abs(fit - resp).max() < 0.05 * np.abs(resp).max()


def _find_rod(grid=None, guess=ROD_GUESS, **search):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return find_qnm(grid or _grid(5e-9, width=2.1e-6, pml=24), ROD,
                        DRUDE, BG, PoleSearch(omega_guess=guess, **search),
                        symmetry="xy")


def test_pole_search_warns_of_a_margin_below_one_wavelength():
    # 300 nm between the rod's tips and the grid edge, against 837 nm
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_qnm(_grid(5e-9, width=0.68e-6), ROD, DRUDE, BG,
                 PoleSearch(omega_guess=ROD_GUESS), symmetry="xy")
    margin = [w for w in caught if "margin between" in str(w.message)]
    assert len(margin) == 1


class _Factor:
    """Stand-in for a SuperLU factor, which takes no weak references."""

    def __init__(self, lu):
        self.solve = lu.solve


@pytest.fixture
def factors(monkeypatch):
    """Weak references to every factor made, for each the number of factors
    still alive when it was made, and the dtype of each factored matrix."""
    made, alive_before, dtypes = [], [], []
    splu = spla.splu

    def tracked_splu(a, *args, **kwargs):
        alive_before.append(sum(f() is not None for f in made))
        dtypes.append(a.dtype)
        factor = _Factor(splu(a, *args, **kwargs))
        made.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", tracked_splu)
    return made, alive_before, dtypes


def test_pole_search_factorizes_once_one_factor_at_a_time(factors, caplog):
    made, alive_before, dtypes = factors
    with caplog.at_level(logging.DEBUG, logger="qnm.modes"):
        mode = _find_rod()
    assert len(made) <= 3
    assert len(made) == 1
    # the shift-inverse of residual inverse iteration is single precision
    assert dtypes == [np.complex64]
    assert max(alive_before) == 0
    assert all(f() is None for f in made)
    assert mode.residual < 1e-12
    pole = mode.frequency.omega_tilde
    assert abs(pole - ROD_POLE) <= 1e-9 * abs(ROD_POLE)
    assert mode.pole_iterates[0] == ROD_GUESS
    assert mode.pole_iterates[-1] == pole
    assert mode.pole_shifts == (ROD_GUESS,)
    # one DEBUG line per outer iterate
    lines = [r.getMessage() for r in caplog.records
             if r.name == "qnm.modes" and r.levelno == logging.DEBUG]
    assert len(lines) == len(mode.pole_iterates) - 1
    assert all("THz" in line and "|step|/|omega|" in line
               and "residual" in line and "re-shift" not in line
               for line in lines)


def test_pole_search_assembles_each_frequency_once(monkeypatch):
    # each Rayleigh secant starts at the current omega, whose operator the
    # search already holds: the guess's, then the last iterate's
    from qnmlab.solver import modes
    omegas = []
    assemble = modes.assemble

    def tracked(grid, geometry, material, bg, omega, symmetry=None):
        omegas.append(complex(omega))
        return assemble(grid, geometry, material, bg, omega, symmetry)

    monkeypatch.setattr(modes, "assemble", tracked)
    mode = _find_rod()
    assert len(omegas) == len(set(omegas))
    assert set(mode.pole_iterates) <= set(omegas)


def test_pole_search_makes_each_product_once(monkeypatch):
    # the eigen-residual's product A(w) x is the next use of A(w) x: a
    # secant starts from it and a refine step at the found pole takes it
    # as input, so a refine step makes one product and no product of one
    # operator and one vector is made twice
    from qnmlab.solver import modes
    events, products = [], []
    apply, sweep, secant = (DiscreteOperator.apply, DiscreteOperator.sweep,
                            modes.secant_root)

    def spy_apply(self, x):
        events.append("apply")
        products.append((self.omega, hash(x.tobytes())))
        return apply(self, x)

    def spy_sweep(self, b):
        events.append("sweep")
        return sweep(self, b)

    def spy_secant(*args, **kwargs):
        root = secant(*args, **kwargs)
        events.append("secant")
        return root

    monkeypatch.setattr(DiscreteOperator, "apply", spy_apply)
    monkeypatch.setattr(DiscreteOperator, "sweep", spy_sweep)
    monkeypatch.setattr(modes, "secant_root", spy_secant)
    _find_rod()
    assert len(products) == len(set(products))
    # after the last secant: the last outer step, then the refine steps
    tail = events[len(events) - events[::-1].index("secant"):]
    assert tail[:3] == ["apply", "sweep", "apply"]
    refine = tail[3:]
    assert refine and refine == ["sweep", "apply"] * (len(refine) // 2)


def test_far_guess_reshifts_once_and_finds_the_near_guess_pole(factors,
                                                               caplog):
    made, alive_before, _ = factors
    grid = _grid(2.5e-9, width=0.9e-6)
    with caplog.at_level(logging.DEBUG, logger="qnm.modes"):
        far = _find_rod(grid, LORENTZ_GUESS)
    assert 1 <= len(made) <= 2
    assert max(alive_before) == 0
    assert far.pole_shifts[0] == LORENTZ_GUESS
    assert len(far.pole_shifts) == len(made)
    assert sum("re-shift" in r.getMessage() for r in caplog.records
               if r.name == "qnm.modes") == len(made) - 1
    near = _find_rod(grid, LORENTZ_NEAR)
    assert len(made) - len(far.pole_shifts) == 1
    pole = near.frequency.omega_tilde
    assert abs(far.frequency.omega_tilde - pole) <= 1e-9 * abs(pole)


def test_sweep_is_an_approximate_solve():
    # one unrefined pass through the complex64 factor: near the solve, yet
    # not equal to it
    op = assemble(_grid(5e-9, width=2.1e-6, pml=24), ROD, DRUDE, BG,
                  ROD_GUESS, symmetry="xy")
    b = op.scattered_rhs(_uniform_ey)
    exact = op.solve(b)
    gap = np.linalg.norm(op.sweep(b) - exact) / np.linalg.norm(exact)
    assert 1e-6 < gap < 1e-3


def test_pole_search_does_not_depend_on_the_shift_precision(monkeypatch):
    # the fixed point A(w) x = 0 is evaluated in double precision: the
    # exact shift-inverse finds the same pole and mode
    single = _find_rod()
    monkeypatch.setattr(DiscreteOperator, "sweep", DiscreteOperator.solve)
    double = _find_rod()
    pole = double.frequency.omega_tilde
    assert abs(single.frequency.omega_tilde - pole) <= 1e-12 * abs(pole)
    scale = max(np.abs(double.ex).max(), np.abs(double.ey).max())
    for a, b in ((single.ex, double.ex), (single.ey, double.ey)):
        assert np.abs(a - b).max() <= 1e-10 * scale


def test_exhausted_pole_search_raises_with_trajectory():
    with pytest.raises(PoleSearchError, match="within 1 iterations") as err:
        _find_rod(max_iter=1)
    assert f"trajectory: [{ROD_GUESS}, " in str(err.value)


def test_no_pole_in_basin_raises():
    # no pole within a quarter of |guess|: the first Rayleigh root leaves
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PoleSearchError, match="left the search basin"):
            find_qnm(_grid(10e-9), CYL, MAT, BG,
                     PoleSearch(omega_guess=1.0e15 - 0.5e14j, max_iter=8))


def test_mode_container_roundtrip_bit_exact(cylinder_modes, tmp_path):
    m = cylinder_modes[10e-9]
    path = tmp_path / "mode.field"
    save_mode(m, path)
    r = load_mode(path)
    assert np.array_equal(r.ex, m.ex)
    assert np.array_equal(r.ey, m.ey)
    assert r.frequency == m.frequency
    assert r.grid == m.grid
    assert r.geometry == m.geometry
    assert r.bg == m.bg
    assert r.norm_state == m.norm_state and r.norm_value == m.norm_value
    # and a second save is byte-identical
    path2 = tmp_path / "mode2.field"
    save_mode(r, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_mode_file_is_a_header_line_then_float64_pairs(cylinder_modes,
                                                       tmp_path):
    # the documented layout, built by hand: one JSON header line, then each
    # sample as its little-endian float64 (re, im) pair, E_x then E_y, both
    # row-major; signed zeros survive the round trip
    m = cylinder_modes[10e-9]
    ex = m.ex.copy()
    ex[0, 0], ex[0, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    m = replace(m, ex=ex)
    path = tmp_path / "mode.field"
    save_mode(m, path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["shape_ex"] == list(m.ex.shape)
    assert header["shape_ey"] == list(m.ey.shape)
    pairs = [np.stack([a.real, a.imag], axis=-1).astype("<f8").tobytes()
             for a in (m.ex, m.ey)]
    assert payload == b"".join(pairs)
    r = load_mode(path)
    assert r.ex.tobytes() == m.ex.tobytes()
    assert r.ey.tobytes() == m.ey.tobytes()
    assert np.signbit(r.ex[0, 0].real) and np.signbit(r.ex[0, 1].imag)


def test_mode_file_of_the_wrong_size_raises(cylinder_modes, tmp_path):
    path = tmp_path / "mode.field"
    save_mode(cylinder_modes[10e-9], path)
    head, payload = path.read_bytes().split(b"\n", 1)
    for bad in (payload[:-1000], payload + b"\0"):
        path.write_bytes(head + b"\n" + bad)
        with pytest.raises(DomainError) as err:
            load_mode(path)
        msg = str(err.value)
        assert str(path) in msg
        assert f"{len(bad)} bytes" in msg and str(len(payload)) in msg


@pytest.mark.parametrize("data", [b"", b"\xff\xfe\n", b"not json\n"],
                         ids=["empty", "not-utf8", "not-json"])
def test_mode_file_without_a_header_raises(tmp_path, data):
    path = tmp_path / "mode.field"
    path.write_bytes(data)
    with pytest.raises(DomainError, match="not a mode container"):
        load_mode(path)


@pytest.mark.parametrize("key", ["grid", "geometry", "n_b", "eigenfrequency",
                                 "norm_state", "norm_value", "gauge",
                                 "residual"])
def test_mode_header_without_a_key_raises(cylinder_modes, tmp_path, key):
    path = tmp_path / "mode.field"
    save_mode(cylinder_modes[10e-9], path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header[key]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DomainError, match="not a mode container"):
        load_mode(path)


def test_mode_header_with_the_pml_grading_raises(cylinder_modes, tmp_path):
    # grid.pml holds the thickness alone; a header of the old layout, with
    # the grading order and reflection target, is not a mode container
    path = tmp_path / "mode.field"
    save_mode(cylinder_modes[10e-9], path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["grid"]["pml"] == {"cells": 16}
    header["grid"]["pml"].update(order=3, target_reflection=1e-8)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DomainError, match="not a mode container"):
        load_mode(path)


def test_mode_value_interpolation(cylinder_modes):
    m = cylinder_modes[10e-9]
    v = m.value_at([(30e-9, 40e-9), (0.0, 100e-9)])
    assert v.shape == (2, 2)
    assert np.all(np.isfinite(v))


def test_value_at_reads_a_few_nodes_on_a_paper_size_grid():
    # one value_at call on the 840 x 840 paper lattice allocates under 1 MB,
    # against 11 MB for each colocated copy of a node array
    h = 2.5e-9
    grid = GridSpec(extent=((-420 * h, 420 * h), (-420 * h, 420 * h)), h=h,
                    pml=PmlSpec(cells=24))
    nx, ny = grid.n_cells
    ex = np.ones((nx, ny + 1), dtype=complex)
    ey = np.ones((nx + 1, ny), dtype=complex)
    mode = ModeField(grid=grid, geometry=Rod2D(10e-9, 80e-9), bg=Background(1.5),
                     ex=ex, ey=2 * ey,
                     frequency=ComplexFrequency(2.4e15, 1.9e14))
    mode.value_at([(0.0, 50.4e-9)])  # first call outside the measurement
    tracemalloc.start()
    try:
        v = mode.value_at([(0.0, 50.4e-9)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(v, [[1.0, 2.0]])
    assert peak < 1 << 20


# -- root utilities on synthetic responses -----------------------------------


def _poly(z):
    return (z - 2.0 - 1.0j) * (z + 3.0)


def test_secant_root_on_polynomial():
    z, history = secant_root(_poly, 2.2 + 0.8j)
    assert z == pytest.approx(2.0 + 1.0j, rel=1e-9)
    assert history[0] == 2.2 + 0.8j and history[-1] == z


def test_secant_root_leaving_basin_raises():
    with pytest.raises(PoleSearchError, match="left the search basin"):
        secant_root(_poly, 2.2 + 0.8j, basin_radius=0.01)


def test_secant_root_exhausted_raises():
    with pytest.raises(PoleSearchError, match="within 2 iterations"):
        secant_root(_poly, 2.2 + 0.8j, rel_tol=1e-12, max_iter=2)
