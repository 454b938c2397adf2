import numpy as np
import pytest
import warnings

from scipy.special import h1vp, hankel1, jv, jvp

from qnmlab.background import green_b_2d
from qnmlab.core import (
    Background,
    ConstantMaterial,
    ConvergenceError,
    Cylinder2D,
    DrudeModel,
    GridSpec,
    PmlSpec,
)
from qnmlab.observables import se_from_scattered
from qnmlab.solver import assemble
from qnmlab.solver.mie import (
    MAX_ORDER,
    _curl_waves,
    mie_cylinder,
    mie_pole,
    mie_scattered_green,
)

BG = Background(1.5)
OMEGA = 2 * np.pi * 415.863e12


def test_zero_contrast_gives_zero_coefficients():
    # sqrt(eps_b)/n_b rounds to 1 + 1 ulp, so "exactly zero" means ~1e-19
    res = mie_cylinder(30e-9, ConstantMaterial(BG.eps_b), BG, OMEGA)
    assert np.abs(res["a"]).max() < 1e-15
    assert abs(res["c_ext"]) < 1e-22 and abs(res["c_sca"]) < 1e-22


def test_lossless_optical_theorem():
    # energy conservation: extinction equals scattering without absorption
    res = mie_cylinder(150e-9, ConstantMaterial(9.0), BG, 2.2e15)
    assert res["c_ext"] == pytest.approx(res["c_sca"], rel=1e-12)
    assert abs(res["c_abs"]) < 1e-12 * res["c_sca"]
    # unitarity of each partial wave: Re a_n = -|a_n|^2
    a = res["a"]
    assert np.allclose(a.real, -np.abs(a) ** 2, atol=1e-14)


def test_lossy_cylinder_absorbs():
    res = mie_cylinder(30e-9, DrudeModel(1.26e16, 7e13), BG, OMEGA)
    assert res["c_abs"] > 0
    assert res["c_ext"] > res["c_sca"] > 0


def test_series_order_cap_raises():
    with pytest.raises(ConvergenceError):
        mie_cylinder(150e-9, ConstantMaterial(9.0), BG, 2.2e15, n_max=150)


def test_mie_pole_is_denominator_root():
    mat = ConstantMaterial(9.0)
    a = 150e-9
    f = mie_pole(a, mat, BG, 1, 2.3e15 - 0.3e15j)
    wt = f.omega_tilde
    m = 3.0 / BG.n_b
    x = BG.wavenumber(wt) * a
    d = m * h1vp(1, x) * jv(1, m * x) - hankel1(1, x) * jvp(1, m * x)
    assert abs(d) < 1e-8
    assert f.quality_factor == pytest.approx(3.12, abs=0.05)


# -- the dipole series --------------------------------------------------------

RADIUS = 30e-9
DRUDE = DrudeModel(1.26e16, 7e13)
# exterior point pairs, rho1 < rho2 in each pair, off every symmetry axis
R1 = np.array([[60e-9, 25e-9], [-30e-9, 70e-9], [45e-9, -50e-9]])
R2 = np.array([[-150e-9, 120e-9], [200e-9, -90e-9], [-40e-9, -260e-9]])


def _f_a(g, n):
    n = np.asarray(n, dtype=float)
    return se_from_scattered(n @ g @ n, OMEGA, BG)


def test_graf_form_of_series_is_background_green():
    # J_n(k rho1) in place of a_n H_n(k rho1) sums to G^B for rho1 < rho2
    k = BG.wavenumber(OMEGA)
    orders = np.arange(-60, 61)
    waves_j = _curl_waves(orders, k, R1, jv, jvp)
    waves_h = _curl_waves(-orders, k, R2, hankel1, h1vp)
    g = 0.25j / BG.eps_b * np.einsum("pni,pnj->pij", waves_j, waves_h)
    g_b = green_b_2d(R1, R2, OMEGA, BG)
    assert np.abs(g - g_b).max() <= 1e-12 * np.abs(g_b).max()


def test_dipole_series_is_reciprocal():
    g_12 = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, R1, R2)
    g_21 = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, R2, R1)
    assert g_12.shape == (3, 2, 2)
    assert np.abs(g_12 - np.swapaxes(g_21, -1, -2)).max() \
        <= 1e-12 * np.abs(g_12).max()


def test_dipole_series_vanishes_without_contrast():
    g = mie_scattered_green(RADIUS, ConstantMaterial(BG.eps_b), BG, OMEGA,
                            R1, R2)
    assert np.abs(g).max() <= 1e-12 * np.abs(green_b_2d(R1, R2, OMEGA,
                                                        BG)).max()


def test_dipole_series_order_comes_from_the_points():
    # 5 nm off the surface the terms fall like (30/35)^(2n): the series
    # needs order 90, and mie_cylinder's order (chosen from |a_n|) is short
    r = (0.0, RADIUS + 5e-9)
    g = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, r, r)
    g_cap = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, r, r,
                                n_max=MAX_ORDER)
    n_mie = len(mie_cylinder(RADIUS, DRUDE, BG, OMEGA)["a"]) - 1
    g_mie = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, r, r, n_max=n_mie)
    for n in ((1.0, 0.0), (0.0, 1.0)):
        assert _f_a(g, n) == pytest.approx(_f_a(g_cap, n), rel=1e-10)
    assert abs(_f_a(g_mie, (1.0, 0.0)) / _f_a(g, (1.0, 0.0)) - 1) > 0.05


def test_dipole_series_too_close_raises():
    r = (RADIUS + 1e-9, 0.0)
    with pytest.raises(ConvergenceError):
        mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, r, r)


# -- the grid solver against the dipole series -------------------------------


@pytest.fixture(scope="module")
def cylinder_operator():
    # staircased 30 nm Drude cylinder at h = 1 nm, factored once for every
    # dipole solve below; each is a scattered-field solve driven by the
    # dipole's analytic background field
    half = 220e-9
    grid = GridSpec(extent=((-half, half), (-half, half)), h=1e-9,
                    pml=PmlSpec(cells=30))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return assemble(grid, Cylinder2D(RADIUS), DRUDE, BG, OMEGA)


def _scattered(op, r_a, n_a):
    """The scattered field of the dipole n_a at r_a on ``op``."""
    r_a, n_a = np.asarray(r_a), np.asarray(n_a)
    return op.solve(op.scattered_rhs(
        lambda r: green_b_2d(r, r_a, OMEGA, BG) @ n_a))


def test_solver_emission_matches_dipole_series(cylinder_operator):
    # at 5 and 10 nm the staircased surface puts the grid 1.5-35 % off
    op = cylinder_operator
    for standoff in (20e-9, 50e-9):
        r = (RADIUS + standoff, 0.0)
        g = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, r, r)
        for n in ((1.0, 0.0), (0.0, 1.0)):
            g_scat = op.sample(_scattered(op, r, n), r, n)
            f_num = se_from_scattered(g_scat, OMEGA, BG)
            assert f_num == pytest.approx(_f_a(g, n), rel=2e-2), standoff


def test_scattered_far_field_against_series(cylinder_operator):
    # the grid's scattered field on a circle inside the grid against the
    # series column
    op = cylinder_operator
    r_a, n_a = (50e-9, 0.0), np.array([0.0, 1.0])
    x_scat = _scattered(op, r_a, n_a)
    ths = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ring = np.stack([np.cos(ths), np.sin(ths)], axis=-1)
    near = 120e-9 * ring
    ref = mie_scattered_green(RADIUS, DRUDE, BG, OMEGA, near, r_a) @ n_a
    num = np.array([[op.sample(x_scat, p, e) for e in ((1.0, 0.0),
                                                      (0.0, 1.0))]
                    for p in near])
    assert np.abs(num - ref).max() < 3e-2 * np.abs(ref).max()
