import numpy as np
import pytest

from qnmlab.background import green_b_2d, im_green_b_diag
from qnmlab.core import ConstantMaterial, DomainError
from qnmlab.dyson import RegularizedField, green_back_1, lorentzian_prefactor
from qnmlab.observables import (
    far_green_model,
    mode_green_model,
    out_green_model,
    se_enhancement,
)


@pytest.fixture(scope="module")
def reg(rod_pipeline):
    p = rod_pipeline
    return RegularizedField(p["mode"], p["rod"], p["material"], p["bg"])


def _omega_c(rod_pipeline):
    return rod_pipeline["mode"].frequency.omega


def test_zero_contrast_regularized_field_vanishes(rod_pipeline):
    p = rod_pipeline
    flat = ConstantMaterial(p["bg"].eps_b)
    vals = RegularizedField(p["mode"], p["rod"], flat, p["bg"]).eval(
        [(0, 60e-9), (100e-9, 0)], _omega_c(p))
    assert np.all(vals == 0)


def test_interior_point_rejected(reg, rod_pipeline):
    with pytest.raises(DomainError):
        reg.eval([(0.0, 0.0)], _omega_c(rod_pipeline))


def test_quadrature_refinement_converged(rod_pipeline):
    # doubling the base quadrature subdivision moves F by < 1% at 10 nm
    p = rod_pipeline
    omega = _omega_c(p)
    pt = [(15e-9, 0.0)]  # 10 nm off the side surface
    coarse = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"])
    fine = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"],
                            base_subdiv=4, max_subdiv=32, near_factor=24)
    a = coarse.eval(pt, omega)[0]
    b = fine.eval(pt, omega)[0]
    assert np.abs(a - b).max() < 1e-2 * np.abs(b).max()


def test_profile_coincides_near_but_decays_far(reg, rod_pipeline):
    # |F| tracks |f| near the rod; far out the raw mode outgrows it
    p = rod_pipeline
    omega = _omega_c(p)
    near = np.stack([np.zeros(4), np.linspace(50e-9, 110e-9, 4)], axis=-1)
    fvals = p["mode"].value_at(near)
    gvals = reg.eval(near, omega)
    ratio = np.linalg.norm(gvals, axis=1) / np.linalg.norm(fvals, axis=1)
    assert ratio.std() / ratio.mean() < 0.2  # same shape to ~20%
    far_pts = np.array([[0.0, 400e-9], [0.0, 800e-9]])
    f_far = p["mode"].value_at(far_pts)
    g_far = reg.eval(far_pts, omega)
    growth_f = np.linalg.norm(f_far[1]) / np.linalg.norm(f_far[0])
    growth_g = np.linalg.norm(g_far[1]) / np.linalg.norm(g_far[0])
    assert growth_f > 1.2 * growth_g  # regularization tames the tail


def test_cache_reuse_is_deterministic(reg, rod_pipeline):
    omega = _omega_c(rod_pipeline)
    a = reg.eval([(0, 60e-9)], omega)
    b = reg.eval([(0, 60e-9)], omega)
    assert np.array_equal(a, b)


def test_green_f_symmetric_and_needs_normalized_mode(rod_pipeline):
    p = rod_pipeline
    omega = _omega_c(p)
    r1, r2 = (0, 55e-9), (20e-9, 10e-9)
    model = mode_green_model(p["mode"], p["bg"])
    g12 = model.scattered(r1, r2, omega)
    g21 = model.scattered(r2, r1, omega)
    assert np.allclose(g12, g21.T, rtol=0, atol=1e-16 * np.abs(g12).max())
    with pytest.raises(DomainError):
        mode_green_model(p["mode_raw"], p["bg"])


def test_lorentzian_prefactor_on_resonance_scales_with_q(rod_pipeline):
    freq = rod_pipeline["mode"].frequency
    lor = lorentzian_prefactor(freq, freq.omega)
    # at w = w_c the prefactor is ~ i Q (dimensionless, up to 1/Q terms)
    assert abs(lor) == pytest.approx(freq.quality_factor, rel=0.05)
    assert np.angle(lor) == pytest.approx(np.pi / 2, abs=0.15)


def test_green_far_transpose_symmetry_and_gauge(reg, rod_pipeline):
    p = rod_pipeline
    omega = _omega_c(p)
    r1, r2 = (0, 60e-9), (150e-9, -40e-9)
    far = far_green_model(reg)
    a = far.full(r1, r2, omega)
    b = far.full(r2, r1, omega)
    assert np.allclose(a, b.T, rtol=1e-12)
    # flipping the mode gauge leaves the composed Green function unchanged
    flipped = RegularizedField(p["mode"].scaled(-1.0), p["rod"],
                               p["material"], p["bg"])
    c = far_green_model(flipped).full(r1, r2, omega)
    assert np.allclose(a, c, rtol=1e-12)


def test_green_out_reduces_to_far_away_from_surface(reg, rod_pipeline):
    omega = _omega_c(rod_pipeline)
    far, out = far_green_model(reg), out_green_model(reg)
    n = np.array([0.0, 1.0])
    r1 = (85e-9, 0.0)  # 80 nm off the side: image term negligible
    assert se_enhancement(out, r1, n, omega) == pytest.approx(
        se_enhancement(far, r1, n, omega), rel=0.05)
    r2 = (7e-9, 0.0)  # 2 nm off the side: image term dominates the change
    # coincident points: the background adds only its finite imaginary part
    g_b = 1j * im_green_b_diag(omega, rod_pipeline["bg"], dim=2) * np.eye(2)
    far2 = g_b + far.scattered(r2, r2, omega)
    out2 = g_b + out.scattered(r2, r2, omega)
    assert abs(n @ (out2 - far2) @ n) > 0.5 * abs(n @ far2 @ n)


def test_green_out_zero_contrast_is_background(rod_pipeline):
    p = rod_pipeline
    omega = _omega_c(p)
    flat = ConstantMaterial(p["bg"].eps_b)
    reg0 = RegularizedField(p["mode"], p["rod"], flat, p["bg"])
    r1, r2 = (30e-9, 10e-9), (60e-9, -20e-9)
    out = out_green_model(reg0).full(r1, r2, omega)
    gb = green_b_2d(np.array(r1), np.array(r2), omega, p["bg"])
    assert np.array_equal(out, gb)


def test_green_back_1_zero_contrast_and_symmetry(rod_pipeline):
    p = rod_pipeline
    omega = _omega_c(p)
    rod, bg = p["rod"], p["bg"]
    flat = ConstantMaterial(bg.eps_b)
    z = green_back_1(rod, flat, bg, omega, (20e-9, 0), (40e-9, 10e-9))
    assert np.all(z == 0)
    mat = p["material"]
    a = green_back_1(rod, mat, bg, omega, (20e-9, 0), (40e-9, 10e-9))
    b = green_back_1(rod, mat, bg, omega, (40e-9, 10e-9), (20e-9, 0))
    assert np.allclose(a, b.T, rtol=1e-10)
    with pytest.raises(DomainError):
        green_back_1(rod, mat, bg, omega, (0, 0), (40e-9, 10e-9))


def test_asymptotic_amplitude_tracks_background_column(reg, rod_pipeline):
    # far away, F radiates like a compact source: |F| / |G^B column| tends
    # to a direction-dependent constant
    p = rod_pipeline
    omega = _omega_c(p)
    direction = np.array([0.6, 0.8])
    vals = []
    for d in (500e-9, 700e-9, 900e-9):
        r = tuple(direction * d)
        fmag = np.linalg.norm(reg.eval([r], omega)[0])
        gmag = np.linalg.norm(
            green_b_2d(np.asarray(r), np.zeros(2), omega, p["bg"])
            @ np.array([0, 1.0]))
        vals.append(fmag / gmag)
    vals = np.array(vals)
    assert vals.std() / vals.mean() < 0.05
