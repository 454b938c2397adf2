import numpy as np
import pytest
from scipy.constants import c as C0
from scipy.special import hankel1

from qnmlab.background import (
    green_b_2d,
    green_qs,
    im_green_b_diag,
    image_strength,
    scalar_g_2d,
)
from qnmlab.core import (
    Background,
    ConstantMaterial,
    DomainError,
    DrudeModel,
    SurfacePlane,
)

BG = Background(1.5)
OMEGA = 2 * np.pi * 415.863e12
K = BG.wavenumber(OMEGA)


def test_coincident_points_raise():
    with pytest.raises(DomainError):
        green_b_2d([0, 0], [0, 0], OMEGA, BG)


def test_dyadic_matches_the_hankel_closed_form():
    # the real-argument J + iY kernel against the complex-argument AMOS
    # Hankel functions, with scalar_g_2d as the (i/4) H0 term, over kR
    # from 1e-5 to 1e3 in random directions
    rng = np.random.default_rng(7)
    kr = np.logspace(-5, 3, 2001)
    th = rng.uniform(0.0, 2.0 * np.pi, kr.size)
    r1 = np.stack([np.cos(th), np.sin(th)], axis=-1) * (kr / K)[:, None]
    r2 = np.array([40e-9, -15e-9])
    r1 = r1 + r2
    got = green_b_2d(r1, r2, OMEGA, BG)
    d = r1 - r2
    R = np.sqrt(np.sum(d**2, axis=-1))  # the kernel's own distance
    uu = (d[:, :, None] * d[:, None, :]) / (R**2)[:, None, None]
    eye = np.eye(2)
    h1z = 0.25j * hankel1(1, K * R) / (K * R)
    want = (OMEGA / C0) ** 2 * ((eye - uu) * scalar_g_2d(K, R)[:, None, None]
                                + (2 * uu - eye) * h1z[:, None, None])
    gap = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert gap.max() < 1e-13


@pytest.mark.parametrize("omega", [OMEGA + 0j, OMEGA - 1e12j, 0.0, -OMEGA])
def test_kernel_refuses_complex_and_non_positive_frequencies(omega):
    with pytest.raises(DomainError, match="real positive frequency"):
        green_b_2d([10e-9, 0.0], [0.0, 0.0], omega, BG)


def test_2d_outgoing_cylindrical_asymptotics():
    # far field decays as 1/sqrt(kd) with phase exp(ikd)
    d1, d2 = 200 / K, 800 / K
    g1 = green_b_2d([d1, 0], [0, 0], OMEGA, BG)
    g2 = green_b_2d([d2, 0], [0, 0], OMEGA, BG)
    ratio = g2[1, 1] / g1[1, 1]
    assert abs(ratio) == pytest.approx(np.sqrt(d1 / d2), rel=1e-2)
    phase = np.angle(ratio) % (2 * np.pi)
    assert phase == pytest.approx(K * (d2 - d1) % (2 * np.pi), abs=1e-2)
    # transverse (yy) component dominates the longitudinal (xx) one far out
    assert abs(g2[0, 0]) < 1e-2 * abs(g2[1, 1])


def test_reciprocity_swap_transposes_exactly():
    r1 = np.array([3.1e-9, -12.0e-9])
    r2 = np.array([-40.0e-9, 7.3e-9])
    a = green_b_2d(r1, r2, OMEGA, BG)
    b = green_b_2d(r2, r1, OMEGA, BG)
    assert np.array_equal(a, b.T)


def _d2_scalar(f, r, i, j, step):
    """4th-order finite-difference second partial d^2 f / dr_i dr_j."""
    e_i = np.zeros(2); e_i[i] = 1.0
    e_j = np.zeros(2); e_j[j] = 1.0
    if i == j:
        c = [(-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)]
        return sum(w * f(r + m * step * e_i) for m, w in c) / step**2
    c1 = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]
    tot = 0.0
    for mi, wi in c1:
        for mj, wj in c1:
            tot += wi * wj * f(r + mi * step * e_i + mj * step * e_j)
    return tot / step**2


def test_2d_dyadic_matches_differentiated_scalar_green_function():
    # oracle: G_ij = k0^2 [ d_ij g + (1/k^2) d_i d_j g ], derivatives numeric
    r2 = np.array([0.0, 0.0])
    r1 = np.array([1.0, 0.6]) / np.hypot(1.0, 0.6) / K  # kd = 1
    k0 = OMEGA / C0
    f = lambda r: scalar_g_2d(K, np.linalg.norm(r - r2))
    step = 3e-3 / K
    oracle = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            oracle[i, j] = k0**2 * ((i == j) * f(r1)
                                    + _d2_scalar(f, r1, i, j, step) / K**2)
    got = green_b_2d(r1, r2, OMEGA, BG)
    assert np.allclose(got, oracle, rtol=1e-6, atol=0)


def test_2d_dyadic_satisfies_helmholtz_away_from_source():
    # discrete curl curl applied to a sampled column converges at O(h^2)
    r2 = np.array([0.0, 0.0])
    r0 = np.array([2.0, 1.2]) / K

    def residual(h):
        # E_x on (i+1/2, j) nodes, E_y on (i, j+1/2), five cells around r0
        n = 5
        ex = np.empty((n, n + 1), dtype=complex)
        ey = np.empty((n + 1, n), dtype=complex)
        for a in range(n):
            for b in range(n + 1):
                p = r0 + h * np.array([a + 0.5, b])
                ex[a, b] = green_b_2d(p, r2, OMEGA, BG)[0, 1]
        for a in range(n + 1):
            for b in range(n):
                p = r0 + h * np.array([a, b + 0.5])
                ey[a, b] = green_b_2d(p, r2, OMEGA, BG)[1, 1]
        hz = (ey[1:, :] - ey[:-1, :]) / h - (ex[:, 1:] - ex[:, :-1]) / h
        # curl curl at the central E_y node minus k^2 E_y
        i, j = n // 2, n // 2 - 1
        cc_y = -(hz[i, j + 1] - hz[i - 1, j + 1]) / h
        return abs(cc_y - K**2 * ey[i, j + 1])

    h1 = 5e-3 / K
    r_1, r_2 = residual(h1), residual(h1 / 2)
    assert r_1 / r_2 == pytest.approx(4.0, rel=0.15)


def _richardson2(z1, v1, z2, v2):
    # eliminate the leading O(z^2) correction
    return (z1**2 * v2 - z2**2 * v1) / (z1**2 - z2**2)


def test_im_green_b_diag_2d_is_coincident_limit():
    # small-separation diagonal extrapolates onto the analytic value
    n = np.array([0.0, 1.0])
    zs = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    vals = np.array([n @ green_b_2d([z / K, 0], [0, 0], OMEGA, BG).imag @ n
                     for z in zs])
    lim = im_green_b_diag(OMEGA, BG, dim=2)
    errs = np.abs(vals / lim - 1)
    assert errs[1] < 1e-3  # raw value already inside 0.1% at kd = 1e-2
    assert np.all(np.diff(errs) < 0)
    rich = _richardson2(zs[-2], vals[-2], zs[-1], vals[-1])
    assert abs(rich / lim - 1) < 1e-8
    # diagonal is isotropic: x-oriented observation agrees in the limit
    m = np.array([1.0, 0.0])
    vx = m @ green_b_2d([0, 1e-3 / K], [0, 0], OMEGA, BG).imag @ m
    assert vx == pytest.approx(lim, rel=1e-6)
    # the package is 2D: any other dimension is refused
    with pytest.raises(DomainError, match="dim=2"):
        im_green_b_diag(OMEGA, BG, dim=3)


SURF = SurfacePlane(point=(5e-9, 0.0), normal=(1.0, 0.0))


def test_green_qs_zero_contrast_vanishes():
    mat = ConstantMaterial(BG.eps_b)
    g = green_qs([15e-9, 0], [25e-9, 3e-9], OMEGA, mat, BG, SURF)
    assert np.all(g == 0)


def test_green_qs_perfect_conductor_limit():
    # eps -> inf: image strength -> 1/2, p dipole couples with + sign to the
    # electrostatic line-dipole response of its image at distance 2h
    from qnmlab.background import static_green_2d
    mat = ConstantMaterial(1e12)
    assert image_strength(mat, BG, OMEGA) == pytest.approx(0.5, rel=1e-10)
    h = 8e-9
    r_a = np.array([5e-9 + h, 0.0])
    g = green_qs(r_a, r_a, OMEGA, mat, BG, SURF)
    gs = static_green_2d(r_a, np.array([5e-9 - h, 0.0]), BG)
    n = np.array([1.0, 0.0])
    assert n @ g @ n == pytest.approx(0.5 * (n @ gs @ n), rel=1e-9)
    # the p response is the (2 u u - 1) dipole term at R = 2h
    assert n @ gs @ n == pytest.approx(1 / (2 * np.pi * BG.eps_b * (2 * h) ** 2))
    # s dipole couples with - sign
    t = np.array([0.0, 1.0])
    assert t @ g @ t == pytest.approx(-0.5 * (t @ gs @ t), rel=1e-9)
    # image term decays like 1/R^2, no radiating tail
    g_far = green_qs(np.array([205e-9, 0.0]), np.array([205e-9, 0.0]),
                     OMEGA, mat, BG, SURF)
    assert abs(g_far[0, 0]) < 2e-3 * abs(g[0, 0])  # (16nm/400nm)^2


def test_image_strength_resonant_near_surface_plasmon_condition():
    mat = DrudeModel(1.26e16, 7e13)
    # eps(w) = -eps_b at w ~ wp / sqrt(1 + eps_b)
    w_sp = 1.26e16 / np.sqrt(1 + BG.eps_b)
    assert abs(image_strength(mat, BG, w_sp)) > 10
    expected = (mat.eps(w_sp) - BG.eps_b) / (2 * (mat.eps(w_sp) + BG.eps_b))
    assert image_strength(mat, BG, w_sp) == pytest.approx(expected)


def test_green_qs_reciprocity_with_consistent_mirroring():
    mat = DrudeModel(1.26e16, 7e13)
    r_a = np.array([12e-9, 4e-9])
    r_b = np.array([9e-9, -17e-9])
    g_ab = green_qs(r_a, r_b, OMEGA, mat, BG, SURF)
    g_ba = green_qs(r_b, r_a, OMEGA, mat, BG, SURF)
    assert np.allclose(g_ab, g_ba.T, rtol=1e-12)


def test_green_qs_rejects_points_behind_surface():
    mat = DrudeModel(1.26e16, 7e13)
    with pytest.raises(DomainError):
        green_qs([4e-9, 0], [15e-9, 0], OMEGA, mat, BG, SURF)
    with pytest.raises(DomainError):
        green_qs([15e-9, 0], [5e-9, 0], OMEGA, mat, BG, SURF)
