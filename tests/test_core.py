import numpy as np
import pytest

from qnmlab.core import (
    Background,
    ComplexFrequency,
    ConstantMaterial,
    Cylinder2D,
    Dipole,
    DomainError,
    DrudeModel,
    GridSpec,
    HalfSpace,
    PmlSpec,
    Rod2D,
    SurfacePlane,
    interior_fraction,
)

WP = 1.26e16
GD = 7e13


def test_constant_eps_any_frequency():
    mat = ConstantMaterial(2.25)
    assert mat.eps(1.0e15) == 2.25 + 0j
    assert mat.eps(3.0e15 - 1j * 1e14) == 2.25 + 0j


def test_drude_eps_reference_value():
    # direct complex arithmetic at the rod resonance frequency
    mat = DrudeModel(omega_p=WP, gamma_d=GD)
    omega = 2 * np.pi * 415.863e12
    expected = 1 - WP**2 / (omega * (omega + 1j * GD))  # = -22.2364 + 0.6225j
    got = mat.eps(omega)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got.real == pytest.approx(-22.2364, rel=1e-4)
    assert got.imag == pytest.approx(0.6225, rel=1e-3)


def test_drude_lossless_is_real():
    mat = DrudeModel(omega_p=WP, gamma_d=0.0)
    omega = 2.0e15
    val = mat.eps(omega)
    assert val.imag == 0.0
    assert val.real == pytest.approx(1 - WP**2 / omega**2)


def test_eps_zero_frequency_raises():
    with pytest.raises(DomainError):
        DrudeModel(WP, GD).eps(0.0)
    with pytest.raises(DomainError):
        DrudeModel(WP, GD).sigma(0.0)


def test_drude_passivity_over_band():
    # Im eps > 0 for every real omega in the band when gamma_d > 0
    mat = DrudeModel(WP, GD)
    band = np.linspace(0.1, 3.0, 211) * 2 * np.pi * 415.863e12
    assert np.all(mat.eps(band).imag > 0)


def test_sigma_constant_material():
    assert ConstantMaterial(2.25 + 0.1j).sigma(1e15) == 2.25 + 0.1j


def test_sigma_lossless_drude_is_unity():
    assert DrudeModel(WP, 0.0).sigma(2.0e15) == pytest.approx(1.0)


def _sigma_fd(mat, omega, step=1e9):
    # central finite difference of eps(w) w^2
    f = lambda w: mat.eps(w) * w**2
    return (f(omega + step) - f(omega - step)) / (2 * step) / (2 * omega)


def test_sigma_matches_finite_difference_at_complex_frequency():
    mat = DrudeModel(WP, GD)
    omega_t = 2 * np.pi * (415.863e12 - 1j * 37.176e12)
    fd = _sigma_fd(mat, omega_t)
    an = mat.sigma(omega_t)
    assert an == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_sigma_matches_finite_difference_across_band(seed):
    rng = np.random.default_rng(seed)
    mat = DrudeModel(WP, GD)
    for _ in range(25):
        omega = rng.uniform(0.3, 3.0) * 2.6e15 - 1j * rng.uniform(0.0, 0.3) * 2.6e15
        fd = _sigma_fd(mat, omega)
        assert mat.sigma(omega) == pytest.approx(fd, rel=1e-6)


def test_complex_frequency_fields():
    f = ComplexFrequency(omega=2.613e15, gamma=2.336e14)
    assert f.omega_tilde == pytest.approx(2.613e15 - 1j * 2.336e14)
    assert f.quality_factor == pytest.approx(2.613e15 / (2 * 2.336e14))
    rt = ComplexFrequency.from_omega_tilde(f.omega_tilde)
    assert rt == f
    with pytest.raises(DomainError):
        ComplexFrequency(-1.0, 1.0)
    with pytest.raises(DomainError):
        ComplexFrequency(1.0, 0.0)


def test_background():
    bg = Background(1.5)
    assert bg.eps_b == pytest.approx(2.25)
    assert bg.wavenumber(2 * np.pi * 415.863e12) == pytest.approx(
        1.5 * 2 * np.pi * 415.863e12 / 299792458.0
    )
    with pytest.raises(DomainError):
        Background(0.0)


def test_rod_inside_partition_and_contrast_support():
    # rod edges coincide with cell edges at h = 1 nm: exact staircase
    rod = Rod2D(width=10e-9, length=80e-9)
    grid = GridSpec(extent=((-100e-9, 100e-9), (-200e-9, 200e-9)), h=1e-9,
                    pml=PmlSpec(cells=10))
    xc, yc = grid.cell_centers()
    pts = np.stack(np.meshgrid(xc, yc, indexing="ij"), axis=-1)
    mask = rod.inside(pts)
    # every center is classified exactly once, and the area matches
    assert mask.dtype == bool
    assert mask.sum() == (10e-9 / 1e-9) * (80e-9 / 1e-9)
    # symmetric tie-break: a mirrored grid classifies mirrored cells equally
    assert np.array_equal(mask, mask[::-1, :])
    assert np.array_equal(mask, mask[:, ::-1])
    # the contrast weight is the plain staircase away from the boundary
    frac = interior_fraction(rod.inside, pts, 1e-9)
    assert np.all(frac[~mask] == 0)
    assert np.all(frac[mask] == 1)


def test_cylinder_and_halfspace_inside():
    cyl = Cylinder2D(radius=30e-9)
    assert cyl.inside(np.array([0.0, 0.0]))
    assert not cyl.inside(np.array([30e-9, 1e-12]))
    hs = HalfSpace(SurfacePlane(point=(0, 0), normal=(0, 1)))
    assert hs.inside(np.array([3e-9, -1e-9]))
    assert not hs.inside(np.array([3e-9, 1e-9]))


def test_nearest_tangent_plane_faces_and_corner():
    rod = Rod2D(width=10e-9, length=80e-9)
    # beside the long flat side: plane normal is +x
    pl = rod.nearest_tangent_plane(np.array([20e-9, 5e-9]))
    assert np.allclose(pl.normal, (1, 0))
    assert pl.point[0] == pytest.approx(5e-9)
    # above the top end: normal +y
    pl = rod.nearest_tangent_plane(np.array([1e-9, 60e-9]))
    assert np.allclose(pl.normal, (0, 1))
    assert pl.point[1] == pytest.approx(40e-9)
    # beyond the corner: diagonal normal
    pl = rod.nearest_tangent_plane(np.array([8e-9, 44e-9]))
    n = np.asarray(pl.normal)
    assert np.allclose(n, np.array([3e-9, 4e-9]) / 5e-9)
    with pytest.raises(DomainError):
        rod.nearest_tangent_plane(np.array([0.0, 0.0]))


def test_surface_plane_mirror():
    pl = SurfacePlane(point=(5e-9, 0), normal=(1, 0))
    m = pl.mirror(np.array([8e-9, 3e-9]))
    assert np.allclose(m, [2e-9, 3e-9])
    assert pl.signed_distance(np.array([8e-9, 3e-9])) == pytest.approx(3e-9)


def test_gridspec_validation_and_helpers():
    grid = GridSpec(extent=((-500e-9, 500e-9), (-500e-9, 500e-9)), h=5e-9,
                    pml=PmlSpec(cells=12))
    assert grid.n_cells == (200, 200)
    xc, yc = grid.cell_centers()
    assert xc[0] == pytest.approx(-497.5e-9)
    assert grid.pml_thickness == pytest.approx(60e-9)
    (x0, x1), _ = grid.interior_box()
    assert x0 == pytest.approx(-440e-9)
    with pytest.raises(DomainError):
        PmlSpec(cells=4)
    with pytest.raises(DomainError):
        GridSpec(extent=((0, 1e-7), (0, 1e-7)), h=-1e-9)


def test_dipole_normalizes_orientation():
    d = Dipole(position=(0, 50.4e-9), orientation=(0, 2.0))
    assert d.orientation == (0.0, 1.0)
    with pytest.raises(DomainError):
        Dipole(position=(0, 0), orientation=(0, 0))
