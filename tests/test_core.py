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
    PmlSpec,
    Rod2D,
    SurfacePlane,
    bilinear_sample,
    colocate,
    contrast_block,
    interior_fraction,
    lattice_coords,
    require_exterior,
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


def test_lattice_coords_on_symmetric_grid_are_unchanged():
    # the paper grid: (i + offset - N/2) h, bit for bit
    h, n = 2.5e-9, 840
    for offset, count in ((0.0, n + 1), (0.5, n)):
        want = (np.arange(count) + offset - n / 2) * h
        assert np.array_equal(lattice_coords(-1050e-9, count, h, offset),
                              want)


def test_face_nodes_classify_alike_on_asymmetric_extents():
    # a tight, off-centre extent shares the symmetric grid's lattice, so
    # each node near the rod gets the same coordinates and the same
    # interior fraction; plain lo + (i + offset) h arithmetic puts face
    # nodes off the faces on both extents
    rod = Rod2D(width=10e-9, length=80e-9)
    h, pml = 2.5e-9, PmlSpec(cells=24)
    sym = GridSpec(extent=((-1050e-9, 1050e-9), (-1050e-9, 1050e-9)), h=h,
                   pml=pml)

    def blocks(grid):
        xi, xh, yi, yh = grid.node_axes()
        return [contrast_block(xs, ys, rod, h)[1:]
                for xs, ys in ((xh, yi), (xi, yh))]

    for extent in (((-245e-9, 500e-9), (-190e-9, 600e-9)),
                   ((-165e-9, 170e-9), (-700e-9, 200e-9))):
        tight = GridSpec(extent=extent, h=h, pml=pml)
        for (want, want_frac), (got, got_frac) in zip(blocks(sym),
                                                      blocks(tight)):
            assert np.array_equal(got, want)
            assert np.array_equal(got_frac, want_frac)


def test_cylinder_and_halfspace_inside():
    cyl = Cylinder2D(radius=30e-9)
    assert cyl.inside(np.array([0.0, 0.0]))
    assert not cyl.inside(np.array([30e-9, 1e-12]))
    # the half-space behind a surface plane has negative signed distance
    plane = SurfacePlane(point=(0, 0), normal=(0, 1))
    assert plane.signed_distance(np.array([3e-9, -1e-9])) < 0
    assert plane.signed_distance(np.array([3e-9, 1e-9])) > 0


@pytest.mark.parametrize("geometry, inner, surface, outer", [
    (Rod2D(width=10e-9, length=80e-9, center=(1e-9, 0.0)),
     (3e-9, 39e-9), [(6e-9, 0.0), (1e-9, -40e-9), (-4e-9, 40e-9)],
     (6e-9, 40.1e-9)),
    (Cylinder2D(radius=30e-9), (0.0, 29e-9), [(30e-9, 0.0), (0.0, -30e-9)],
     (30e-9, 1e-12)),
])
def test_closure_adds_the_surface_to_the_strict_interior(geometry, inner,
                                                         surface, outer):
    pts = np.array([inner, *surface, outer])
    n = len(surface)
    assert geometry.inside(pts).tolist() == [True] + [False] * (n + 1)
    assert geometry.in_closure(pts).tolist() == [True] * (n + 1) + [False]
    require_exterior(geometry, [outer, outer], "probe")
    with pytest.raises(DomainError, match="probe lies inside the resonator"):
        require_exterior(geometry, [outer, surface[0], inner], "probe")
    for r in surface:
        with pytest.raises(DomainError,
                           match="probe lies on the resonator surface"):
            require_exterior(geometry, [outer, r], "probe")


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
    # the paper grid (as configs/paper-2d-rod.json builds it) and this one:
    # node and cell-centre axes are exactly antisymmetric, so a node on a
    # boundary classifies like its mirror image, and the mirror-reduced
    # operator's lattice (the tail halves) is exactly (i + offset) h
    paper = round(1050e-9 / 2.5e-9) * 2.5e-9
    for g in (GridSpec(extent=((-paper, paper), (-paper, paper)), h=2.5e-9,
                       pml=PmlSpec(cells=24)), grid):
        xi, xh, yi, yh = g.node_axes()
        nx, ny = g.n_cells
        assert (len(xi), len(xh), len(yi), len(yh)) == (nx + 1, nx, ny + 1, ny)
        for axis in (xi, xh, yi, yh):
            assert np.array_equal(axis, -axis[::-1])
        for axis, off in ((xi, 0.0), (xh, 0.5)):
            tail = axis[nx // 2:]
            assert np.array_equal(tail, (np.arange(len(tail)) + off) * g.h)
        assert all(np.array_equal(a, b) for a, b in
                   zip(g.cell_centers(), (xh, yh)))


def test_sample_nodes_equals_sampling_the_colocated_arrays():
    # gathering the four straddling cells per point gives the same bytes as
    # colocating the whole node arrays and sampling them bilinearly
    grid = GridSpec(extent=((-60e-9, 80e-9), (-50e-9, 50e-9)), h=2e-9,
                    pml=PmlSpec(cells=8))
    nx, ny = grid.n_cells
    rng = np.random.default_rng(7)
    ex = rng.standard_normal((nx, ny + 1)) + 1j * rng.standard_normal((nx, ny + 1))
    ey = rng.standard_normal((nx + 1, ny)) + 1j * rng.standard_normal((nx + 1, ny))
    xc, yc = grid.cell_centers()
    random = rng.uniform((-60e-9, -50e-9), (80e-9, 50e-9), (50, 2))
    # beyond every edge and corner: the stencil is clipped to the grid
    clipped = np.array([(-70e-9, 0.0), (90e-9, 1e-9), (0.0, -55e-9),
                        (3e-9, 60e-9), (-61e-9, -51e-9), (80e-9, 50e-9)])
    centres = np.stack(np.meshgrid(xc[::7], yc[::5], indexing="ij"),
                       axis=-1).reshape(-1, 2)
    for pts in (random, clipped, centres, centres[:1]):
        got = grid.sample_nodes(ex, ey, pts)
        assert got.shape == (len(pts), 2)
        for c, cells in enumerate(colocate(ex, ey)):
            want = bilinear_sample(xc, yc, cells, pts)
            assert got[:, c].tobytes() == want.tobytes()


def test_node_blocks_cut_the_node_lattice():
    # contrast_block's block is the nodes within the resonator's bounding
    # box widened by h, and no node outside it holds contrast
    h = 2e-9
    grid = GridSpec(extent=((-60e-9, 80e-9), (-50e-9, 50e-9)), h=h,
                    pml=PmlSpec(cells=8))
    xi, xh, yi, yh = grid.node_axes()
    rod = Rod2D(width=10e-9, length=36e-9, center=(2e-9, 0.0))
    box = ((-5e-9, 9e-9), (-20e-9, 20e-9))
    for xs, ys in ((xh, yi), (xi, yh)):
        (ix, iy), pts, frac = contrast_block(xs, ys, rod, h)
        full = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
        assert np.array_equal(pts, full[ix, iy])
        within = ((full[..., 0] >= box[0][0]) & (full[..., 0] <= box[0][1])
                  & (full[..., 1] >= box[1][0]) & (full[..., 1] <= box[1][1]))
        assert within.sum() == pts.shape[0] * pts.shape[1] > 0
        everywhere = interior_fraction(rod.inside, full, h)
        assert np.array_equal(frac, everywhere[ix, iy])
        assert everywhere.sum() == frac.sum() > 0
    # a box edge on a node line includes that line
    thin = Rod2D(width=10e-9, length=4e-9, center=(2e-9, 0.0))
    _, pts, _ = contrast_block(xh, yi, thin, h)
    assert np.array_equal(pts[0, :, 1], [-4e-9, -2e-9, 0.0, 2e-9, 4e-9])


def test_dipole_normalizes_orientation():
    d = Dipole(position=(0, 50.4e-9), orientation=(0, 2.0))
    assert d.orientation == (0.0, 1.0)
    with pytest.raises(DomainError):
        Dipole(position=(0, 0), orientation=(0, 0))
