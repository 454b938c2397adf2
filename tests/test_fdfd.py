import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from qnmlab.background import green_b_2d, im_green_b_diag
from qnmlab.config import RunConfig
from qnmlab.core import (
    Background,
    ConstantMaterial,
    Cylinder2D,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
    Rod2D,
    interior_fraction,
)
from qnmlab import core
from qnmlab.solver import (
    PoleSearch,
    assemble,
    bilinear_sample,
    colocate,
    curl_cells,
    find_qnm,
)
from qnmlab.solver import fdfd
from qnmlab.solver.modes import _uniform_ey

BG = Background(1.5)
OMEGA = 2 * np.pi * 415.863e12


def _empty_grid(width, h, pml_cells=12):
    half = (round(width / h) // 2) * h  # snap to a whole, even cell count
    return GridSpec(extent=((-half, half), (-half, half)),
                    h=h, pml=PmlSpec(cells=pml_cells))


def _plane_wave_residual(h):
    grid = _empty_grid(0.9e-6, h)
    op = assemble(grid, None, None, BG, OMEGA)
    k = BG.wavenumber(OMEGA)
    # sample E = y-hat exp(ikx) on the E_y nodes
    x = np.zeros(op.n_e, dtype=complex)
    xi, _, _, yh = grid.node_axes()
    ey = np.exp(1j * k * xi[1:op.nx])[:, None] * np.ones(op.ny)[None, :]
    x[op.n_ex:] = ey.ravel()
    r = op.apply(x)
    # examine E_y rows away from PML and from the PEC-truncated wave edges
    pml = grid.pml.cells + 6
    mask = np.zeros(op.n_e, dtype=bool)
    sel = np.zeros((op.nx - 1, op.ny), dtype=bool)
    sel[pml:-pml, pml:-pml] = True
    mask[op.n_ex:] = sel.ravel()
    k0sq = (OMEGA / 299792458.0) ** 2
    return np.abs(r[mask]).max() / (k0sq * BG.eps_b)  # relative to k^2 |E|


def test_planewave_residual_second_order():
    r1 = _plane_wave_residual(8e-9)
    r2 = _plane_wave_residual(4e-9)
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)
    assert r2 < 2e-3


def test_zero_contrast_operator_matches_background_exactly():
    grid = _empty_grid(0.6e-6, 10e-9)
    rod = Rod2D(100e-9, 200e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op_a = assemble(grid, rod, ConstantMaterial(BG.eps_b), BG, OMEGA)
    op_b = assemble(grid, None, None, BG, OMEGA)
    d = (op_a.matrix - op_b.matrix)
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0


def test_operator_is_complex_symmetric():
    grid = _empty_grid(0.6e-6, 10e-9)
    rod = Rod2D(100e-9, 200e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, DrudeModel(1.26e16, 7e13), BG, OMEGA)
    d = (op.matrix - op.matrix.T).tocoo()
    scale = np.abs(op.matrix.data).max()
    asym = np.abs(d.data).max() / scale if d.nnz else 0.0
    assert asym < 1e-14  # symmetric to machine precision


def test_under_resolved_feature_warns():
    # the grid is judged once, by the pole search, not by each of its
    # assemblies: the paper rod's 10 nm width spans 2 cells at h = 5 nm
    grid = _empty_grid(0.68e-6, 5e-9, pml_cells=16)
    rod = Rod2D(width=10e-9, length=80e-9)
    search = PoleSearch(omega_guess=2 * np.pi * (358e12 - 25e12j))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_qnm(grid, rod, DrudeModel(1.26e16, 7e13), BG, search,
                 symmetry="xy")
    under = [w for w in caught if "fewer than 10 cells" in str(w.message)]
    assert [w.category for w in under] == [UserWarning]


def test_dipole_scattered_part_vanishes_without_contrast():
    # a material equal to the background holds no contrast: the right-hand
    # side (K - K_b) E_inc vanishes, and with it the scattered field
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    r_a = np.array([0.0, 150e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, ConstantMaterial(BG.eps_b), BG, OMEGA)
    b = op.scattered_rhs(lambda r: green_b_2d(r, r_a, OMEGA, BG)
                         @ np.array([0.0, 1.0]))
    assert len(op._dk) > 0
    assert not np.any(b)
    assert not np.any(op.solve(b))


def test_mirror_symmetry_reproduces_full_solve():
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    mat = DrudeModel(1.26e16, 7e13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op_full = assemble(grid, rod, mat, BG, OMEGA)
        op_q = assemble(grid, rod, mat, BG, OMEGA, symmetry="xy")
        op_hx = assemble(grid, rod, mat, BG, OMEGA, symmetry="x")
    # a uniform E_y incident field has the reduced parity
    xf = op_full.solve(op_full.scattered_rhs(_uniform_ey))
    exf, eyf = op_full.unpack(xf)
    for op in (op_q, op_hx):
        x = op.solve(op.scattered_rhs(_uniform_ey))
        ex, ey = op.unpack(x)
        assert ex.shape == exf.shape and ey.shape == eyf.shape
        scale = np.abs(eyf).max()
        assert np.abs(ey - eyf).max() < 1e-8 * scale
        assert np.abs(ex - exf).max() < 1e-8 * scale


# every mirror reduction with each of its parity classes: E_y even across
# each plane (the ids without "odd"), or odd across x = 0, y = 0 or both
PARITY_CLASSES = [
    pytest.param("", (1, 1), id=""),
    pytest.param("x", (1, 1), id="x"),
    pytest.param("y", (1, 1), id="y"),
    pytest.param("xy", (1, 1), id="xy"),
    pytest.param("x", (-1, 1), id="x-odd"),
    pytest.param("y", (1, -1), id="y-odd"),
    pytest.param("xy", (-1, 1), id="xy-odd-x"),
    pytest.param("xy", (1, -1), id="xy-odd-y"),
    pytest.param("xy", (-1, -1), id="xy-odd"),
]


def _sampling_rod_operator(symmetry, parity):
    grid = _empty_grid(0.6e-6, 5e-9, pml_cells=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return assemble(grid, Rod2D(10e-9, 80e-9), DrudeModel(1.26e16, 7e13),
                        BG, OMEGA, symmetry=symmetry, parity=parity)


def _unknowns(op, fx, fy):
    """The solution vector holding E_x = fx(x, y) and E_y = fy(x, y) at the
    operator's own nodes: the reduced domain starts at the mirror plane,
    and the nodes on the PEC wall, or of a component odd across the plane
    they sit on, are not unknowns."""
    xi, xh, yi, yh = op.grid.node_axes()
    nx, ny = op.grid.n_cells
    if op.mirror_x:
        xi, xh = xi[nx // 2:], xh[nx // 2:]
    if op.mirror_y:
        yi, yh = yi[ny // 2:], yh[ny // 2:]
    parts = []
    for f, xs, ys in ((fx, xh, yi[op._jx0:op.ny]),
                      (fy, xi[op._iy0:op.nx], yh)):
        x, y = np.meshgrid(xs, ys, indexing="ij")
        parts.append(np.broadcast_to(f(x, y), x.shape).ravel())
    return np.concatenate(parts).astype(complex)


# points a fraction of a cell off the mirror planes: their straddling nodes
# reach across x = 0 and y = 0 and fold back onto the reduced domain
FOLDING_POINTS = [(1.5e-9, 42.0e-9), (0.0, 1.0e-9), (-2.0e-9, -1.5e-9),
                  (60.3e-9, 0.0)]
ORIENTATIONS = [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0)]


@pytest.mark.parametrize("symmetry, parity", PARITY_CLASSES)
def test_sample_reproduces_a_bilinear_field(symmetry, parity):
    # a product of linear factors is bilinear, so the bilinear rule gives
    # it exactly; across a mirror plane E_y has the class's parity and E_x
    # the opposite one.  The same sample is the rule applied to unpack's
    # full arrays, to the last bit
    op = _sampling_rod_operator(symmetry, parity)
    u = 10e-9
    px, py = parity

    def factor(t, mirrored, odd, c, slope=1.0):
        # linear in t; across a mirror plane odd (t) or even (constant)
        if not mirrored:
            return c + slope * t / u
        return t / u if odd else 1.0

    def fx(x, y):
        return factor(x, op.mirror_x, px > 0, 0.7) \
            * factor(y, op.mirror_y, py > 0, -0.4)

    def fy(x, y):
        return factor(x, op.mirror_x, px < 0, 1.3) \
            * factor(y, op.mirror_y, py < 0, 0.8, -1.0)

    x = _unknowns(op, fx, fy)
    ex, ey = op.unpack(x)
    xi, xh, yi, yh = op.grid.node_axes()
    for p in FOLDING_POINTS:
        for n in ORIENTATIONS:
            got = op.sample(x, p, n)
            assert got == pytest.approx(n[0] * fx(*p) + n[1] * fy(*p),
                                        rel=1e-12, abs=1e-12)
            assert got == n[0] * bilinear_sample(xh, yi, ex, [p])[0] \
                + n[1] * bilinear_sample(xi, yh, ey, [p])[0]


@pytest.mark.parametrize("geometry", [Rod2D(10e-9, 80e-9), Cylinder2D(30e-9)],
                         ids=["rod", "cylinder"])
def test_parity_classes_sum_to_the_unreduced_solve(geometry):
    # dipoles of random orientation on both sides of both mirror planes,
    # round the paper-size rod and the 30 nm Drude cylinder: their fields
    # have no parity, and the solves of their shares in the classes of a
    # reduction sum to the unreduced solve on the same grid
    rng = np.random.default_rng(20)
    grid = _empty_grid(0.5e-6, 2.5e-9, pml_cells=16)
    mat = DrudeModel(1.26e16, 7e13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ops = {sym: [assemble(grid, geometry, mat, BG, OMEGA, sym, parity)
                     for parity in fdfd.parity_classes(sym)]
               for sym in ("", "x", "y", "xy")}
    assert [len(v) for v in ops.values()] == [1, 2, 2, 4]
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    for sx, sy in signs:
        while True:
            r_a = rng.uniform(1e-9, 120e-9, 2) * (sx, sy)
            if not geometry.in_closure(r_a):
                break
        th = rng.uniform(0.0, 2.0 * np.pi)
        n_a = np.array([np.cos(th), np.sin(th)])

        def incident(r):
            return green_b_2d(r, r_a, OMEGA, BG) @ n_a

        receivers = [r_a * (fx, fy) for fx, fy in signs]
        fields, samples = {}, {}
        for sym, classes in ops.items():
            parts = [(op, op.solve(op.scattered_rhs(incident)))
                     for op in classes]
            fields[sym] = [sum(op.unpack(x)[c] for op, x in parts)
                           for c in (0, 1)]
            samples[sym] = [sum(op.sample(x, r, n_a) for op, x in parts)
                            for r in receivers]
        ex, ey = fields[""]
        scale = max(np.abs(ex).max(), np.abs(ey).max())
        for sym in ("x", "y", "xy"):
            for got, want in zip(fields[sym], fields[""]):
                assert np.abs(got - want).max() < 1e-10 * scale, sym
            np.testing.assert_allclose(samples[sym], samples[""], rtol=1e-10,
                                       err_msg=sym)


def test_sampling_a_solution_allocates_only_its_stencil():
    # on the paper grid's mirror-reduced operator (352 380 unknowns) a dense
    # weight vector and its complex cast peak at 8.5 MB; the gather reads at
    # most 8 entries
    cfg = RunConfig.load(pathlib.Path(__file__).parents[1] / "configs"
                         / "paper-2d-rod.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(cfg.grid, cfg.geometry, cfg.material, cfg.bg,
                      2 * np.pi * 387e12, symmetry="xy")
    x = np.ones(op.n_e, dtype=complex)
    tracemalloc.start()
    try:
        op.sample(x, (0.3e-9, 50.4e-9), (0.6, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_symmetry_rejects_off_plane_source():
    grid = _empty_grid(0.8e-6, 8e-9)
    # an off-centre rod would be solved together with its mirror image
    off = Rod2D(40e-9, 160e-9, center=(40e-9, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sym in ("x", "xy"):
            with pytest.raises(DomainError, match="mirror plane"):
                assemble(grid, off, DrudeModel(1.26e16, 7e13), BG, OMEGA,
                         symmetry=sym)
        assemble(grid, off, DrudeModel(1.26e16, 7e13), BG, OMEGA,
                 symmetry="y")


@pytest.mark.parametrize("point", [
    (300e-9, 0.0),        # in the PML, which starts at 240 nm
    (405e-9, 0.0),        # past the grid's 400 nm edge
    (0.0, -250e-9),
])
def test_sampling_outside_the_interior_box_raises(point):
    # a sample returns neither a PML-damped value nor the 0 of a stencil
    # that lost its nodes
    grid = _empty_grid(0.8e-6, 10e-9, pml_cells=16)
    op = assemble(grid, None, None, BG, OMEGA)
    x = np.ones(op.n_e, dtype=complex)
    assert np.isfinite(op.sample(x, (240e-9, 0.0), (0.0, 1.0)))
    with pytest.raises(DomainError, match="dipole must lie outside the PML"):
        op.sample(x, point, (0.0, 1.0))


def test_pml_position_insensitivity_of_dipole_field():
    # enlarging the domain by 20% changes the rod's scattered mid-field by
    # well under 1%
    def run(width):
        grid = _empty_grid(width, 8e-9, pml_cells=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op = assemble(grid, Rod2D(40e-9, 160e-9),
                          DrudeModel(1.26e16, 7e13), BG, OMEGA)
        ex, ey = op.unpack(op.solve(op.scattered_rhs(_uniform_ey)))
        xc, yc = grid.cell_centers()
        from qnmlab.solver import bilinear_sample
        return bilinear_sample(xc, yc, colocate(ex, ey)[1], [[200e-9, 40e-9]])[0]

    a = run(0.896e-6)
    b = run(1.088e-6)
    assert abs(a - b) / abs(a) < 1e-3


def _reference_arrays(op):
    """The operator's K, M and B as the full-lattice build makes them:
    interior fractions on every node, B through COO triplets, and the dense
    K - K_b.  Returns (b, kdiag, mdiag, fractions, dk)."""
    grid, h, w = op.grid, op.h, op.omega
    (_, x1), (_, y1) = grid.extent
    nx, ny, iy0, jx0 = op.nx, op.ny, op._iy0, op._jx0
    nx_full, ny_full = grid.n_cells
    xi, xh, yi, yh = grid.node_axes()
    if op.mirror_x:
        xi, xh = xi[nx_full // 2:], xh[nx_full // 2:]
    if op.mirror_y:
        yi, yh = yi[ny_full // 2:], yh[ny_full // 2:]
    n_b = op.bg.n_b
    sx_i, sx_h = (fdfd._stretch_profile(xs, op.rx0, x1, not op.mirror_x, True,
                                        grid.pml, h, n_b, w) for xs in (xi, xh))
    sy_i, sy_h = (fdfd._stretch_profile(ys, op.ry0, y1, not op.mirror_y, True,
                                        grid.pml, h, n_b, w) for ys in (yi, yh))
    eps_b = op.bg.eps_b
    if op.geometry is None:
        eps_mnp = eps_b
        inside = lambda pts: np.zeros(pts.shape[:-1], dtype=bool)
    else:
        eps_mnp = op.material.eps(w)
        inside = op.geometry.inside
    fracs = []

    def eps_nodes(xs, ys):
        pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
        fracs.append(interior_fraction(inside, pts, h))
        return eps_b + (eps_mnp - eps_b) * fracs[-1]

    eps_x = eps_nodes(xh, yi[jx0:ny])
    eps_y = eps_nodes(xi[iy0:nx], yh)
    k0sq = (w / 299792458.0) ** 2
    mult_c = (2 if op.mirror_x else 1) * (2 if op.mirror_y else 1)
    # nodes on a mirror plane count once, their neighbours twice
    mult_ex = np.full(ny - jx0, mult_c, dtype=float)
    if jx0 == 0:
        mult_ex[0] = mult_c / 2
    kx = k0sq * eps_x * sx_h[:, None] * sy_i[None, jx0:ny] * mult_ex[None, :]
    mult_ey = np.full(nx - iy0, mult_c, dtype=float)
    if iy0 == 0:
        mult_ey[0] = mult_c / 2
    ky = k0sq * eps_y * sx_i[iy0:nx, None] * sy_h[None, :] * mult_ey[:, None]
    kdiag = np.concatenate([kx.ravel(), ky.ravel()])
    mdiag = mult_c * np.outer(sx_h, sy_h).ravel()
    d_eps = eps_mnp - eps_b
    dkx = (k0sq * (d_eps * fracs[0]) * sx_h[:, None] * sy_i[None, jx0:ny]
           * mult_ex[None, :])
    dky = (k0sq * (d_eps * fracs[1]) * sx_i[iy0:nx, None] * sy_h[None, :]
           * mult_ey[:, None])
    dk = np.concatenate([dkx.ravel(), dky.ravel()])

    rows, cols, vals = [], [], []
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cell = (ii * ny + jj).ravel()
    ii = ii.ravel(); jj = jj.ravel()
    inv_sxh = (1.0 / sx_h)[ii] / h
    inv_syh = (1.0 / sy_h)[jj] / h

    def add(mask, col_idx, val):
        rows.append(cell[mask]); cols.append(col_idx); vals.append(val[mask])

    m = (ii + 1) <= nx - 1
    add(m, op._idx_ey(ii[m] + 1, jj[m]), inv_sxh)
    m = ii >= iy0
    add(m, op._idx_ey(ii[m], jj[m]), -inv_sxh)
    m = (jj + 1) <= ny - 1
    add(m, op._idx_ex(ii[m], jj[m] + 1), -inv_syh)
    m = jj >= jx0
    add(m, op._idx_ex(ii[m], jj[m]), inv_syh)
    b = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(op.n_hz, op.n_e))
    return b, kdiag, mdiag, fracs, dk


@pytest.mark.parametrize("symmetry, parity", PARITY_CLASSES)
@pytest.mark.parametrize("geometry", [None, Rod2D(40e-9, 160e-9),
                                      Cylinder2D(95e-9)],
                         ids=["empty", "rod", "cylinder"])
@pytest.mark.parametrize("omega", [OMEGA, OMEGA * (1 - 0.08j)],
                         ids=["real", "complex"])
def test_assembly_is_bit_identical_to_the_full_lattice_build(
        symmetry, parity, geometry, omega):
    # h = 10 nm puts the rod's faces on node lines, so its face nodes take
    # the interior fraction 1/4
    grid = _empty_grid(0.6e-6, 10e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, geometry, DrudeModel(1.26e16, 7e13), BG, omega,
                      symmetry=symmetry, parity=parity)
    b, kdiag, mdiag, fracs, dk = _reference_arrays(op)
    if isinstance(geometry, Rod2D):
        assert any(np.any(f == 0.25) for f in fracs)
    if geometry is not None:
        assert any(np.any(f == 1.0) for f in fracs)
    for got, want in ((op._b.data, b.data), (op._b.indices, b.indices),
                      (op._b.indptr, b.indptr), (op._kdiag, kdiag),
                      (op._mdiag, mdiag)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the scattered-field source: K - K_b on the contrast nodes, 0 elsewhere
    # (equal values; the dense product leaves signed zeros off the
    # resonator), for a field of +-1 whose share in the class is 1
    px, py = parity

    def unit(pts):
        flip_x = op.mirror_x & (pts[:, 0] < 0)
        flip_y = op.mirror_y & (pts[:, 1] < 0)
        e_y = np.where(flip_x, px, 1) * np.where(flip_y, py, 1)
        e_x = np.where(flip_x, -px, 1) * np.where(flip_y, -py, 1)
        return np.stack([e_x, e_y], axis=-1).astype(float)

    assert np.array_equal(op.scattered_rhs(unit), dk)


def test_assembly_probes_only_the_nodes_near_the_resonator(monkeypatch):
    # the paper grid: 840 x 840 cells, 176 000 E nodes per component in the
    # mirror-reduced quadrant; a full-lattice probe would see them all
    h = 2.5e-9
    grid = GridSpec(extent=((-420 * h, 420 * h), (-420 * h, 420 * h)), h=h,
                    pml=PmlSpec(cells=24))
    counts = []

    def counting(inside, pts, h):
        counts.append(pts[..., 0].size)
        return interior_fraction(inside, pts, h)

    monkeypatch.setattr(core, "interior_fraction", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for symmetry in ("", "xy"):
            assemble(grid, Rod2D(10e-9, 80e-9), DrudeModel(1.26e16, 7e13),
                     BG, OMEGA, symmetry=symmetry)
    assert len(counts) == 4
    assert max(counts) < 5000
