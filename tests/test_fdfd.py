import numpy as np
import pytest
import warnings

from qnmlab.background import green_b_2d, im_green_b_diag
from qnmlab.core import (
    Background,
    ConstantMaterial,
    Dipole,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
    Rod2D,
)
from qnmlab.solver import (
    NearToFar,
    assemble,
    colocate,
    curl_cells,
    solve_dipole,
)

BG = Background(1.5)
OMEGA = 2 * np.pi * 415.863e12
LAM_B = 2 * np.pi / BG.wavenumber(OMEGA)  # ~480 nm in-medium


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
    grid = _empty_grid(0.6e-6, 10e-9)
    rod = Rod2D(width=50e-9, length=200e-9)  # 5 cells across
    with pytest.warns(UserWarning, match="fewer than 10 cells"):
        assemble(grid, rod, DrudeModel(1.26e16, 7e13), BG, OMEGA)


def test_dipole_solve_in_empty_domain_matches_analytic_background():
    # pins the discrete delta normalization and the PML quality at once
    h = LAM_B / 80
    grid = _empty_grid(2.6 * LAM_B, h, pml_cells=20)
    op = assemble(grid, None, None, BG, OMEGA)
    dip = Dipole(position=(0.0, 0.0), orientation=(0.0, 1.0))
    b = op.dipole_rhs(dip)
    ex, ey = op.unpack(op.solve(b))
    xc, yc = grid.cell_centers()
    exc, eyc = colocate(ex, ey)
    # compare on a ring of radius lambda/2 in all directions
    ths = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = 0.5 * LAM_B * np.stack([np.cos(ths), np.sin(ths)], axis=-1)
    from qnmlab.solver import bilinear_sample
    for p in pts:
        gy_num = bilinear_sample(xc, yc, eyc, p)[0]
        gx_num = bilinear_sample(xc, yc, exc, p)[0]
        g_an = green_b_2d(p, [0.0, 0.0], OMEGA, BG) @ np.array([0.0, 1.0])
        assert gy_num == pytest.approx(g_an[1], rel=4e-2)
        assert abs(gx_num - g_an[0]) < 4e-2 * abs(g_an[1])


def test_dipole_scattered_part_vanishes_without_contrast():
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, ConstantMaterial(BG.eps_b), BG, OMEGA)
    sol = solve_dipole(op, Dipole(position=(0, 150e-9), orientation=(0, 1)))
    assert abs(sol.self_scattered_green()) < 1e-10 * np.abs(sol.ey).max()
    assert np.abs(sol.ey_scat).max() < 1e-10 * np.abs(sol.ey).max()


def test_dipole_inside_resonator_rejected():
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, DrudeModel(1.26e16, 7e13), BG, OMEGA)
    with pytest.raises(DomainError):
        solve_dipole(op, Dipole(position=(0, 0), orientation=(0, 1)))


def test_discrete_reciprocity_between_two_solves():
    grid = _empty_grid(1.0e-6, 5e-9)
    rod = Rod2D(10e-9, 80e-9)
    mat = DrudeModel(1.26e16, 7e13)
    r_a = (35e-9, 20e-9)
    r_b = (120e-9, -30e-9)  # 100 nm-ish separation, both off-axis
    n = (0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, mat, BG, OMEGA)
    sol_a = solve_dipole(op, Dipole(position=r_a, orientation=n))
    sol_b = solve_dipole(op, Dipole(position=r_b, orientation=n))
    g_ab = sol_a.total_field_at([r_b])[0][1] \
        + (green_b_2d(r_b, r_a, OMEGA, BG) @ n)[1] * 0  # total field already
    g_ba = sol_b.total_field_at([r_a])[0][1]
    assert g_ab == pytest.approx(g_ba, rel=1e-2)


def test_mirror_symmetry_reproduces_full_solve():
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    mat = DrudeModel(1.26e16, 7e13)
    dip = Dipole(position=(0.0, 0.0), orientation=(0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op_full = assemble(grid, rod, mat, BG, OMEGA)
        op_q = assemble(grid, rod, mat, BG, OMEGA, symmetry="xy")
        op_hx = assemble(grid, rod, mat, BG, OMEGA, symmetry="x")
    xf = op_full.solve(op_full.dipole_rhs(dip))
    exf, eyf = op_full.unpack(xf)
    for op in (op_q, op_hx):
        x = op.solve(op.dipole_rhs(dip))
        ex, ey = op.unpack(x)
        assert ex.shape == exf.shape and ey.shape == eyf.shape
        scale = np.abs(eyf).max()
        assert np.abs(ey - eyf).max() < 1e-8 * scale
        assert np.abs(ex - exf).max() < 1e-8 * scale


def test_symmetry_rejects_off_plane_source():
    grid = _empty_grid(0.8e-6, 8e-9)
    rod = Rod2D(40e-9, 160e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, DrudeModel(1.26e16, 7e13), BG, OMEGA,
                      symmetry="x")
    with pytest.raises(DomainError):
        op.dipole_rhs(Dipole(position=(40e-9, 0), orientation=(0, 1)))
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


def test_near_to_far_matches_direct_field():
    # scattered field propagated off a contour agrees with the direct solve
    grid = _empty_grid(1.2e-6, 6e-9)
    rod = Rod2D(10e-9, 80e-9)
    mat = DrudeModel(1.26e16, 7e13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = assemble(grid, rod, mat, BG, OMEGA)
    sol = solve_dipole(op, Dipole(position=(15e-9, 0), orientation=(0, 1)))
    ntf = NearToFar((sol.ex_scat, sol.ey_scat), grid, BG, OMEGA.real
                    if np.iscomplexobj(OMEGA) else OMEGA,
                    rect=((-150e-9, 150e-9), (-150e-9, 150e-9)))
    pts = np.array([[430e-9, 120e-9], [-380e-9, -260e-9], [0.0, 450e-9]])
    e_direct = sol.scattered_field_at(pts)
    e_ntf = ntf.scattered_field_at(pts)
    scale = np.abs(e_direct).max()
    assert np.abs(e_ntf - e_direct).max() < 2e-2 * scale


def test_pml_position_insensitivity_of_dipole_field():
    # enlarging the domain by 20% changes the mid-field by well under 1%
    def run(width):
        grid = _empty_grid(width, 8e-9, pml_cells=16)
        op = assemble(grid, None, None, BG, OMEGA)
        dip = Dipole(position=(0.0, 0.0), orientation=(0.0, 1.0))
        ex, ey = op.unpack(op.solve(op.dipole_rhs(dip)))
        xc, yc = grid.cell_centers()
        from qnmlab.solver import bilinear_sample
        return bilinear_sample(xc, yc, colocate(ex, ey)[1], [[200e-9, 40e-9]])[0]

    a = run(0.896e-6)
    b = run(1.088e-6)
    assert abs(a - b) / abs(a) < 1e-3
