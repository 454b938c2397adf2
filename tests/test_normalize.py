import numpy as np
import pytest
import warnings

from qnmlab.core import (
    Background,
    ComplexFrequency,
    ConstantMaterial,
    ConvergenceError,
    Cylinder2D,
    Dipole,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
    Rod2D,
)
from qnmlab.normalize import (
    NormBreakdown,
    caustic_radius,
    inner_product,
    mode_volume,
    norm_scan,
    normalize_mode,
    sauvan_norm,
)
from qnmlab.solver import ModeField, PoleSearch, find_qnm

BG = Background(1.5)


@pytest.fixture(scope="module")
def cyl_mode():
    # octupole-parity mode of a dispersionless cylinder: high Q, smooth
    # norm convergence, matches the analytic series pole to 4e-4
    mat = ConstantMaterial(16.0)
    cyl = Cylinder2D(radius=150e-9)
    half = 420 * 2.5e-9
    grid = GridSpec(extent=((-half, half), (-half, half)), h=2.5e-9,
                    pml=PmlSpec(cells=24))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mode = find_qnm(grid, cyl, mat, BG,
                        PoleSearch(omega_guess=2.9619e15 - 0.0814e15j),
                        symmetry="xy",
                        source=Dipole(position=(0, 75e-9), orientation=(0, 1)))
    return mode, mat


def _synthetic_mode():
    # compactly supported field inside a uniform box; no physics, pure
    # quadrature bookkeeping
    grid = GridSpec(extent=((-500e-9, 500e-9), (-500e-9, 500e-9)), h=10e-9,
                    pml=PmlSpec(cells=10))
    nx, ny = grid.n_cells
    ex = np.zeros((nx, ny + 1), dtype=complex)
    ey = np.zeros((nx + 1, ny), dtype=complex)
    ey[40:61, 40:60] = 1.5 - 0.5j  # support well inside any contour
    geom = Rod2D(width=100e-9, length=100e-9)
    return ModeField(grid=grid, geometry=geom, bg=BG, ex=ex, ey=ey,
                     frequency=ComplexFrequency(2.0e15, 1.0e14))


def test_compact_field_has_no_surface_term():
    mode = _synthetic_mode()
    mat = ConstantMaterial(4.0)
    b = inner_product(mode, mat, BG, 250e-9)
    assert b.surface_term == 0
    assert b.total == b.volume_term
    assert b.total != 0
    # enlarging the domain cannot change a compactly supported integral
    b2 = inner_product(mode, mat, BG, 300e-9)
    assert b2.total == pytest.approx(b.total, rel=1e-12)


def test_domain_reaching_pml_rejected():
    mode = _synthetic_mode()
    with pytest.raises(DomainError):
        inner_product(mode, ConstantMaterial(4.0), BG, 450e-9)


def test_norm_scan_converges_and_normalizes(cyl_mode):
    mode, mat = cyl_mode
    widths = np.arange(100e-9, 750e-9, 100e-9)
    scan = norm_scan(mode, mat, BG, widths)
    assert caustic_radius(scan, rtol=0.01) <= 500e-9
    nm = normalize_mode(mode, scan)
    assert nm.norm_state == "normalized"
    # recomputing at the clearance used for scaling returns exactly one
    again = inner_product(nm, mat, BG, widths[-1])
    assert again.total == pytest.approx(1.0, rel=1e-10)
    # at neighbouring clearances it stays within the convergence tolerance
    near = inner_product(nm, mat, BG, widths[-2])
    assert abs(near.total - 1.0) < 1e-2


def test_normalize_requires_converged_scan(cyl_mode):
    mode, mat = cyl_mode
    wobbly = [
        NormBreakdown(1e-7, 1.0 + 0j, 0j),
        NormBreakdown(2e-7, 1.4 + 0j, 0j),
    ]
    with pytest.raises(ConvergenceError):
        normalize_mode(mode, wobbly)
    with pytest.raises(ConvergenceError):
        normalize_mode(mode, wobbly[:1])
    with pytest.raises(ConvergenceError):
        normalize_mode(mode, inner_product(mode, mat, BG, 300e-9))


def test_normalization_idempotent_and_gauge_invariant(cyl_mode):
    mode, mat = cyl_mode
    widths = [500e-9, 600e-9, 700e-9]
    nm1 = normalize_mode(mode, norm_scan(mode, mat, BG, widths))
    # normalizing again changes nothing (norm is already 1)
    nm2 = normalize_mode(nm1, norm_scan(nm1, mat, BG, widths))
    assert np.abs(nm2.ey - nm1.ey).max() < 1e-12 * np.abs(nm1.ey).max()
    # an arbitrary complex rescaling of the raw mode drops out up to +-1
    rescaled = mode.scaled(0.37 - 1.1j)
    nm3 = normalize_mode(rescaled, norm_scan(rescaled, mat, BG, widths))
    sign = np.sign((nm3.ey[60, 60] / nm1.ey[60, 60]).real)
    assert np.abs(sign * nm3.ey - nm1.ey).max() < 1e-9 * np.abs(nm1.ey).max()
    # squared-field observables are strictly identical
    v1 = mode_volume(nm1, BG)
    v3 = mode_volume(nm3, BG)
    assert v3.v_eff == pytest.approx(v1.v_eff, rel=1e-9)


def test_mode_volume_properties(cyl_mode):
    mode, mat = cyl_mode
    widths = [500e-9, 600e-9, 700e-9]
    nm = normalize_mode(mode, norm_scan(mode, mat, BG, widths))
    mv = mode_volume(nm, BG)
    assert mv.v_eff > 0
    # reference point sits outside the cylinder
    assert np.hypot(*mv.r0) >= 150e-9
    # v_q is scale-invariant in the mode amplitude by construction
    half = nm.scaled(0.5)
    object.__setattr__(half, "norm_value", 0.25 * nm.norm_value)
    vq_direct = 1.0 / (BG.eps_b * (nm.value_at([mv.r0])[0] ** 2).sum())
    assert mv.v_q == pytest.approx(vq_direct, rel=1e-6)
    with pytest.raises(DomainError):
        mode_volume(mode, BG)  # raw mode rejected


def test_real_field_mode_volume_is_real():
    mode = _synthetic_mode()  # purely real would be ey = 1.0
    grid = mode.grid
    nx, ny = grid.n_cells
    ey = np.zeros((nx + 1, ny), dtype=complex)
    ey[40:61, 40:60] = 2.0
    real_mode = ModeField(grid=grid, geometry=mode.geometry, bg=BG,
                          ex=mode.ex * 0, ey=ey,
                          frequency=mode.frequency,
                          norm_state="normalized", norm_value=1.0 + 0j)
    mv = mode_volume(real_mode, BG, r0=(0.0, 80e-9))
    assert mv.v_q.imag == 0
    assert mv.v_eff == pytest.approx(mv.v_q.real)
    with pytest.raises(DomainError):
        mode_volume(real_mode, BG, r0=(400e-9, 400e-9))  # field zero there


def test_sauvan_equivalence_dispersionless(cyl_mode):
    # reciprocity-form norm equals volume+surface on converged domains
    mode, mat = cyl_mode
    for w in (450e-9, 550e-9):
        sv = sauvan_norm(mode, mat, BG, w)
        ip = inner_product(mode, mat, BG, w).total
        assert abs(sv - ip) / abs(ip) < 1e-2


def test_unconjugated_products_are_essential(cyl_mode):
    # using |f|^2 instead of f.f must give a very different answer
    mode, mat = cyl_mode
    b = inner_product(mode, mat, BG, 500e-9)
    ex, ey = mode.ex, mode.ey
    ff_conj = ex[:, :-1] * np.conj(ex[:, 1:]) + ey[:-1, :] * np.conj(ey[1:, :])
    xc, yc = mode.grid.cell_centers()
    pts = np.stack(np.meshgrid(xc, yc, indexing="ij"), axis=-1)
    sigma = np.where(mode.geometry.inside(pts),
                     mat.sigma(mode.frequency.omega_tilde),
                     BG.eps_b)
    rr = np.hypot(pts[..., 0], pts[..., 1])
    vol_conj = np.sum(sigma[rr < 650e-9] * ff_conj[rr < 650e-9]) \
        * mode.grid.h ** 2
    assert abs(vol_conj - b.volume_term) > 0.02 * abs(b.volume_term)


def test_drude_rod_norm_machinery_coarse():
    # dispersive material goes through the same pipeline (coarse, fast)
    rod = Rod2D(10e-9, 80e-9)
    mat = DrudeModel(1.26e16, 7e13)
    half = 210 * 5e-9
    grid = GridSpec(extent=((-half, half), (-half, half)), h=5e-9,
                    pml=PmlSpec(cells=16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mode = find_qnm(grid, rod, mat, BG,
                        PoleSearch(omega_guess=2 * np.pi * (358e12 - 25e12j)),
                        symmetry="xy")
    scan = norm_scan(mode, mat, BG, [500e-9, 600e-9, 700e-9, 800e-9])
    nm = normalize_mode(mode, scan, rtol=0.02)
    assert nm.norm_state == "normalized"
    mv = mode_volume(nm, BG)
    assert mv.v_eff > 0
    # hot spot sits at the rod ends
    assert abs(mv.r0[1]) > 38e-9 and abs(mv.r0[0]) < 10e-9
