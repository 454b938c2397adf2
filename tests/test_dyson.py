import numpy as np
import pytest

from qnmlab import dyson
from qnmlab.background import green_b_2d, im_green_b_diag
from qnmlab.core import ConstantMaterial, DomainError, interior_fraction
from qnmlab.dyson import RegularizedField, lorentzian_prefactor
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


def _node_loop_sources(reg):
    """Source nodes picked from the full node lattices, E_x then E_y."""
    grid, geometry = reg.mode.grid, reg.geometry
    xi, xh, yi, yh = grid.node_axes()
    pts, amp, comp = [], [], []
    for c, (xs, ys, field) in enumerate(((xh, yi, reg.mode.ex),
                                         (xi, yh, reg.mode.ey))):
        mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
        frac = interior_fraction(geometry.inside, mesh, grid.h)
        sel = frac > 0
        pts.append(mesh[sel])
        amp.append(field[sel] * frac[sel])
        comp.append(np.full(sel.sum(), c))
    return np.concatenate(pts), np.concatenate(amp), np.concatenate(comp)


def _node_loop_eval(reg, r, omega):
    """F(r, w) with one kernel call per near node, added in node order."""
    h = reg.mode.grid.h
    area = h * h
    d = np.sqrt(np.sum((reg._pts - r) ** 2, axis=-1))
    near = d < reg.near_factor * h
    total = np.zeros(2, dtype=complex)
    far_pts = reg._pts[~near]
    if len(far_pts):
        g = green_b_2d(r[None, :], far_pts, omega, reg.bg)
        cols = g[np.arange(len(far_pts)), :, reg._comp[~near]]
        total += (cols * reg._amp[~near, None]).sum(axis=0) * area
    n_subs = []
    for p, amp, comp in zip(reg._pts[near], reg._amp[near], reg._comp[near]):
        dist = np.hypot(*(p - r))
        raw = int(np.ceil(3.0 * h / max(dist, 0.25 * h)))
        n_sub = int(np.clip(raw, reg.base_subdiv, reg.max_subdiv))
        n_subs.append((raw, n_sub))
        off = (np.arange(n_sub) + 0.5) / n_sub - 0.5
        sx, sy = np.meshgrid(off * h, off * h, indexing="ij")
        sub = p + np.stack([sx.ravel(), sy.ravel()], axis=-1)
        g = green_b_2d(r[None, :], sub, omega, reg.bg)
        total += g[:, :, comp].mean(axis=0) * amp * area
    delta_eps = reg.material.eps(omega) - reg.bg.eps_b
    return delta_eps * total, n_subs


def test_batched_build_and_quadrature_match_the_node_loop(rod_pipeline):
    # the block-gathered sources and the one-call-per-subdivision near-node
    # quadrature give the same bytes as the full-lattice node-by-node loop
    p = rod_pipeline
    omega = _omega_c(p)
    points = [np.array(r) for s in (2.6e-9, 3.3e-9, 5e-9, 7.5e-9, 10e-9,
                                    20e-9, 50e-9)
              for r in ((5e-9 + s, 0.0), (5e-9 + s, 37.2e-9),
                        (-5e-9 - s, -12.9e-9), (1.1e-9, 40e-9 + s))]
    clipped, used = set(), set()
    # from 2.6 nm out the raw subdivision ceil(3 h / d) runs 3, 2, 1: the
    # default range (2, 16) clips the 1s up, the range (1, 2) the 3s down
    for base_subdiv, max_subdiv in ((2, 16), (1, 2)):
        reg = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"],
                               max_subdiv=max_subdiv, base_subdiv=base_subdiv)
        for got, want in zip((reg._pts, reg._amp, reg._comp),
                             _node_loop_sources(reg)):
            assert got.tobytes() == want.tobytes()
        for r in points:
            want, n_subs = _node_loop_eval(reg, r, omega)
            assert reg._eval_one(r, omega).tobytes() == want.tobytes()
            for raw, n_sub in n_subs:
                if raw < reg.base_subdiv:
                    clipped.add("base")
                if raw > reg.max_subdiv:
                    clipped.add("max")
                used.add(n_sub)
    assert clipped == {"base", "max"}
    assert used == {1, 2, 3}


def test_cache_reuse_is_deterministic(reg, rod_pipeline):
    omega = _omega_c(rod_pipeline)
    a = reg.eval([(0, 60e-9)], omega)
    b = reg.eval([(0, 60e-9)], omega)
    assert np.array_equal(a, b)


def test_out_after_far_at_one_point_makes_one_kernel_call(rod_pipeline,
                                                         monkeypatch):
    # far reads [r, r]: one evaluation; out then reads the same points
    # from the memo of that call
    p = rod_pipeline
    reg = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"])
    calls = []

    def spy(*args):
        calls.append(1)
        return green_b_2d(*args)
    monkeypatch.setattr(dyson, "green_b_2d", spy)
    r, n, omega = (25e-9, 10e-9), (0.0, 1.0), _omega_c(p)
    se_enhancement(far_green_model(reg), r, n, omega)
    se_enhancement(out_green_model(reg), r, n, omega)
    assert len(calls) == 1


def test_memo_holds_only_the_latest_call(rod_pipeline):
    p = rod_pipeline
    reg = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"])
    omega = _omega_c(p)
    points = [(10e-9 + 3e-9 * i, 50e-9) for i in range(100)]
    for i in range(0, 100, 10):
        reg.eval(points[i:i + 10], omega)
    assert len(reg._cache) <= 10
    # a point repeated inside one call is evaluated once
    evals = []
    one = reg._eval_one
    reg._eval_one = lambda r, w: evals.append(tuple(r)) or one(r, w)
    reg.eval([points[0], points[1], points[0]], omega)
    assert evals == [points[0], points[1]]
    assert len(reg._cache) == 2


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


@pytest.mark.parametrize("standoff", [2.6e-9, 500e-9])
def test_an_evaluation_makes_one_kernel_call(rod_pipeline, monkeypatch,
                                             standoff):
    # a miss is one kernel call over the far nodes and every near node's
    # sub-points, whatever the mix of subdivisions; a cache hit makes none
    p = rod_pipeline
    omega = _omega_c(p)
    reg = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"],
                           base_subdiv=1)
    r = np.array([5e-9 + standoff, 3.7e-9])
    h = reg.mode.grid.h
    d = np.hypot(*(reg._pts - r).T)
    near = d < reg.near_factor * h
    n_sub = np.clip(np.ceil(3.0 * h / np.maximum(d[near], 0.25 * h)),
                    reg.base_subdiv, reg.max_subdiv).astype(int)
    assert len(set(n_sub)) == (3 if standoff < 10e-9 else 0)
    calls = []

    def spy(r1, r2, omega, bg):
        calls.append(len(r2))
        return green_b_2d(r1, r2, omega, bg)
    monkeypatch.setattr(dyson, "green_b_2d", spy)
    first = reg.eval([r], omega)
    assert calls == [np.sum(~near) + np.sum(n_sub**2)]
    again = reg.eval([r], omega)
    assert len(calls) == 1
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("r", [(5e-9, 0.0), (5e-9, 1.25e-9), (0.0, 40e-9),
                               (5e-9, 40e-9), (-5e-9, -40e-9)])
def test_surface_points_are_refused(reg, rod_pipeline, r):
    with pytest.raises(DomainError, match="on the resonator surface"):
        reg.eval([(100e-9, 0.0), r], _omega_c(rod_pipeline))
