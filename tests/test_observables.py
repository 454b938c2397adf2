import numpy as np
import pytest
from scipy.constants import c as C0

from qnmlab.core import (
    Background,
    ComplexFrequency,
    Cylinder2D,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
)
from qnmlab.dyson import RegularizedField, lorentzian_prefactor
from qnmlab.normalize import mode_volume
from qnmlab.observables import (
    GreenModel,
    born_green_model,
    eta_factor,
    far_green_model,
    mode_green_model,
    out_green_model,
    purcell_factor,
    se_enhancement,
    se_from_scattered,
)
from qnmlab.solver.modes import ModeField


def test_purcell_factor_basics():
    lam = 900e-9
    f1 = purcell_factor(10.0, 1e-14, lam, 1.5)
    assert purcell_factor(20.0, 1e-14, lam, 1.5) == pytest.approx(2 * f1)
    # algebraic identity point: V_eff chosen so F_P = 1
    v = 2 / np.pi**2 * (lam / 1.5) ** 2 * 10.0
    assert purcell_factor(10.0, v, lam, 1.5) == pytest.approx(1.0)
    # the same value in resonance-frequency form, 8 Q c^2 / (eps_b w_c^2 V)
    w_c = 2 * np.pi * C0 / lam
    assert f1 == pytest.approx(8 * 10.0 * C0**2 / (1.5**2 * w_c**2 * 1e-14),
                               rel=1e-12)
    with pytest.raises(DomainError):
        purcell_factor(-1.0, 1e-14, lam, 1.5)
    with pytest.raises(DomainError):
        purcell_factor(10.0, 0.0, lam, 1.5)


def _closed_form(field, n_a, omega, v_eff, freq, bg):
    """F_P eta + 1 for a field value at the emitter."""
    f_p = purcell_factor(freq.quality_factor, v_eff,
                         2 * np.pi * C0 / freq.omega, bg.n_b)
    return f_p * eta_factor(field, n_a, omega, v_eff, freq.omega, freq.gamma,
                            bg.eps_b) + 1.0


@pytest.mark.parametrize("seed", range(8))
def test_purcell_eta_decomposition_is_algebraic_identity(seed):
    # F_P eta + 1 reproduces the single-mode rate to rounding
    rng = np.random.default_rng(seed)
    bg = Background(rng.uniform(1.0, 2.0))
    omega_c = rng.uniform(1.0, 4.0) * 1e15
    freq = ComplexFrequency(omega_c, omega_c / rng.uniform(5.0, 40.0))
    omega = omega_c * rng.uniform(0.7, 1.3)
    v_eff = 10 ** rng.uniform(-16, -12)
    field = rng.normal(size=2) + 1j * rng.normal(size=2)
    n_a = rng.normal(size=2)
    n_a /= np.linalg.norm(n_a)

    direct = se_from_scattered(
        lorentzian_prefactor(freq, omega) * (n_a @ field) ** 2, omega, bg)
    assert _closed_form(field, n_a, omega, v_eff, freq, bg) == pytest.approx(
        direct, rel=1e-12, abs=1e-12)


def test_eta_orthogonal_orientation_vanishes():
    field = np.array([0.0, 3.0 + 1.0j])
    eta = eta_factor(field, (1, 0), 2e15, 1e-14, 2e15, 1e14, 2.25)
    assert eta == 0.0


def test_eta_far_detuning_rolls_off():
    field = np.array([0.0, 2.0 + 0.5j])
    args = dict(n_a=(0, 1), v_eff=1e-14, omega_c=2e15, gamma_c=1e14,
                eps_b=2.25)
    on = abs(eta_factor(field, omega=2e15, **args))
    off = abs(eta_factor(field, omega=6e15, **args))
    assert off < 0.05 * on


def test_eta_at_hotspot_aligned_is_unity():
    # with 1/V_eff = eps_b Re f^2 at the hot spot, eta(w_c) = 1/(1+(g/w)^2)
    eps_b = 2.25
    omega_c, gamma_c = 2.43e15, 2.173e14  # Q = 5.59
    f0 = 1.3e8  # arbitrary real aligned field value
    v_eff = 1.0 / (eps_b * f0**2)
    field = np.array([0.0, f0])
    eta = eta_factor(field, (0, 1), omega_c, v_eff, omega_c, gamma_c, eps_b)
    expected = 1.0 / (1.0 + (gamma_c / omega_c) ** 2)
    assert eta == pytest.approx(expected, rel=1e-12)
    assert abs(eta - 1.0) < 0.2


def test_zero_scattering_gives_unity_rate():
    bg = Background(1.5)
    model = GreenModel("none", lambda r1, r2, w: np.zeros((2, 2)), bg)
    assert se_enhancement(model, (0, 1e-7), (0, 1), 2.6e15) == 1.0


@pytest.fixture(scope="module")
def models(rod_pipeline):
    p = rod_pipeline
    reg = RegularizedField(p["mode"], p["rod"], p["material"], p["bg"])
    return {
        "f": mode_green_model(p["mode"], p["bg"]),
        "far": far_green_model(reg),
        "out": out_green_model(reg),
        "born": born_green_model(reg),
    }


def test_closed_form_reproduces_pipeline_mode_rate(models, rod_pipeline):
    # the 2D closed form on the pipeline's own normalized mode: F_P eta + 1
    # is the f-model rate, and at the hot spot eta is close to 1
    mode, bg = rod_pipeline["mode"], rod_pipeline["bg"]
    freq = mode.frequency
    mv = mode_volume(mode, bg)
    f0 = mode.value_at([mv.r0])[0]
    n0 = np.real(f0) / np.linalg.norm(np.real(f0))
    for r_a, n_a in ((mv.r0, n0), ((0.0, 50.4e-9), (0.0, 1.0))):
        field = mode.value_at([r_a])[0]
        for omega in (freq.omega, freq.omega + freq.gamma):
            assert _closed_form(field, n_a, omega, mv.v_eff, freq, bg) == \
                pytest.approx(se_enhancement(models["f"], r_a, n_a, omega),
                              rel=1e-12)
    eta0 = eta_factor(f0, n0, freq.omega, mv.v_eff, freq.omega, freq.gamma,
                      bg.eps_b)
    assert abs(eta0 - 1.0) < 0.01


def test_orientation_covariance(models, rod_pipeline):
    omega = rod_pipeline["mode"].frequency.omega
    r_a = (0.0, 52e-9)
    n = np.array([0.3, 0.95])
    n /= np.linalg.norm(n)
    a = se_enhancement(models["far"], r_a, n, omega)
    b = se_enhancement(models["far"], r_a, -n, omega)
    assert a == pytest.approx(b, rel=1e-12)


def test_f_and_far_models_agree_near_but_not_far(models, rod_pipeline):
    # bare-mode and regularized propagators coincide in the near zone where
    # the enhancement is large (at ~100 nm the on-resonance interference dip
    # pushes F below 1 and relative agreement of the small F-1 degrades,
    # though the absolute curves stay close); beyond the caustic radius the
    # scattered parts themselves part ways
    omega = rod_pipeline["mode"].frequency.omega
    for standoff in (10e-9, 20e-9, 30e-9):
        r_a = (0.0, 40e-9 + standoff)
        ff = se_enhancement(models["f"], r_a, (0, 1), omega)
        fa = se_enhancement(models["far"], r_a, (0, 1), omega)
        assert abs(ff - fa) <= 0.10 * abs(fa)
    r_far = (0.0, 40e-9 + 900e-9)
    sf = models["f"].scattered(r_far, r_far, omega)[1, 1]
    sa = models["far"].scattered(r_far, r_far, omega)[1, 1]
    assert abs(sf - sa) > 0.5 * abs(sa)  # raw mode tail is unphysical here


def test_out_model_matches_far_at_distance(models, rod_pipeline):
    omega = rod_pipeline["mode"].frequency.omega
    r_a = (65e-9, 0.0)  # 60 nm off the flat side: image term down to ~6%
    fo = se_enhancement(models["out"], r_a, (0, 1), omega)
    fa = se_enhancement(models["far"], r_a, (0, 1), omega)
    assert fo == pytest.approx(fa, rel=0.10)
    r_b = (145e-9, 0.0)  # 140 nm out: image term negligible
    fo = se_enhancement(models["out"], r_b, (0, 1), omega)
    fa = se_enhancement(models["far"], r_b, (0, 1), omega)
    assert fo == pytest.approx(fa, rel=0.02)


@pytest.mark.parametrize("name, cls, attr", [
    ("f", ModeField, "value_at"),
    ("far", RegularizedField, "eval"),
    ("out", RegularizedField, "eval"),
])
def test_a_model_reads_both_points_in_one_call(models, rod_pipeline,
                                               monkeypatch, name, cls, attr):
    # one value_at / eval call per scattered part, emitter or propagator
    omega = rod_pipeline["mode"].frequency.omega
    calls = []
    read = getattr(cls, attr)

    def spy(self, points, *args):
        calls.append(len(points))
        return read(self, points, *args)
    monkeypatch.setattr(cls, attr, spy)
    r1, r2 = (31e-9, 7e-9), (83e-9, -2e-9)
    se_enhancement(models[name], r1, (0, 1), omega)
    models[name].full(r2, r1, omega + 1e12)
    assert calls == [2, 2]


def test_out_names_the_pair_it_refuses(models, rod_pipeline):
    # a pair whose midpoint lies inside the rod has no image plane: out
    # says so, with both points, in both orders
    omega = rod_pipeline["mode"].frequency.omega
    r1, r2 = (-10e-9, 0.0), (10e-9, 0.0)
    for a, b in ((r1, r2), (r2, r1)):
        with pytest.raises(DomainError, match=r"^out: ") as caught:
            models["out"].scattered(a, b, omega)
        message = str(caught.value)
        assert "(-10, 0) nm" in message and "(10, 0) nm" in message


def _cylinder_models():
    # a synthetic normalized mode round a Drude cylinder: reciprocity is a
    # property of how each model composes its parts, not of the mode
    bg = Background(1.5)
    cyl = Cylinder2D(radius=30e-9)
    grid = GridSpec(extent=((-300e-9, 300e-9), (-300e-9, 300e-9)), h=5e-9,
                    pml=PmlSpec(cells=10))
    rng = np.random.default_rng(7)
    nx, ny = grid.n_cells
    ex = rng.normal(size=(nx, ny + 1)) + 1j * rng.normal(size=(nx, ny + 1))
    ey = rng.normal(size=(nx + 1, ny)) + 1j * rng.normal(size=(nx + 1, ny))
    mode = ModeField(grid=grid, geometry=cyl, bg=bg, ex=ex, ey=ey,
                     frequency=ComplexFrequency(2.6e15, 2e14),
                     norm_state="normalized", norm_value=1.0 + 0j)
    reg = RegularizedField(mode, cyl, DrudeModel(1.26e16, 7e13), bg)
    return cyl, {"f": mode_green_model(mode, bg),
                 "far": far_green_model(reg), "out": out_green_model(reg),
                 "born": born_green_model(reg)}


def _exterior_pairs(geometry, rng, n):
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    pts = []
    while len(pts) < 2 * n:
        p = rng.uniform((bx0 - 60e-9, by0 - 60e-9), (bx1 + 60e-9, by1 + 60e-9))
        if not geometry.in_closure(p):
            pts.append(p)
    return list(zip(pts[::2], pts[1::2]))


@pytest.mark.parametrize("geometry", ["rod", "cylinder"])
def test_every_model_is_reciprocal_in_both_orders(models, rod_pipeline,
                                                  geometry):
    # G(r1, r2) = G(r2, r1)^T, and a pair is defined in both orders or
    # refused in both
    if geometry == "rod":
        shape, table = rod_pipeline["rod"], models
        omega = rod_pipeline["mode"].frequency.omega
    else:
        (shape, table), omega = _cylinder_models(), 2.6e15
    rng = np.random.default_rng(11)
    defined = 0
    for r1, r2 in _exterior_pairs(shape, rng, 8):
        for name, model in table.items():
            got = []
            for a, b in ((r1, r2), (r2, r1)):
                try:
                    got.append(model.scattered(a, b, omega))
                except DomainError:
                    got.append(None)
            assert (got[0] is None) == (got[1] is None), (name, r1, r2)
            if got[0] is not None:
                defined += 1
                g12, g21 = got
                assert np.abs(g12 - g21.T).max() \
                    <= 1e-12 * np.abs(g12).max(), (name, r1, r2)
    assert defined > 24
