"""Single-mode Green functions and the physical outputs built from them:
emission-rate enhancement, Purcell factor, and the position/orientation
deviation factor.

``GreenModel`` is the package's one Green-function API.  Each model is the
background dyadic plus a named scattered part, built on a normalized mode:

    f        G^f   = G^B + w^2 / (2 w_t (w_t - w)) f(r1) f(r2)
    far      G^far = G^B + w^2 / (2 w_t (w_t - w)) F(r1, w) F(r2, w)
    out      G^out = G^far + G^qs
    far+born G^far + G1^back

with F the regularized field and G1^back the first-order Born term of
:mod:`qnmlab.dyson`.  The quasi-static image term G^qs, which takes over
within a few nanometers of the metal, mirrors ``r2`` in the tangent plane
at the surface point nearest ``r1``.

The relative spontaneous-emission rate of a dipole at ``r_a`` with unit
orientation ``n_a`` is the ratio of imaginary parts

    F_a = Im{n_a . G(r_a, r_a; w) . n_a} / Im{n_a . G^B(r_a, r_a; w) . n_a},

with the homogeneous coincident value supplied analytically.  Every Green
model used here decomposes as background plus a scattered part, so F_a is
computed as 1 + Im{n . G_scat . n} / Im{n . G^B . n} and the background
singularity never enters.

For 3D inputs the closed-form Purcell factor F_P = (3/4 pi^2)(lambda/n_b)^3
Q/V_eff and the deviation factor eta reproduce the direct evaluation
exactly: F_a = F_P eta + 1 is an algebraic identity, kept here as a strong
cross-check of the formula plumbing.  In 2D no closed-form Purcell
prefactor is published, so 2D rates are always computed from the Green
functions directly.
"""

from dataclasses import dataclass

import numpy as np

from .background import green_qs, im_green_b_diag
from .core import Background, ComplexFrequency, DomainError
from .dyson import (
    RegularizedField,
    green_back_1,
    lorentzian_prefactor,
)

__all__ = [
    "SERecord",
    "GreenModel",
    "mode_green_model",
    "far_green_model",
    "out_green_model",
    "born_green_model",
    "se_enhancement",
    "se_far_3d",
    "se_from_scattered",
    "purcell_factor",
    "eta_factor",
    "distance_scan",
]


@dataclass(frozen=True)
class SERecord:
    """Emission enhancement at one frequency and position, per model."""

    omega: float
    position: tuple
    orientation: tuple
    f_a: dict


class GreenModel:
    """A named Green-function approximation ``G = G^B + scattered``, where
    ``scattered(r1, r2, omega)`` returns the 2x2 scattered part."""

    def __init__(self, name, scattered_fn, bg: Background):
        self.name = name
        self.scattered = scattered_fn
        self.bg = bg

    def full(self, r1, r2, omega):
        from .background import green_b_2d
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        if np.array_equal(r1, r2):
            raise DomainError("full Green function is singular at "
                              "coincident points; use se_enhancement")
        return green_b_2d(r1, r2, omega, self.bg) + self.scattered(r1, r2,
                                                                   omega)


def mode_green_model(mode, bg) -> GreenModel:
    """Bare-mode variant: the diverging field itself in the outer product."""
    if mode.norm_state != "normalized":
        raise DomainError("mode_green_model expects a normalized mode")

    def scat(r1, r2, omega):
        v1 = mode.value_at([r1])[0]
        v2 = mode.value_at([r2])[0]
        return lorentzian_prefactor(mode, omega) * np.outer(v1, v2)
    return GreenModel("f", scat, bg)


def far_green_model(reg: RegularizedField) -> GreenModel:
    def scat(r1, r2, omega):
        f1 = reg.eval([r1], omega)[0]
        f2 = reg.eval([r2], omega)[0]
        return lorentzian_prefactor(reg.mode, omega) * np.outer(f1, f2)
    return GreenModel("far", scat, reg.bg)


def out_green_model(reg: RegularizedField) -> GreenModel:
    far = far_green_model(reg)

    def scat(r1, r2, omega):
        surface = reg.geometry.nearest_tangent_plane(np.asarray(r1))
        return far.scattered(r1, r2, omega) + green_qs(
            r1, r2, omega, reg.material, reg.bg, surface)
    return GreenModel("out", scat, reg.bg)


def born_green_model(reg: RegularizedField, quad_h=None) -> GreenModel:
    """Far variant plus the first-order scattering correction (the
    perturbative alternative to the quasi-static image term)."""
    far = far_green_model(reg)

    def scat(r1, r2, omega):
        return far.scattered(r1, r2, omega) + green_back_1(
            reg.geometry, reg.material, reg.bg, omega, r1, r2, h=quad_h)
    return GreenModel("far+born", scat, reg.bg)


def se_from_scattered(scat_nn, omega, bg: Background, dim=2):
    """F_a from the projected scattered Green value n . G_scat . n."""
    return 1.0 + np.imag(scat_nn) / im_green_b_diag(omega, bg, dim)


def se_enhancement(model: GreenModel, r_a, n_a, omega, dim=2):
    """Relative emission rate of a dipole against the homogeneous rate."""
    n = np.asarray(n_a, dtype=float)
    n = n / np.linalg.norm(n)
    scat = model.scattered(r_a, r_a, omega)
    return se_from_scattered(n @ scat @ n, omega, model.bg, dim)


def se_far_3d(field_value, n_a, omega, omega_c, gamma_c, bg: Background):
    """3D far-model emission rate from a regularized-field value:
    ``1 + Im{n . L(w) F F . n} / (n_b w^3 / 6 pi c^3)``."""
    n = np.asarray(n_a, dtype=float)
    n = n / np.linalg.norm(n)
    f = np.asarray(field_value, dtype=complex)
    lor = lorentzian_prefactor(ComplexFrequency(omega_c, gamma_c), omega)
    scat_nn = lor * (n @ f) ** 2
    return 1.0 + np.imag(scat_nn) / im_green_b_diag(omega, bg, dim=3)


def purcell_factor(q, v_eff, lambda_b, n_b):
    """Peak-enhancement closed form ``(3/4 pi^2)(lambda/n_b)^3 Q/V_eff``
    (3D quantities)."""
    if q <= 0 or v_eff <= 0 or lambda_b <= 0 or n_b <= 0:
        raise DomainError("purcell_factor requires positive inputs")
    return 3.0 / (4.0 * np.pi**2) * (lambda_b / n_b) ** 3 * q / v_eff


def eta_factor(field_value, n_a, omega, v_eff, omega_c, gamma_c, eps_b):
    """Deviation of the emitter from the hot spot, orientation and detuning.

    ``field_value`` is the regularized-mode vector at the emitter (the raw
    mode may substitute close to the resonator).  Defined so that
    ``F_P * eta + 1`` reproduces the far-model emission rate (3D forms).
    """
    n = np.asarray(n_a, dtype=float)
    n = n / np.linalg.norm(n)
    f = np.asarray(field_value, dtype=complex)
    wt = omega_c - 1j * gamma_c
    proj = (n @ f) ** 2
    return float(v_eff * omega_c**2 * gamma_c / omega
                 * np.imag(eps_b * proj / (wt * (wt - omega))))


def distance_scan(models, path, n_a, omega, oracle=None,
                  oracle_checkpoints=None):
    """Emission enhancement along a list of positions for several models.

    ``oracle`` is an optional callable ``r_a -> F_a`` running the full-wave
    reference; it is evaluated only at ``oracle_checkpoints`` (indices into
    ``path``) since each point costs a linear solve.  Missing oracle entries
    are NaN.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    checkpoints = set(oracle_checkpoints or [])
    records = []
    for i, r_a in enumerate(path):
        f_a = {m.name: se_enhancement(m, r_a, n_a, omega) for m in models}
        if oracle is not None and i in checkpoints:
            f_a["oracle"] = float(oracle(r_a))
        elif oracle is not None:
            f_a["oracle"] = float("nan")
        records.append(SERecord(omega=float(np.real(omega)),
                                position=tuple(r_a),
                                orientation=tuple(np.asarray(n_a, float)),
                                f_a=f_a))
    return records
