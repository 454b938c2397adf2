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
nearest the midpoint (r1 + r2)/2, one plane for both orders of a pair:
G^out(r1, r2) = G^out(r2, r1)^T, defined or refused in both orders.

The relative spontaneous-emission rate of a dipole at ``r_a`` with unit
orientation ``n_a`` is the ratio of imaginary parts

    F_a = Im{n_a . G(r_a, r_a; w) . n_a} / Im{n_a . G^B(r_a, r_a; w) . n_a},

with the homogeneous coincident value supplied analytically.  Every Green
model used here decomposes as background plus a scattered part, so F_a is
computed as 1 + Im{n . G_scat . n} / Im{n . G^B . n} and the background
singularity never enters.

The closed-form Purcell factor and the deviation factor are the 2D forms,
with the 2D coincident value Im{n . G^B . n} = (w/c)^2 / 8:

    F_P = 8 Q c^2 / (eps_b w_c^2 V_eff) = (2/pi^2) (lambda_b/n_b)^2 Q/V_eff
    eta = eps_b w_c gamma_c V_eff Im{(n . f)^2 / (w_t (w_t - w))}

with w_t = w_c - i gamma_c and lambda_b = 2 pi c / w_c.  For a field value
f at the emitter, F_P eta + 1 equals the single-mode rate
``se_from_scattered(lorentzian_prefactor * (n . f)^2, w, bg)`` exactly: the
raw mode value gives the ``f`` model, the regularized field the ``far``
model.  At the hot spot r0 of ``normalize.mode_volume``, with n along
f(r0) and f(r0)^2 real, eta(w_c) = 1/(1 + (gamma_c/w_c)^2).
"""

import numpy as np

from .background import green_b_2d, green_qs, im_green_b_diag
from .core import Background, DomainError
from .dyson import (
    RegularizedField,
    green_back_1,
    lorentzian_prefactor,
)

__all__ = [
    "GreenModel",
    "mode_green_model",
    "far_green_model",
    "out_green_model",
    "born_green_model",
    "se_enhancement",
    "se_from_scattered",
    "propagator_from_scattered",
    "purcell_factor",
    "eta_factor",
]


class GreenModel:
    """A named Green-function approximation ``G = G^B + scattered``, where
    ``scattered(r1, r2, omega)`` returns the 2x2 scattered part."""

    def __init__(self, name, scattered_fn, bg: Background):
        self.name = name
        self.scattered = scattered_fn
        self.bg = bg

    def full(self, r1, r2, omega):
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
        v1, v2 = mode.value_at([r1, r2])
        return (lorentzian_prefactor(mode.frequency, omega)
                * np.outer(v1, v2))
    return GreenModel("f", scat, bg)


def far_green_model(reg: RegularizedField) -> GreenModel:
    def scat(r1, r2, omega):
        f1, f2 = reg.eval([r1, r2], omega)
        return (lorentzian_prefactor(reg.mode.frequency, omega)
                * np.outer(f1, f2))
    return GreenModel("far", scat, reg.bg)


def out_green_model(reg: RegularizedField) -> GreenModel:
    """Far variant plus the quasi-static image term in the tangent plane
    nearest the midpoint of the pair; a pair whose midpoint lies inside
    the resonator has no such plane and is refused, in both orders."""
    far = far_green_model(reg)

    def scat(r1, r2, omega):
        try:
            surface = reg.geometry.nearest_tangent_plane(
                0.5 * (np.asarray(r1) + np.asarray(r2)))
        except DomainError:
            raise DomainError(
                f"out: the midpoint of {_nm(r1)} and {_nm(r2)} lies inside "
                f"the resonator, so the pair has no image plane") from None
        return far.scattered(r1, r2, omega) + green_qs(
            r1, r2, omega, reg.material, reg.bg, surface)
    return GreenModel("out", scat, reg.bg)


def _nm(r):
    return "({:.4g}, {:.4g}) nm".format(*(np.asarray(r, dtype=float) * 1e9))


def born_green_model(reg: RegularizedField) -> GreenModel:
    """Far variant plus the first-order scattering correction (the
    perturbative alternative to the quasi-static image term)."""
    far = far_green_model(reg)

    def scat(r1, r2, omega):
        return far.scattered(r1, r2, omega) + green_back_1(
            reg.geometry, reg.material, reg.bg, omega, r1, r2)
    return GreenModel("far+born", scat, reg.bg)


def se_from_scattered(scat_nn, omega, bg: Background):
    """F_a from the projected scattered Green value n . G_scat . n."""
    return 1.0 + np.imag(scat_nn) / im_green_b_diag(omega, bg)


def propagator_from_scattered(scat_nn, r1, r2, n, omega, bg: Background):
    """The normalized propagator ``|n . G(r1, r2) . n|^2 / Im{n . G^B . n}^2``
    of ``propagator.csv`` from the projected scattered value
    n . G_scat(r1, r2) . n: the analytic background term is added."""
    n = np.asarray(n, dtype=float)
    g = n @ green_b_2d(r1, r2, omega, bg) @ n + scat_nn
    return abs(g) ** 2 / im_green_b_diag(omega, bg) ** 2


def se_enhancement(model: GreenModel, r_a, n_a, omega):
    """Relative emission rate of a dipole against the homogeneous rate."""
    n = np.asarray(n_a, dtype=float)
    n = n / np.linalg.norm(n)
    scat = model.scattered(r_a, r_a, omega)
    return se_from_scattered(n @ scat @ n, omega, model.bg)


def purcell_factor(q, v_eff, lambda_b, n_b):
    """Peak-enhancement closed form ``(2/pi^2)(lambda_b/n_b)^2 Q/V_eff``."""
    if q <= 0 or v_eff <= 0 or lambda_b <= 0 or n_b <= 0:
        raise DomainError("purcell_factor requires positive inputs")
    return 2.0 / np.pi**2 * (lambda_b / n_b) ** 2 * q / v_eff


def eta_factor(field_value, n_a, omega, v_eff, omega_c, gamma_c, eps_b):
    """Deviation of the emitter from the hot spot, orientation and detuning.

    ``field_value`` is the mode vector at the emitter: the raw mode value
    for the ``f`` model, the regularized field for ``far``.  Defined so that
    ``F_P * eta + 1`` reproduces that model's emission rate.
    """
    n = np.asarray(n_a, dtype=float)
    n = n / np.linalg.norm(n)
    f = np.asarray(field_value, dtype=complex)
    wt = omega_c - 1j * gamma_c
    proj = (n @ f) ** 2
    return float(eps_b * omega_c * gamma_c * v_eff
                 * np.imag(proj / (wt * (wt - omega))))

