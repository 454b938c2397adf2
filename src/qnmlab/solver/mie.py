"""Analytic scattering series for a circular cylinder (normal incidence,
in-plane electric field / out-of-plane magnetic field).

An independent oracle for the grid solver.  The out-of-plane field of a
unit incident plane wave travelling along +x expands as

    H_inc = sum_n i^n J_n(k rho) e^{i n phi},
    H_sca = sum_n i^n a_n H_n(k rho) e^{i n phi},
    H_int = sum_n i^n c_n J_n(k1 rho) e^{i n phi},

with ``k = n_b w / c`` and ``k1 = n1 w / c`` (complex for a lossy cylinder).
Continuity of H_z and of (1/eps) dH_z/drho at the surface gives, with
``m = n1 / n_b`` and ``x = k a``:

    a_n = [J_n(x) J_n'(mx) - m J_n'(x) J_n(mx)]
          / [m H_n'(x) J_n(mx) - H_n(x) J_n'(mx)]

Cross sections per unit length follow from the partial waves:

    C_sca = (4/k) sum_n |a_n|^2,    C_ext = -(4/k) Re sum_n a_n

(sums over all integer n; the series is symmetric in +-n).  For a lossless
cylinder energy conservation forces ``Re a_n = -|a_n|^2``, making extinction
and scattering cross sections identical - a built-in consistency check.

Complex resonance frequencies of azimuthal order n are the roots of the
partial-wave denominator, found by a complex secant iteration.
"""

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp

from ..core import Background, ComplexFrequency, ConvergenceError, DomainError
from .roots import secant_root

MAX_ORDER = 100


def _rel_index(material, bg, omega):
    m = np.sqrt(complex(material.eps(omega))) / bg.n_b
    if m.imag < 0:  # decaying interior wave for the exp(-iwt) convention
        m = -m
    return m


def _coeff_arrays(radius, material, bg: Background, omega, n_max):
    k = bg.wavenumber(omega)
    x = k * radius
    m = _rel_index(material, bg, omega)
    n = np.arange(n_max + 1)
    jx, jpx = jv(n, x), jvp(n, x)
    hx, hpx = hankel1(n, x), h1vp(n, x)
    jmx, jpmx = jv(n, m * x), jvp(n, m * x)
    num = jx * jpmx - m * jpx * jmx
    den = m * hpx * jmx - hx * jpmx
    a = num / den
    c = (jx + a * hx) / jmx
    return a, c


def mie_cylinder(radius, material, bg: Background, omega, n_max=None):
    """Partial-wave coefficients and cross sections of a circular cylinder.

    Returns a dict with ``a`` (scattering coefficients, orders 0..N),
    ``c`` (interior coefficients), and cross sections ``c_ext``, ``c_sca``,
    ``c_abs`` in meters.  The series order is chosen adaptively unless
    ``n_max`` is given; failure to converge below order 100 raises.
    """
    if radius <= 0:
        raise DomainError("radius must be positive")
    k = bg.wavenumber(np.real(omega))
    x = abs(k) * radius
    if n_max is None:
        n_max = int(np.ceil(x + 4.05 * x ** (1 / 3) + 8))
        auto = True
    else:
        auto = False
    if n_max > MAX_ORDER:
        raise ConvergenceError(
            f"requested series order {n_max} exceeds the cap {MAX_ORDER}")
    a, c = _coeff_arrays(radius, material, bg, omega, n_max)
    if auto and abs(a[-1]) > 1e-12 * (np.abs(a).max() or 1.0):
        if n_max >= MAX_ORDER:
            raise ConvergenceError("cylinder series did not converge by "
                                   f"order {MAX_ORDER}")
        return mie_cylinder(radius, material, bg, omega,
                            n_max=min(2 * n_max, MAX_ORDER))
    weight = np.full(n_max + 1, 2.0)
    weight[0] = 1.0
    c_sca = (4.0 / k) * np.sum(weight * np.abs(a) ** 2)
    c_ext = -(4.0 / k) * np.sum(weight * np.real(a))
    return {
        "a": a,
        "c": c,
        "c_ext": float(c_ext),
        "c_sca": float(c_sca),
        "c_abs": float(c_ext - c_sca),
    }


def mie_pole(radius, material, bg: Background, order, omega_guess,
             rel_tol=1e-11) -> ComplexFrequency:
    """Complex resonance frequency of azimuthal order ``order``: root of the
    partial-wave denominator in the lower half plane."""

    def denominator(omega):
        k = bg.wavenumber(omega)
        x = k * radius
        m = _rel_index(material, bg, omega)
        return (m * h1vp(order, x) * jv(order, m * x)
                - hankel1(order, x) * jvp(order, m * x))

    root, _ = secant_root(denominator, complex(omega_guess), rel_tol=rel_tol)
    return ComplexFrequency.from_omega_tilde(root)


def mie_scattered_hz(radius, material, bg: Background, omega, points,
                     n_max=None):
    """Scattered out-of-plane field of the series at exterior points."""
    res = mie_cylinder(radius, material, bg, omega, n_max=n_max)
    a = res["a"]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(rho <= radius):
        raise DomainError("evaluation points must lie outside the cylinder")
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    k = bg.wavenumber(omega)
    n = np.arange(len(a))
    terms = (1j ** n * a)[None, :] * hankel1(n[None, :], k * rho[:, None])
    angular = np.cos(n[None, :] * phi[:, None])
    angular[:, 1:] *= 2.0  # +-n degeneracy
    return np.sum(terms * angular, axis=1)
