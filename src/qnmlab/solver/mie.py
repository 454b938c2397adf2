"""Analytic series for a circular cylinder (in-plane electric field /
out-of-plane magnetic field): the grid-free oracle of the driven solver.

A partial wave ``J_n(k rho) e^{i n phi}`` of the out-of-plane field
scatters into ``a_n H_n(k rho) e^{i n phi}``.  With ``k = n_b w / c``,
``m = n1 / n_b`` (complex for a lossy cylinder) and ``x = k a``, continuity
of H_z and of (1/eps) dH_z/drho at the surface gives

    a_n = [J_n(x) J_n'(mx) - m J_n'(x) J_n(mx)]
          / [m H_n'(x) J_n(mx) - H_n(x) J_n'(mx)],    a_{-n} = a_n.

A unit plane wave, ``H_inc = sum_n i^n J_n e^{i n phi}``, has the cross
sections ``C_sca = (4/k) sum_n |a_n|^2`` and ``C_ext = -(4/k) Re sum_n a_n``
per unit length; without loss they are equal, a check of the a_n.

A line dipole's field is ``E = t psi`` with ``t = z x grad``, and off the
source the background dyadic is ``G^B = (k0^2/k^2) t t' (i/4) H0(k|r-r'|)``.
Graf's addition theorem (DLMF 10.23.7) expands the Hankel function as
``sum_n J_n(k rho) H_n(k rho') e^{i n (phi - phi')}`` for ``rho < rho'``;
scattering each J_n gives the exact scattered dyadic

    G_scat(r, r') = (k0^2/k^2) (i/4) sum_n a_n [t H_n(k rho) e^{i n phi}]
                                         (x) [t' H_n(k rho') e^{-i n phi'}]

(:func:`mie_scattered_green`), whose terms fall like ``(a^2/rho rho')^n``.

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
    """a_n, the interior c_n and a_n H_n(x)^2 for orders 0..n_max; the last
    from log derivatives, as a_n underflows where H_n(x)^2 overflows."""
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
    a_hh = jx * hx * (jpmx / jmx - m * jpx / jx) / (m * hpx / hx - jpmx / jmx)
    return a, (jx + a * hx) / jmx, a_hh


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
    auto = n_max is None
    if auto:
        n_max = int(np.ceil(x + 4.05 * x ** (1 / 3) + 8))
    if n_max > MAX_ORDER:
        raise ConvergenceError(
            f"requested series order {n_max} exceeds the cap {MAX_ORDER}")
    a, c, _ = _coeff_arrays(radius, material, bg, omega, n_max)
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


def _curl_waves(orders, k, pts, radial, radial_p, scale=1.0):
    """``t [Z_|n|(k rho) e^{i n phi}] / scale_n`` at points (P, 2), shape
    (P, N, 2); |n| at both ends of a product is exact: Z_{-n} = (-1)^n Z_n."""
    rho = np.hypot(pts[:, 0], pts[:, 1])[:, None]
    phi = np.arctan2(pts[:, 1], pts[:, 0])[:, None]
    wave = np.exp(1j * orders * phi) / scale
    along_phi = k * radial_p(abs(orders), k * rho) * wave
    along_rho = -1j * orders * radial(abs(orders), k * rho) * wave / rho
    cos, sin = np.cos(phi), np.sin(phi)
    return np.stack([cos * along_rho - sin * along_phi,
                     sin * along_rho + cos * along_phi], axis=-1)


def mie_scattered_green(radius, material, bg: Background, omega, r1, r2,
                        n_max=None):
    """Exact ``G_scat(r1, r2; w)``, shape (..., 2, 2), of the cylinder centred
    at the origin, at exterior points.  The order is the smallest N with
    ``(a^2/rho1 rho2)^N <= 1e-12`` over the pairs, and at least
    :func:`mie_cylinder`'s, unless ``n_max`` is given; above ``MAX_ORDER``
    it raises :class:`ConvergenceError`."""
    lead = np.broadcast_shapes(np.shape(r1), np.shape(r2))[:-1]
    p1, p2 = (np.broadcast_to(np.asarray(r, dtype=float), lead + (2,))
              .reshape(-1, 2) for r in (r1, r2))
    rho_rho = np.hypot(*p1.T) * np.hypot(*p2.T)
    if not 0 < radius**2 < rho_rho.min():
        raise DomainError("need a positive radius and exterior points")
    if n_max is None:
        n_max = max(int(np.ceil(-12 / np.log10(radius**2 / rho_rho.min()))),
                    len(mie_cylinder(radius, material, bg, omega)["a"]) - 1)
    if n_max > MAX_ORDER:
        raise ConvergenceError(f"dipole series needs order {n_max} at these "
                               f"points, above the cap {MAX_ORDER}")
    orders = np.arange(-n_max, n_max + 1)
    k = bg.wavenumber(omega)
    # a_n H_n(k rho1) H_n(k rho2) = [a_n H_n(x)^2] [H_n(k rho1) / H_n(x)]
    # [H_n(k rho2) / H_n(x)], each factor in floating-point range
    h_x = hankel1(abs(orders), k * radius)
    a_hh = _coeff_arrays(radius, material, bg, omega, n_max)[2][abs(orders)]
    g = np.einsum("n,pni,pnj->pij", a_hh,
                  _curl_waves(orders, k, p1, hankel1, h1vp, h_x),
                  _curl_waves(-orders, k, p2, hankel1, h1vp, h_x))
    return (0.25j / bg.eps_b * g).reshape(lead + (2, 2))  # k0^2/k^2 (i/4)


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
