"""Analytic dyadic Green functions of the homogeneous background.

The electric-field Green function used everywhere in this package satisfies

    curl curl G(r, r'; w) - (w/c)^2 eps(r, w) G(r, r'; w) = (w/c)^2 delta(r - r') 1

so in a uniform background of index ``n_b`` (``eps_b = n_b^2``, in-medium
wavenumber ``k = n_b w / c``) it is ``G^B = k0^2 (1 + grad grad / k^2) g``
with ``g = (i/4) H0^(1)(kR)`` the outgoing scalar Green function of the 2D
Helmholtz operator.  With this normalization ``G`` carries units of
1/length^2 and the coincident imaginary part (the homogeneous LDOS
normalizer) is finite:

    Im{n . G^B(r, r) . n} = (w/c)^2 / 8

The background is lossless and the frequency real, so kR is real and
positive: ``green_b_2d`` builds the Hankel functions from the real-argument
Bessel functions, ``H_n^(1) = J_n + i Y_n`` (Cephes ``j0, j1, y0, y1``),
which cost a fraction of the complex-argument ``hankel1``.  It refuses a
complex or non-positive frequency.

All evaluators broadcast over leading point axes and are pure functions.
"""

import numpy as np
from scipy.constants import c as C0
from scipy.special import hankel1, j0, j1, y0, y1

from .core import Background, DomainError

__all__ = [
    "green_b_2d",
    "im_green_b_diag",
    "green_qs",
    "scalar_g_2d",
]


def scalar_g_2d(k, R):
    """Outgoing 2D scalar Green function ``(i/4) H0^(1)(kR)``."""
    return 0.25j * hankel1(0, k * np.asarray(R))


def _pair_geometry(r1, r2):
    d = np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)
    scalar = d.ndim == 1
    d = np.atleast_2d(d)
    R = np.sqrt(np.sum(d**2, axis=-1))
    if not R.all():
        raise DomainError("Green function is singular at coincident points; "
                          "use im_green_b_diag for the coincident imaginary part")
    rho = d / R[..., None]
    return R, rho, scalar


def green_b_2d(r1, r2, omega, bg: Background):
    """In-plane 2x2 background dyadic at real frequency ``omega``.

    Closed form in terms of Hankel functions of the first kind:

        G_ij = k0^2 (i/4) [ (d_ij - u_i u_j) H0(kR) + (2 u_i u_j - d_ij) H1(kR)/(kR) ]

    with ``u = (r1 - r2)/R`` and ``H_n = J_n + i Y_n`` at real ``kR``.
    Broadcasts over leading axes of ``r1``/``r2`` and returns shape
    ``(..., 2, 2)``.  Each pair is computed on its own, so a value does not
    depend on which other pairs share the call.
    """
    if np.iscomplexobj(omega) or not omega > 0:
        raise DomainError(f"green_b_2d needs a real positive frequency, "
                          f"got {omega!r}")
    R, rho, scalar = _pair_geometry(r1, r2)
    z = bg.wavenumber(omega) * R
    h0 = j0(z) + 1j * y0(z)
    h1z = (j1(z) + 1j * y1(z)) / z
    # the bracket regrouped as  (H0 - H1/z) d_ij + (2 H1/z - H0) u_i u_j
    c = 0.25j * (omega / C0) ** 2
    iso = c * (h0 - h1z)
    aniso = c * (2.0 * h1z - h0)
    ux, uy = rho[..., 0], rho[..., 1]
    g = np.empty(z.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = iso + aniso * (ux * ux)
    g[..., 1, 1] = iso + aniso * (uy * uy)
    g[..., 0, 1] = g[..., 1, 0] = aniso * (ux * uy)
    return g[0] if scalar else g


def im_green_b_diag(omega, bg: Background, dim=2):
    """Coincident-point ``Im{n . G^B(r, r) . n}`` (isotropic, any unit n).

    Independent of ``bg``; ``dim`` accepts only 2, the package's dimension.
    """
    if dim != 2:
        raise DomainError(f"only dim=2 is supported, got {dim}")
    if omega <= 0:
        raise DomainError("omega must be positive")
    return (omega / C0) ** 2 / 8.0


def image_strength(material, bg: Background, omega):
    """Quasi-static image amplitude ``(eps(w) - eps_b) / (2 (eps(w) + eps_b))``."""
    e = material.eps(omega)
    return (e - bg.eps_b) / (2.0 * (e + bg.eps_b))


def static_green_2d(r1, r2, bg: Background):
    """Electrostatic (non-retarded) part of the 2D background dyadic:
    the 1/R^2 line-dipole response ``(2 u u - 1) / (2 pi eps_b R^2)``."""
    R, rho, scalar = _pair_geometry(r1, r2)
    eye = np.eye(2)
    uu = rho[..., :, None] * rho[..., None, :]
    g = (2.0 * uu - eye) / (2.0 * np.pi * bg.eps_b * R**2)[..., None, None]
    return g[0] if scalar else g


def green_qs(r_a, r_b, omega, material, bg: Background, surface):
    """Quasi-static image-dipole Green function near a flat metal surface.

    The source point ``r_b`` is mirrored across ``surface``; its s component
    (parallel to the surface) couples with amplitude ``-alpha`` and its p
    component (along the normal) with ``+alpha``, where ``alpha`` is
    ``image_strength``.  Both points must lie on the background side.

    The mirror dyadic is the electrostatic 1/R^2 part of the background
    response (that is what "quasi-static" means physically).
    """
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    if surface.signed_distance(r_a) <= 0 or surface.signed_distance(r_b) <= 0:
        raise DomainError("green_qs requires both points strictly on the "
                          "background side of the surface plane")
    if r_a.shape[-1] != 2:
        raise DomainError("green_qs is implemented for 2D points")
    alpha = image_strength(material, bg, omega)
    n = np.asarray(surface.normal)
    t = np.array([-n[1], n[0]])
    gb = static_green_2d(r_a, surface.mirror(r_b), bg)
    mirror_sign = np.outer(n, n) - np.outer(t, t)
    return gb @ (alpha * mirror_sign)
