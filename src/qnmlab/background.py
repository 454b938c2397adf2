"""Analytic dyadic Green functions of the homogeneous background.

The electric-field Green function used everywhere in this package satisfies

    curl curl G(r, r'; w) - (w/c)^2 eps(r, w) G(r, r'; w) = (w/c)^2 delta(r - r') 1

so in a uniform background of index ``n_b`` (``eps_b = n_b^2``, in-medium
wavenumber ``k = n_b w / c``) it is ``G^B = k0^2 (1 + grad grad / k^2) g``
with ``g`` the outgoing scalar Green function of the Helmholtz operator:
``g = (i/4) H0^(1)(kR)`` in 2D and ``g = exp(ikR)/(4 pi R)`` in 3D.  With
this normalization ``G`` carries units of 1/length^dim and the coincident
imaginary part (the homogeneous LDOS normalizer) is finite:

    2D:  Im{n . G^B(r, r) . n} = (w/c)^2 / 8
    3D:  Im{n . G^B(r, r) . n} = n_b w^3 / (6 pi c^3)

All evaluators broadcast over leading point axes and are pure functions.
"""

import numpy as np
from scipy.constants import c as C0
from scipy.special import hankel1

from .core import Background, DomainError

__all__ = [
    "green_b_2d",
    "green_b_3d",
    "im_green_b_diag",
    "green_qs",
    "scalar_g_2d",
]


def scalar_g_2d(k, R):
    """Outgoing 2D scalar Green function ``(i/4) H0^(1)(kR)``."""
    return 0.25j * hankel1(0, k * np.asarray(R))


def _pair_geometry(r1, r2):
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    d = np.atleast_2d(r1 - r2)
    scalar = (r1 - r2).ndim == 1
    R = np.sqrt(np.sum(d**2, axis=-1))
    if np.any(R == 0):
        raise DomainError("Green function is singular at coincident points; "
                          "use im_green_b_diag for the coincident imaginary part")
    rho = d / R[..., None]
    return R, rho, scalar


def green_b_2d(r1, r2, omega, bg: Background):
    """In-plane 2x2 background dyadic at real frequency ``omega``.

    Closed form in terms of Hankel functions of the first kind:

        G_ij = k0^2 (i/4) [ (d_ij - u_i u_j) H0(kR) + (2 u_i u_j - d_ij) H1(kR)/(kR) ]

    with ``u = (r1 - r2)/R``.  Broadcasts over leading axes of ``r1``/``r2``
    and returns shape ``(..., 2, 2)``.
    """
    R, rho, scalar = _pair_geometry(r1, r2)
    k = bg.wavenumber(omega)
    k0 = omega / C0
    z = k * R
    h0 = hankel1(0, z)
    h1z = hankel1(1, z) / z
    eye = np.eye(2)
    uu = rho[..., :, None] * rho[..., None, :]
    g = 0.25j * ((eye - uu) * h0[..., None, None]
                 + (2.0 * uu - eye) * h1z[..., None, None])
    g = k0**2 * g
    return g[0] if scalar else g


def green_b_3d(r1, r2, omega, bg: Background):
    """Free-space 3x3 background dyadic at real frequency ``omega``.

    ``G = k0^2 e^{ikR}/(4 pi R) [ (1 + i/(kR) - 1/(kR)^2) 1
    + (-1 - 3i/(kR) + 3/(kR)^2) u u ]``.
    """
    R, rho, scalar = _pair_geometry(r1, r2)
    k = bg.wavenumber(omega)
    k0 = omega / C0
    z = k * R
    pref = np.exp(1j * z) / (4 * np.pi * R)
    t1 = 1.0 + 1j / z - 1.0 / z**2
    t2 = -1.0 - 3j / z + 3.0 / z**2
    eye = np.eye(3)
    uu = rho[..., :, None] * rho[..., None, :]
    g = pref[..., None, None] * (t1[..., None, None] * eye
                                 + t2[..., None, None] * uu)
    g = k0**2 * g
    return g[0] if scalar else g


def im_green_b_diag(omega, bg: Background, dim):
    """Coincident-point ``Im{n . G^B(r, r) . n}`` (isotropic, any unit n)."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    if dim == 2:
        return (omega / C0) ** 2 / 8.0
    if dim == 3:
        return bg.n_b * omega**3 / (6.0 * np.pi * C0**3)
    raise DomainError(f"dim must be 2 or 3, got {dim}")


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


def green_qs(r_a, r_b, omega, material, bg: Background, surface,
             retarded=False):
    """Quasi-static image-dipole Green function near a flat metal surface.

    The source point ``r_b`` is mirrored across ``surface``; its s component
    (parallel to the surface) couples with amplitude ``-alpha`` and its p
    component (along the normal) with ``+alpha``, where ``alpha`` is
    ``image_strength``.  Both points must lie on the background side.

    The mirror dyadic is the electrostatic 1/R^2 part of the background
    response (that is what "quasi-static" means physically): with the fully
    retarded dyadic instead (``retarded=True``, for diagnostics) the image
    radiates and keeps contributing far outside the near-field regime where
    the term is meaningful.
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
    if retarded:
        gb = green_b_2d(r_a, surface.mirror(r_b), omega, bg)
    else:
        gb = static_green_2d(r_a, surface.mirror(r_b), bg)
    mirror_sign = np.outer(n, n) - np.outer(t, t)
    return gb @ (alpha * mirror_sign)
