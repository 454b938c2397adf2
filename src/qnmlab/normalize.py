"""Quasinormal-mode normalization and effective mode volume.

The unconjugated inner product of a mode with itself,

    <<f|f>> = Int_V sigma(r, w_t) f.f dA  +  i n_b c / (2 w_t) Oint_dV f.f dl,

converges to a finite value as the integration domain grows beyond the
caustic radius, while the volume and surface contributions each keep
growing.  ``sigma`` is the dispersion factor (1/2w) d(eps w^2)/dw evaluated
at the complex eigenfrequency; the dot products are plain squares, no
conjugation.

The integration domain is a disk: for an outgoing cylindrical wave the
radial surface kernel cancels the volume growth exactly (the prefactor
n_b c / 2 w_t is precisely 1/(2 k_t) with k_t the complex in-medium
wavenumber), whereas on a rectangle the oblique-exit mismatch leaves an
O(1%) oscillation of the sum with domain size that never settles.  The
disk radius is ``r_bound + clearance`` with ``r_bound`` the resonator's
bounding-circle radius, so the clearance equals the boundary-to-surface
distance at the closest approach.  Volume quadrature is the midpoint rule
over cell centers inside the disk; the contour integral is a periodic
trapezoid over the circle with the colocated field sampled bilinearly.

``sauvan_norm`` evaluates the reciprocity-based normalization integrand
(electric minus magnetic dispersion energy, no surface term) over the same
disk; analytically it equals the total above, and the agreement of the two
routes is a strong self-check of a computed mode.

The effective mode volume follows from the squared normalized field at the
hot spot: 1/V_eff = Re{1/v_q} with v_q = <<f|f>> / (eps_b f.f(r0)).
"""

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C0

from .core import Background, ConvergenceError, DomainError, colocate
from .solver.fdfd import curl_cells
from .solver.modes import ModeField

__all__ = [
    "NormBreakdown",
    "ModeVolume",
    "inner_product",
    "norm_scan",
    "normalize_mode",
    "mode_volume",
    "sauvan_norm",
    "caustic_radius",
]


@dataclass(frozen=True)
class NormBreakdown:
    """Volume term, surface term and their sum for one integration domain.

    ``domain_half_width`` is the clearance between the resonator surface and
    the integration boundary at the closest approach.
    """

    domain_half_width: float
    volume_term: complex
    surface_term: complex

    @property
    def total(self) -> complex:
        return self.volume_term + self.surface_term


@dataclass(frozen=True)
class ModeVolume:
    """Complex generalized mode volume and the real effective volume
    1/V_eff = Re{1/v_q}, with the hot-spot position used as reference."""

    v_q: complex
    v_eff: float
    r0: tuple


def _bounding_radius(geometry):
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    cx, cy = geometry.center
    if hasattr(geometry, "radius"):
        return geometry.radius, (cx, cy)
    return max(np.hypot(x - cx, y - cy)
               for x in (bx0, bx1) for y in (by0, by1)), (cx, cy)


def _disk_cells(mode: ModeField, clearances):
    """The resonator mask and the distance of each cell center from the
    disk center, built once, and the disk radius of each clearance.  Every
    clearance is checked against the PML before any of them is used."""
    r_bound, center = _bounding_radius(mode.geometry)
    radii = [r_bound + c for c in clearances]
    (ix0, ix1), (iy0, iy1) = mode.grid.interior_box(margin_cells=1)
    for clearance, radius in zip(clearances, radii):
        if (center[0] - radius < ix0 or center[0] + radius > ix1
                or center[1] - radius < iy0 or center[1] + radius > iy1):
            raise DomainError(
                f"integration clearance {clearance:.3g} m reaches into the PML")
    pts = mode.grid.cell_mesh()
    rr = np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])
    return mode.geometry.inside(pts), rr, radii, center


def _colocated_squares(mode: ModeField):
    """Unconjugated f.f on cell centers, colocated as products of the two
    straddling nodes per component.

    For a discrete plane wave the node product reproduces exp(2ikx_center)
    with no (kh) amplitude factor, so quadratic integrands built this way
    cancel their propagating parts to the same order as the field solves
    the discrete equations - squaring the averaged field instead leaves a
    non-decaying O((kh)^2) oscillatory residue that accumulates over the
    growing integration area.
    """
    ex, ey = mode.ex, mode.ey
    return ex[:, :-1] * ex[:, 1:] + ey[:-1, :] * ey[1:, :]


def norm_scan(mode: ModeField, material, bg: Background, widths):
    """Inner-product breakdowns over a sequence of growing clearances.

    The cell mesh, resonator mask, distance map, colocated squares and
    dispersion factor are built once per scan; each clearance then costs
    only its disk mask, its masked sum and its contour.  A clearance whose
    disk reaches the PML rejects the whole scan before any quadrature.
    """
    widths = list(widths)
    h = mode.grid.h
    inside, rr, radii, center = _disk_cells(mode, widths)
    omega_t = mode.frequency.omega_tilde

    ff = _colocated_squares(mode)
    sigma = np.where(inside, material.sigma(omega_t), bg.eps_b)
    weighted = sigma * ff
    scan = []
    for width, radius in zip(widths, radii):
        volume = complex(np.sum(weighted[rr < radius]) * h * h)

        m = int(np.ceil(2 * np.pi * radius / h))
        th = 2 * np.pi * np.arange(m) / m
        cpts = np.stack([center[0] + radius * np.cos(th),
                         center[1] + radius * np.sin(th)], axis=-1)
        ff_line = mode.grid.sample(ff, cpts)
        line = np.sum(ff_line) * (2 * np.pi * radius / m)
        surface = 1j * bg.n_b * C0 / (2.0 * omega_t) * line

        scan.append(NormBreakdown(domain_half_width=width,
                                  volume_term=volume, surface_term=surface))
    return scan


def inner_product(mode: ModeField, material, bg: Background,
                  domain_half_width) -> NormBreakdown:
    """Unconjugated mode norm over one finite disk-shaped domain: the
    one-clearance case of :func:`norm_scan`."""
    return norm_scan(mode, material, bg, [domain_half_width])[0]


def caustic_radius(scan, rtol=0.01):
    """First clearance at which successive totals change by less than
    ``rtol`` (the onset of convergence of the volume+surface sum)."""
    for prev, cur in zip(scan, scan[1:]):
        if abs(cur.total - prev.total) <= rtol * abs(cur.total):
            return cur.domain_half_width
    raise ConvergenceError(
        f"norm totals did not settle to {rtol:.1%} over the scanned domains")


def normalize_mode(mode: ModeField, scan, rtol=0.01) -> ModeField:
    """Scale the mode so its inner product is unity.

    ``scan`` is a sequence of breakdowns over growing domains (at least
    two); the last two totals must agree to ``rtol``, else the norm has not
    converged and scaling it would be meaningless.
    """
    if isinstance(scan, NormBreakdown):
        raise ConvergenceError(
            "normalization needs a convergence scan (two or more domains), "
            "not a single breakdown")
    if len(scan) < 2:
        raise ConvergenceError("normalization needs at least two domains")
    t_prev, t_last = scan[-2].total, scan[-1].total
    if abs(t_last - t_prev) > rtol * abs(t_last):
        raise ConvergenceError(
            f"norm not converged: last totals {t_prev:.6e} and {t_last:.6e} "
            f"differ by more than {rtol:.1%}")
    factor = 1.0 / np.sqrt(t_last)  # principal branch
    return mode.scaled(factor, norm_state="normalized", norm_value=t_last)


def mode_volume(mode: ModeField, bg: Background, r0=None) -> ModeVolume:
    """Generalized mode volume of a normalized mode.

    ``r0`` defaults to the cell center of largest |f| outside the resonator
    (the hot spot sits at the surface); any exterior point may be passed
    instead.  The ratio v_q is gauge- and scale-invariant for a normalized
    mode.
    """
    if mode.norm_state != "normalized":
        raise DomainError("mode_volume expects a normalized mode")
    if r0 is None:
        exc, eyc = colocate(mode.ex, mode.ey)
        pts = mode.grid.cell_mesh()
        intensity = np.abs(exc) ** 2 + np.abs(eyc) ** 2
        intensity[mode.geometry.inside(pts)] = 0.0
        i, j = np.unravel_index(np.argmax(intensity), intensity.shape)
        r0 = (float(pts[i, j, 0]), float(pts[i, j, 1]))
        ff0 = exc[i, j] ** 2 + eyc[i, j] ** 2
    else:
        v = mode.value_at([r0])[0]
        ff0 = v[0] ** 2 + v[1] ** 2
    if ff0 == 0:
        raise DomainError("mode field vanishes at the reference point")
    v_q = 1.0 / (bg.eps_b * ff0)
    v_eff = 1.0 / np.real(1.0 / v_q)
    return ModeVolume(v_q=complex(v_q), v_eff=float(v_eff), r0=tuple(r0))


def sauvan_norm(mode: ModeField, material, bg: Background,
                domain_half_width) -> complex:
    """Reciprocity-form normalization integral over one finite domain.

    Electric and magnetic contributions,

        (1/2) Int [ d(w eps)/dw f.f + (c/w_t)^2 hz.hz ] dA,

    with hz the discrete out-of-plane curl of the mode; self-convergent, no
    surface term.  Analytically identical to ``inner_product(...).total``.
    """
    h = mode.grid.h
    inside, rr, (radius,), _ = _disk_cells(mode, [domain_half_width])
    mask = rr < radius
    omega_t = mode.frequency.omega_tilde

    ff = _colocated_squares(mode)
    hz = curl_cells(mode.ex, mode.ey, h)
    # d(w eps)/dw = 2 sigma - eps, analytic forms on both media
    deps_dw = np.where(inside,
                       2.0 * material.sigma(omega_t)
                       - material.eps(omega_t),
                       bg.eps_b)
    integrand = deps_dw * ff + (C0 / omega_t) ** 2 * hz * hz
    return complex(0.5 * np.sum(integrand[mask]) * h * h)
