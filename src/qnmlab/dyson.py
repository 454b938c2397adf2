"""The regularized mode field F(r, w) and the first-order Born term.

A quasinormal mode diverges far from the resonator, so propagating it with
the bare single-mode Green function fails beyond the caustic radius.
Convolving the mode with the background dyadic over the resonator
cross-section,

    F(r, w) = Int_V G^B(r, r'; w) . (eps(w) - eps_b) f(r') dA',

yields a field with the same near profile that decays like a radiating
source.  The first-order scattering correction

    G1^back(r1, r2; w) = Int_V G^B(r1, r') . (eps - eps_b) G^B(r', r2) dA'

is provided for comparison; it is the perturbative counterpart of the
quasi-static image term.  The single-mode Green functions built from these
pieces (G^f, G^far, G^out and far+born) live in :mod:`qnmlab.observables`,
whose ``GreenModel`` is the package's one Green-function API.

All quadratures ride the same staircased cell map as the normalization, so
quadrature errors partially cancel in ratios; cells close to an evaluation
point are subdivided with the field interpolated bilinearly, which the
steep 1/R^2 kernel needs below ~10 nm standoffs.
"""

import numpy as np

from .background import green_b_2d
from .core import Background, DomainError, interior_fraction, lattice_coords
from .solver.modes import ModeField

__all__ = [
    "RegularizedField",
    "lorentzian_prefactor",
    "green_back_1",
]


def lorentzian_prefactor(mode_or_freq, omega):
    """Single-pole amplitude ``w^2 / (2 w_t (w_t - w))``."""
    freq = getattr(mode_or_freq, "frequency", mode_or_freq)
    wt = freq.omega_tilde
    return omega**2 / (2.0 * wt * (wt - omega))


class RegularizedField:
    """Lazily evaluated regularized mode field ``F(r, w)``.

    Evaluation integrates the background dyadic against the mode's discrete
    polarization current: the exact node values of E_x/E_y weighted by the
    same interior-fraction permittivity map the operator was assembled
    with (each node carries its dual-cell area h^2).  This keeps the
    quadrature consistent with the discrete eigenproblem - against the
    sharp staircase map instead, the self-consistency integral of the mode
    misses by >10% at this contrast.  Results are memoized per (point,
    frequency); points must lie outside the resonator.  The contrast is
    evaluated at the requested (real) frequency, not at the eigenfrequency.
    """

    def __init__(self, mode: ModeField, geometry, material, bg: Background,
                 near_factor=12.0, max_subdiv=16, base_subdiv=2):
        if mode.norm_state != "normalized":
            raise DomainError("RegularizedField expects a normalized mode")
        self.mode = mode
        self.geometry = geometry
        self.material = material
        self.bg = bg
        self.near_factor = near_factor
        self.max_subdiv = max_subdiv
        self.base_subdiv = base_subdiv
        grid = mode.grid
        h = grid.h
        (x0, x1), (y0, y1) = grid.extent
        nx, ny = grid.n_cells
        xi = lattice_coords(x0, x1, nx + 1, h, 0.0)
        xh = lattice_coords(x0, x1, nx, h, 0.5)
        yi = lattice_coords(y0, y1, ny + 1, h, 0.0)
        yh = lattice_coords(y0, y1, ny, h, 0.5)
        src_pts, src_amp, src_comp = [], [], []
        for comp, (xs, ys, field) in {
            0: (xh, yi, mode.ex),
            1: (xi, yh, mode.ey),
        }.items():
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
            frac = interior_fraction(geometry.inside, pts, h)
            sel = frac > 0
            src_pts.append(pts[sel])
            src_amp.append(field[sel] * frac[sel])
            src_comp.append(np.full(sel.sum(), comp))
        self._pts = np.concatenate(src_pts)
        if len(self._pts) == 0:
            raise DomainError("geometry contains no grid nodes")
        self._amp = np.concatenate(src_amp)
        self._comp = np.concatenate(src_comp)
        self._cache = {}

    def _eval_one(self, r, omega):
        h = self.mode.grid.h
        area = h * h
        d = np.sqrt(np.sum((self._pts - r) ** 2, axis=-1))
        near = d < self.near_factor * h
        total = np.zeros(2, dtype=complex)
        far_pts = self._pts[~near]
        if len(far_pts):
            g = green_b_2d(r[None, :], far_pts, omega, self.bg)
            cols = g[np.arange(len(far_pts)), :, self._comp[~near]]
            total += (cols * self._amp[~near, None]).sum(axis=0) * area
        # near nodes: average the steep kernel over each dual patch with
        # the node amplitude held fixed
        for p, amp, comp in zip(self._pts[near], self._amp[near],
                                self._comp[near]):
            dist = np.hypot(*(p - r))
            n_sub = int(np.clip(np.ceil(3.0 * h / max(dist, 0.25 * h)),
                                self.base_subdiv, self.max_subdiv))
            off = (np.arange(n_sub) + 0.5) / n_sub - 0.5
            sx, sy = np.meshgrid(off * h, off * h, indexing="ij")
            sub = p + np.stack([sx.ravel(), sy.ravel()], axis=-1)
            g = green_b_2d(r[None, :], sub, omega, self.bg)
            total += g[:, :, comp].mean(axis=0) * amp * area
        delta_eps = self.material.eps(omega) - self.bg.eps_b
        return delta_eps * total

    def eval(self, points, omega):
        """F(r, w) at one or more exterior points; shape (N, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any(self.geometry.inside(pts)):
            raise DomainError("regularized field is defined outside the "
                              "resonator; use the mode itself inside")
        out = np.empty((len(pts), 2), dtype=complex)
        for i, r in enumerate(pts):
            key = (r[0], r[1], complex(omega))
            if key not in self._cache:
                self._cache[key] = self._eval_one(r, omega)
            out[i] = self._cache[key]
        return out


def green_back_1(geometry, material, bg: Background, omega, r1, r2,
                 h=None, near_factor=12.0, max_subdiv=12):
    """First-order scattering correction by quadrature over the resonator.

    ``h`` sets the quadrature cell size (default: smallest feature / 12).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if geometry.inside(r1) or geometry.inside(r2):
        raise DomainError("evaluation points must lie outside the resonator")
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    if h is None:
        h = min(bx1 - bx0, by1 - by0) / 12.0
    nx = max(2, int(round((bx1 - bx0) / h)))
    ny = max(2, int(round((by1 - by0) / h)))
    hx = (bx1 - bx0) / nx
    hy = (by1 - by0) / ny
    xs = bx0 + (np.arange(nx) + 0.5) * hx
    ys = by0 + (np.arange(ny) + 0.5) * hy
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    cells = pts[geometry.inside(pts)]
    delta_eps = material.eps(omega) - bg.eps_b
    area = hx * hy
    total = np.zeros((2, 2), dtype=complex)
    d1 = np.sqrt(np.sum((cells - r1) ** 2, axis=-1))
    d2 = np.sqrt(np.sum((cells - r2) ** 2, axis=-1))
    near = np.minimum(d1, d2) < near_factor * max(hx, hy)
    far_cells = cells[~near]
    if len(far_cells):
        ga = green_b_2d(r1[None, :], far_cells, omega, bg)
        gb = green_b_2d(far_cells, r2[None, :], omega, bg)
        total += np.einsum("mij,mjk->ik", ga, gb) * area
    for c in cells[near]:
        dist = max(min(np.hypot(*(c - r1)), np.hypot(*(c - r2))), 0.25 * h)
        n_sub = int(np.clip(np.ceil(3.0 * h / dist), 2, max_subdiv))
        off = (np.arange(n_sub) + 0.5) / n_sub - 0.5
        sx, sy = np.meshgrid(off * hx, off * hy, indexing="ij")
        sub = c + np.stack([sx.ravel(), sy.ravel()], axis=-1)
        ga = green_b_2d(r1[None, :], sub, omega, bg)
        gb = green_b_2d(sub, r2[None, :], omega, bg)
        total += np.einsum("mij,mjk->ik", ga, gb) * (area / n_sub**2)
    return delta_eps * total
