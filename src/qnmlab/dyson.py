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
from .core import (
    Background,
    ComplexFrequency,
    DomainError,
    contrast_block,
    require_exterior,
)
from .solver.modes import ModeField

__all__ = [
    "RegularizedField",
    "lorentzian_prefactor",
    "green_back_1",
]


def lorentzian_prefactor(freq: ComplexFrequency, omega):
    """Single-pole amplitude ``w^2 / (2 w_t (w_t - w))`` of the pole
    ``freq``."""
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
    misses by >10% at this contrast.  The memo keeps the points of the
    latest :meth:`eval` call only: enough for ``out`` and ``far+born`` to
    reuse what ``far`` just read.  Points must lie strictly outside the
    resonator, and one inside or on its surface is refused.  The contrast
    is evaluated at the requested (real) frequency, not at the
    eigenfrequency.

    The build gathers the source nodes from the contrast block round the
    resonator (:func:`qnmlab.core.contrast_block`), not from the full node
    arrays.  An evaluation makes one kernel call for the far nodes and the
    sub-points of every subdivided near node together.  It sums the far
    nodes, averages each near node's sub-points, and adds the near-node
    patches to the total one at a time in node order: the result equals a
    node-by-node loop over the full arrays bit for bit.
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
        xi, xh, yi, yh = mode.grid.node_axes()
        # the contrast block holds every node with a nonzero interior
        # fraction, in the same order as the full node arrays
        src_pts, src_amp, src_comp = [], [], []
        for comp, (xs, ys, field) in enumerate(((xh, yi, mode.ex),
                                                (xi, yh, mode.ey))):
            idx, pts, frac = contrast_block(xs, ys, geometry, mode.grid.h)
            sel = frac > 0
            src_pts.append(pts[sel])
            src_amp.append(field[idx][sel] * frac[sel])
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
        far = ~near
        far_amp, far_comp = self._amp[far], self._comp[far]
        # near nodes: average the steep kernel over each dual patch, split
        # into n_sub x n_sub sub-points, with the node amplitude held fixed
        pts, amp, comp = self._pts[near], self._amp[near], self._comp[near]
        dist = np.hypot(*(pts - r).T)
        n_sub = np.clip(np.ceil(3.0 * h / np.maximum(dist, 0.25 * h)),
                        self.base_subdiv, self.max_subdiv).astype(int)
        groups = [(n, np.flatnonzero(n_sub == n)) for n in np.unique(n_sub)]
        # one kernel call: the far nodes, then each group's sub-points
        sources = [self._pts[far]]
        for n, take in groups:
            off = (np.arange(n) + 0.5) / n - 0.5
            sx, sy = np.meshgrid(off * h, off * h, indexing="ij")
            sub = pts[take, None, :] + np.stack([sx.ravel(), sy.ravel()],
                                                axis=-1)
            sources.append(sub.reshape(-1, 2))
        g = green_b_2d(r[None, :], np.concatenate(sources), omega, self.bg)
        total = np.zeros(2, dtype=complex)
        start = len(far_amp)
        if start:
            cols = g[np.arange(start), :, far_comp]
            total += (cols * far_amp[:, None]).sum(axis=0) * area
        patch = np.empty((len(pts), 2), dtype=complex)
        for n, take in groups:
            stop = start + len(take) * n * n
            gn = g[start:stop].reshape(len(take), n * n, 2, 2)
            cols = gn[np.arange(len(take)), :, :, comp[take]]
            patch[take] = cols.mean(axis=1) * amp[take, None] * area
            start = stop
        # added one node at a time in node order, as a running sum, so the
        # rounding does not depend on how the nodes were grouped
        total = np.cumsum(np.concatenate([total[None], patch]), axis=0)[-1]
        delta_eps = self.material.eps(omega) - self.bg.eps_b
        return delta_eps * total

    def eval(self, points, omega):
        """F(r, w) at one or more exterior points; shape (N, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        require_exterior(self.geometry, pts, "regularized-field point")
        out = np.empty((len(pts), 2), dtype=complex)
        memo = {}
        for i, r in enumerate(pts):
            key = (r[0], r[1], complex(omega))
            if key not in memo:
                memo[key] = self._cache[key] if key in self._cache \
                    else self._eval_one(r, omega)
            out[i] = memo[key]
        self._cache = memo
        return out


def green_back_1(geometry, material, bg: Background, omega, r1, r2):
    """First-order scattering correction by quadrature over the resonator,
    on cells of a twelfth of its smallest feature; cells within 12 cells of
    either point are subdivided up to 12 x 12."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    require_exterior(geometry, [r1, r2], "evaluation point")
    (bx0, bx1), (by0, by1) = geometry.bounding_box
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
    near = np.minimum(d1, d2) < 12.0 * max(hx, hy)
    far_cells = cells[~near]
    if len(far_cells):
        ga = green_b_2d(r1[None, :], far_cells, omega, bg)
        gb = green_b_2d(far_cells, r2[None, :], omega, bg)
        total += np.einsum("mij,mjk->ik", ga, gb) * area
    for c in cells[near]:
        dist = max(min(np.hypot(*(c - r1)), np.hypot(*(c - r2))), 0.25 * h)
        n_sub = int(np.clip(np.ceil(3.0 * h / dist), 2, 12))
        off = (np.arange(n_sub) + 0.5) / n_sub - 0.5
        sx, sy = np.meshgrid(off * hx, off * hy, indexing="ij")
        sub = c + np.stack([sx.ravel(), sy.ravel()], axis=-1)
        ga = green_b_2d(r1[None, :], sub, omega, bg)
        gb = green_b_2d(sub, r2[None, :], omega, bg)
        total += np.einsum("mij,mjk->ik", ga, gb) * (area / n_sub**2)
    return delta_eps * total
