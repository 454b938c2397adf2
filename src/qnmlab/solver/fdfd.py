"""2D frequency-domain Maxwell solver on a staggered Yee grid with PML.

Discretizes ``curl curl E - k0^2 eps(r, w) E = k0^2 s`` for the in-plane
polarization (unknowns E_x, E_y; the out-of-plane curl h_z = (curl E)_z is
carried as a derived quantity).  Stretched-coordinate PML absorbers emulate
open boundaries; the stretch factors are evaluated at the (possibly complex)
operating frequency.

Layout, for a grid of ``Nx x Ny`` cells of size ``h`` with origin (x0, y0):

    E_x nodes  at (x0 + (i+1/2) h, y0 + j h)        i in [0,Nx), j in [0,Ny]
    E_y nodes  at (x0 + i h,       y0 + (j+1/2) h)  i in [0,Nx], j in [0,Ny)
    h_z cells  at (x0 + (i+1/2) h, y0 + (j+1/2) h)  = cell centers

Tangential E vanishes on the outer boundary (PEC backstop behind the PML).
After row/column scaling by the stretch factors the assembled operator is
exactly complex-symmetric,

    A = B^T M B - K,

with ``B`` the stretched discrete curl (h_z = B E), ``M`` a diagonal weight
per h_z cell and ``K`` diagonal per E node.  Linear systems are solved
through the exact Schur complement on the h_z unknowns,

    (B K^{-1} B^T - M^{-1}) y = B K^{-1} b,     x = K^{-1} (B^T y - b),

which is a scalar five-point system with half the unknowns and far lower LU
fill than the vector form; the solution is algebraically identical.

Mirror-symmetry reduction: for fields with E_y even / E_x odd across x = 0
and/or y = 0 (the parity of a y-oriented dipole source on the axis), the
operator can be restricted to the first quadrant.  The restriction is the
exact Galerkin projection of the full symmetric operator, so eigenpairs and
driven solutions coincide with the full-grid ones.
"""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.constants import c as C0

from ..core import (
    Background,
    ConvergenceError,
    DomainError,
    GridSpec,
    interior_fraction,
    lattice_coords,
)

_SPLU_OPTS = dict(SymmetricMode=True, DiagPivotThresh=0.01)


def _pml_sigma_max(pml, h, n_b):
    t = pml.cells * h
    return -(pml.order + 1) * C0 * np.log(pml.target_reflection) / (2.0 * n_b * t)


def _stretch_profile(coords, lo, hi, pml_lo, pml_hi, pml, h, n_b, omega):
    """s(x) = 1 + i sigma(x)/omega with polynomial grading inside the PML."""
    sigma = np.zeros(len(coords))
    s_max = _pml_sigma_max(pml, h, n_b)
    t = pml.cells * h
    if pml_lo:
        d = (lo + t) - coords
        m = d > 0
        sigma[m] = s_max * (d[m] / t) ** pml.order
    if pml_hi:
        d = coords - (hi - t)
        m = d > 0
        sigma[m] = s_max * (d[m] / t) ** pml.order
    return 1.0 + 1j * sigma / omega


class DiscreteOperator:
    """Assembled frequency-domain operator ``curl curl - k0^2 eps`` (scaled
    complex-symmetric form) plus everything needed to solve and sample it.

    Not constructed directly; use :func:`assemble`.
    """

    def __init__(self, grid, geometry, material, bg, omega, symmetry=None):
        self.grid = grid
        self.geometry = geometry
        self.material = material
        self.bg = bg
        self.omega = complex(omega)
        self.symmetry = symmetry or ""
        if not set(self.symmetry) <= {"x", "y"}:
            raise DomainError("symmetry must be '', 'x', 'y' or 'xy'")
        self._lu = None
        self._matrix = None
        self._bg_twin = None
        self._build()

    # -- geometry of the (possibly reduced) computational domain ------------

    def _build(self):
        grid = self.grid
        h = grid.h
        (x0, x1), (y0, y1) = grid.extent
        nx_full, ny_full = grid.n_cells
        self.mirror_x = "x" in self.symmetry
        self.mirror_y = "y" in self.symmetry
        for active, lo, hi, n in ((self.mirror_x, x0, x1, nx_full),
                                  (self.mirror_y, y0, y1, ny_full)):
            if active and (abs(lo + hi) > 1e-9 * h or n % 2):
                raise DomainError("mirror symmetry needs an extent symmetric "
                                  "about 0 with an even cell count")
        self.h = h
        self.nx = nx_full // 2 if self.mirror_x else nx_full
        self.ny = ny_full // 2 if self.mirror_y else ny_full
        self.rx0 = 0.0 if self.mirror_x else x0
        self.ry0 = 0.0 if self.mirror_y else y0
        nx, ny = self.nx, self.ny
        pml = grid.pml

        # reduced domains start at the mirror plane (origin); coordinates of
        # x >= 0 nodes then agree bit-for-bit with the symmetric full lattice
        xi = lattice_coords(self.rx0, x1, nx + 1, h, 0.0)  # integer x lines
        xh = lattice_coords(self.rx0, x1, nx, h, 0.5)      # half x lines
        yi = lattice_coords(self.ry0, y1, ny + 1, h, 0.0)
        yh = lattice_coords(self.ry0, y1, ny, h, 0.5)
        self._xi, self._xh, self._yi, self._yh = xi, xh, yi, yh

        n_b = self.bg.n_b
        w = self.omega
        sx_i = _stretch_profile(xi, self.rx0, x1, not self.mirror_x, True,
                                pml, h, n_b, w)
        sx_h = _stretch_profile(xh, self.rx0, x1, not self.mirror_x, True,
                                pml, h, n_b, w)
        sy_i = _stretch_profile(yi, self.ry0, y1, not self.mirror_y, True,
                                pml, h, n_b, w)
        sy_h = _stretch_profile(yh, self.ry0, y1, not self.mirror_y, True,
                                pml, h, n_b, w)

        # permittivity sampled at each node's own position (staircasing)
        eps_b = self.bg.eps_b
        if self.geometry is None:
            eps_mnp = eps_b
            inside = lambda pts: np.zeros(pts.shape[:-1], dtype=bool)
        else:
            eps_mnp = self.material.eps(self.omega)
            inside = self.geometry.inside

        def eps_nodes(xs, ys):
            # staircase at the node position; a node exactly on the material
            # boundary (tangential E there) is weighted by its interior
            # fraction
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
            frac = interior_fraction(inside, pts, h)
            return eps_b + (eps_mnp - eps_b) * frac

        eps_x = eps_nodes(xh, yi[1:ny])        # (nx, ny-1)
        eps_y = eps_nodes(xi[self._iy0():nx], yh)  # (nx - iy0, ny)

        k0sq = (w / C0) ** 2
        iy0 = self._iy0()
        self.n_ex = nx * (ny - 1)
        self.n_ey = (nx - iy0) * ny
        self.n_e = self.n_ex + self.n_ey
        self.n_hz = nx * ny

        mult_c = (2 if self.mirror_x else 1) * (2 if self.mirror_y else 1)

        # K diagonal over E nodes (includes mirror multiplicities)
        kx = k0sq * eps_x * sx_h[:, None] * sy_i[None, 1:ny] * mult_c
        mult_ey = np.full(nx - iy0, mult_c, dtype=float)
        if self.mirror_x:
            mult_ey[0] = mult_c / 2  # E_y nodes on the mirror line
        ky = (k0sq * eps_y * sx_i[iy0:nx, None] * sy_h[None, :]
              * mult_ey[:, None])
        self._kdiag = np.concatenate([kx.ravel(), ky.ravel()])

        # M diagonal over h_z cells
        self._mdiag = mult_c * np.outer(sx_h, sy_h).ravel()

        # B: stretched curl, h_z = B E
        rows, cols, vals = [], [], []
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        cell = (ii * ny + jj).ravel()
        ii = ii.ravel(); jj = jj.ravel()
        inv_sxh = (1.0 / sx_h)[ii] / h
        inv_syh = (1.0 / sy_h)[jj] / h

        def add(mask, col_idx, val):
            rows.append(cell[mask]); cols.append(col_idx); vals.append(val[mask])

        m = (ii + 1) <= nx - 1
        add(m, self._idx_ey(ii[m] + 1, jj[m]), inv_sxh)
        m = ii >= iy0
        add(m, self._idx_ey(ii[m], jj[m]), -inv_sxh)
        m = (jj + 1) <= ny - 1
        add(m, self._idx_ex(ii[m], jj[m] + 1), -inv_syh)
        m = jj >= 1
        add(m, self._idx_ex(ii[m], jj[m]), inv_syh)
        self._b = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_hz, self.n_e))

        self._warn_diagnostics()

    def _iy0(self):
        return 0 if self.mirror_x else 1

    def _idx_ex(self, i, j):
        return i * (self.ny - 1) + (j - 1)

    def _idx_ey(self, i, j):
        return self.n_ex + (i - self._iy0()) * self.ny + j

    def _warn_diagnostics(self):
        if self.geometry is None or not hasattr(self.geometry, "bounding_box"):
            return
        (bx0, bx1), (by0, by1) = self.geometry.bounding_box
        feature = min(bx1 - bx0, by1 - by0)
        if feature < 10 * self.h:
            warnings.warn(
                f"smallest geometric feature ({feature:.3g} m) is resolved by "
                f"fewer than 10 cells at h={self.h:.3g} m", stacklevel=3)
        lam0 = 2 * np.pi * C0 / abs(self.omega)
        (gx0, gx1), (gy0, gy1) = self.grid.extent
        margin = min(bx0 - gx0, gx1 - bx1, by0 - gy0, gy1 - by1)
        if margin < lam0:
            warnings.warn(
                f"margin between resonator and grid edge ({margin:.3g} m) is "
                f"below one free-space wavelength ({lam0:.3g} m)", stacklevel=3)

    # -- linear algebra ------------------------------------------------------

    @property
    def matrix(self):
        """The scaled complex-symmetric operator ``B^T M B - K`` (CSR)."""
        if self._matrix is None:
            bm = self._b.T.tocsr().multiply(self._mdiag[None, :]).tocsr()
            self._matrix = (bm @ self._b
                            - sp.diags(self._kdiag, format="csr")).tocsr()
        return self._matrix

    def apply(self, x):
        """Matrix-vector product ``A x`` without forming the matrix."""
        return self._b.T @ (self._mdiag * (self._b @ x)) - self._kdiag * x

    def _factorize(self):
        if self._lu is None:
            binv = self._b.multiply((1.0 / self._kdiag)[None, :]).tocsr()
            schur = (binv @ self._b.T
                     - sp.diags(1.0 / self._mdiag)).tocsc()
            try:
                self._lu = spla.splu(schur, permc_spec="MMD_AT_PLUS_A",
                                     options=dict(_SPLU_OPTS))
            except RuntimeError as exc:
                raise ConvergenceError(f"sparse factorization failed: {exc}")
        return self._lu

    def solve(self, b):
        """Solve ``A x = b`` through the h_z Schur complement."""
        lu = self._factorize()
        kinvb = b / self._kdiag
        y = lu.solve(self._b @ kinvb)
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("linear solve produced non-finite values")
        return (self._b.T @ y - b) / self._kdiag

    def background_twin(self):
        """Same operator with the permittivity contrast removed."""
        if self._bg_twin is None:
            self._bg_twin = DiscreteOperator(self.grid, None, None, self.bg,
                                             self.omega, self.symmetry)
        return self._bg_twin

    # -- sources and sampling -------------------------------------------------

    def _fold_node(self, i, j, comp):
        """Map full-lattice node indices into the reduced domain.

        The parity of the target fields is E_x odd / E_y even across both
        mirror planes.  Index arithmetic: an E_x node at x = (i+1/2) h maps
        to i' = -i-1, an E_y node at x = i h to i' = -i (and analogously in
        y with the roles of the half-offsets swapped).
        """
        sign = 1.0
        if self.mirror_x and i < 0:
            i = -i - 1 if comp == "ex" else -i
            if comp == "ex":
                sign = -sign
        if self.mirror_y and j < 0:
            j = -j if comp == "ex" else -j - 1
            if comp == "ex":
                sign = -sign
        return i, j, sign

    def _stencil(self, p, comp):
        """Bilinear stencil (indices, weights) of ``p`` on a node lattice;
        stencil nodes across a mirror plane fold back with parity signs."""
        ox, oy = (0.5, 0.0) if comp == "ex" else (0.0, 0.5)
        x, y = p
        u = (x - self.rx0) / self.h - ox
        v = (y - self.ry0) / self.h - oy
        i0, j0 = int(np.floor(u)), int(np.floor(v))
        wu, wv = u - i0, v - j0
        out = []
        for di, wi in ((0, 1 - wu), (1, wu)):
            for dj, wj in ((0, 1 - wv), (1, wv)):
                w = wi * wj
                if w == 0.0:
                    continue
                i, j, sign = self._fold_node(i0 + di, j0 + dj, comp)
                if comp == "ex" and 0 <= i < self.nx and 1 <= j <= self.ny - 1:
                    out.append((self._idx_ex(i, j), w * sign))
                elif comp == "ey" and self._iy0() <= i <= self.nx - 1 \
                        and 0 <= j < self.ny:
                    out.append((self._idx_ey(i, j), w * sign))
        return out

    def sampling_vector(self, position, orientation):
        """Sparse weights w such that ``w . x`` interpolates n . E at a point."""
        w = np.zeros(self.n_e)
        nx_, ny_ = orientation
        for comp, amp in (("ex", nx_), ("ey", ny_)):
            if amp == 0.0:
                continue
            for idx, wt in self._stencil(position, comp):
                w[idx] += amp * wt
        return w

    def dipole_rhs(self, dipole, allow_symmetrized=False):
        """Discrete delta source ``k0^2 delta(r - r_a) n_a`` (scaled form).

        The source must sit outside the PML, where the scaling is unity.  On
        a mirror-reduced grid an off-plane source folds onto itself plus its
        mirror images; that symmetrized pair is a different physical source,
        so it is rejected unless ``allow_symmetrized`` is set (pole searches
        only need *a* source that couples to the target parity).
        """
        (ix0, ix1), (iy0_, iy1) = self.grid.interior_box()
        x, y = dipole.position
        if not (ix0 <= x <= ix1 and iy0_ <= y <= iy1):
            raise DomainError("dipole must lie outside the PML region")
        if not allow_symmetrized:
            if (self.mirror_x and abs(x) > 1e-9 * self.h) or \
               (self.mirror_y and abs(y) > 1e-9 * self.h):
                raise DomainError(
                    "with mirror symmetry the source must lie on the mirror "
                    "plane (pass allow_symmetrized=True to fold it)")
        k0sq = (self.omega / C0) ** 2
        return self.sampling_vector(dipole.position, dipole.orientation) \
            * k0sq / self.h**2

    # -- field containers ------------------------------------------------------

    def unpack(self, x):
        """Split a solution vector into full-grid node arrays (ex, ey).

        Arrays include the boundary zeros: ex has shape (Nx, Ny+1), ey has
        (Nx+1, Ny) on the full grid; mirrored halves are reconstructed with
        the parity signs.
        """
        nx, ny, iy0 = self.nx, self.ny, self._iy0()
        ex = np.zeros((nx, ny + 1), dtype=complex)
        ey = np.zeros((nx + 1, ny), dtype=complex)
        ex[:, 1:ny] = x[:self.n_ex].reshape(nx, ny - 1)
        ey[iy0:nx, :] = x[self.n_ex:].reshape(nx - iy0, ny)
        if self.mirror_x:
            # E_x odd in x, E_y even (wall column shared)
            ex = np.concatenate([-ex[::-1, :], ex], axis=0)
            ey = np.concatenate([ey[:0:-1, :], ey], axis=0)
        if self.mirror_y:
            # E_x odd in y (wall row shared as zeros), E_y even
            ex = np.concatenate([-ex[:, :0:-1], ex], axis=1)
            ey = np.concatenate([ey[:, ::-1], ey], axis=1)
        return ex, ey


def assemble(grid: GridSpec, geometry, material, bg: Background, omega,
             symmetry=None) -> DiscreteOperator:
    """Build the discrete frequency-domain operator on ``grid``.

    ``omega`` may be complex; the material and the PML stretch factors are
    both evaluated at it.  ``geometry=None`` yields the homogeneous
    background operator.  ``symmetry`` in {"x", "y", "xy"} restricts to the
    corresponding mirror-reduced problem (E_y even / E_x odd parity).
    """
    return DiscreteOperator(grid, geometry, material, bg, omega, symmetry)


def colocate(ex, ey):
    """Average node arrays onto cell centers; returns (Ex_c, Ey_c)."""
    return 0.5 * (ex[:, :-1] + ex[:, 1:]), 0.5 * (ey[:-1, :] + ey[1:, :])


def curl_cells(ex, ey, h):
    """Discrete (curl E)_z on cell centers from node arrays."""
    return (ey[1:, :] - ey[:-1, :]) / h - (ex[:, 1:] - ex[:, :-1]) / h


def bilinear_sample(xc, yc, field, points):
    """Bilinear interpolation of a cell-centered field at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    hx = xc[1] - xc[0]
    hy = yc[1] - yc[0]
    u = (points[:, 0] - xc[0]) / hx
    v = (points[:, 1] - yc[0]) / hy
    i0 = np.clip(np.floor(u).astype(int), 0, len(xc) - 2)
    j0 = np.clip(np.floor(v).astype(int), 0, len(yc) - 2)
    wu = u - i0
    wv = v - j0
    return (field[i0, j0] * (1 - wu) * (1 - wv)
            + field[i0 + 1, j0] * wu * (1 - wv)
            + field[i0, j0 + 1] * (1 - wu) * wv
            + field[i0 + 1, j0 + 1] * wu * wv)


class DipoleSolution:
    """Numerical Green-function column ``G(., r_a; w) . n_a`` on the grid.

    ``ex/ey`` hold the total field of the discrete delta source; the
    scattered part (total minus an identical solve with the contrast removed)
    is the smooth quantity used for emission rates, and the analytic
    background dyadic supplies the singular part wherever the total Green
    function is needed.
    """

    def __init__(self, operator, dipole):
        if operator.geometry is not None and operator.geometry.inside(
                np.asarray(dipole.position)):
            raise DomainError("dipole position lies inside the resonator")
        self.operator = operator
        self.dipole = dipole
        self.omega = operator.omega.real
        b = operator.dipole_rhs(dipole)
        x_tot = operator.solve(b)
        x_bg = operator.background_twin().solve(b)
        self.ex, self.ey = operator.unpack(x_tot)
        ex_b, ey_b = operator.unpack(x_bg)
        self.ex_scat = self.ex - ex_b
        self.ey_scat = self.ey - ey_b
        self._w_self = operator.sampling_vector(dipole.position,
                                                dipole.orientation)
        self._g_self_scat = self._w_self @ (x_tot - x_bg)
        cx, cy = operator.grid.cell_centers()
        self._cx, self._cy = cx, cy
        self._col_scat = colocate(self.ex_scat, self.ey_scat)
        self._col_tot = colocate(self.ex, self.ey)

    @property
    def grid(self):
        return self.operator.grid

    def self_scattered_green(self) -> complex:
        """n_a . G_scat(r_a, r_a; w) . n_a at the source point."""
        return self._g_self_scat

    def scattered_field_at(self, points):
        """Scattered Green column (N, 2) sampled at arbitrary grid points."""
        ex = bilinear_sample(self._cx, self._cy, self._col_scat[0], points)
        ey = bilinear_sample(self._cx, self._cy, self._col_scat[1], points)
        return np.stack([ex, ey], axis=-1)

    def total_field_at(self, points):
        ex = bilinear_sample(self._cx, self._cy, self._col_tot[0], points)
        ey = bilinear_sample(self._cx, self._cy, self._col_tot[1], points)
        return np.stack([ex, ey], axis=-1)


def solve_dipole(operator: DiscreteOperator, dipole) -> DipoleSolution:
    """Full-wave dipole solve: the numerical Green-function oracle."""
    return DipoleSolution(operator, dipole)


# -- contours, fluxes, near-to-far transform ---------------------------------


def _contour_nodes(xc, yc, rect):
    """Cell-center sample points, outward normals and arc weights of a
    rectangle (snapped to cell-center lines)."""
    (rx0, rx1), (ry0, ry1) = rect
    ix0 = int(np.argmin(np.abs(xc - rx0)))
    ix1 = int(np.argmin(np.abs(xc - rx1)))
    jy0 = int(np.argmin(np.abs(yc - ry0)))
    jy1 = int(np.argmin(np.abs(yc - ry1)))
    pts, nrm, take = [], [], []
    ii = np.arange(ix0, ix1 + 1)
    jj = np.arange(jy0 + 1, jy1)
    # bottom and top rows
    for j, ny_ in ((jy0, -1.0), (jy1, 1.0)):
        pts.append(np.stack([xc[ii], np.full(ii.shape, yc[j])], axis=-1))
        nrm.append(np.tile([0.0, ny_], (len(ii), 1)))
        take.append((ii, np.full(ii.shape, j)))
    # left and right columns (corners excluded, they belong to the rows)
    for i, nx_ in ((ix0, -1.0), (ix1, 1.0)):
        pts.append(np.stack([np.full(jj.shape, xc[i]), yc[jj]], axis=-1))
        nrm.append(np.tile([nx_, 0.0], (len(jj), 1)))
        take.append((np.full(jj.shape, i), jj))
    idx = (np.concatenate([t[0] for t in take]),
           np.concatenate([t[1] for t in take]))
    return np.concatenate(pts), np.concatenate(nrm), idx


def poynting_flux(solution_fields, grid, rect, omega):
    """Outward electromagnetic power flux through a rectangle, divided by
    mu0 omega (the common factor cancels in cross-section ratios).

    ``solution_fields = (ex, ey)`` node arrays of the field whose flux is
    wanted.  Uses S = Re(E x H*)/2 with H_z = (curl E)_z / (i mu0 omega).
    """
    ex, ey = solution_fields
    xc, yc = grid.cell_centers()
    exc, eyc = colocate(ex, ey)
    hz = curl_cells(ex, ey, grid.h)
    pts, nrm, (io, jo) = _contour_nodes(xc, yc, rect)
    sx = -0.5 * np.imag(eyc[io, jo] * np.conj(hz[io, jo]))
    sy = +0.5 * np.imag(exc[io, jo] * np.conj(hz[io, jo]))
    return np.sum((sx * nrm[:, 0] + sy * nrm[:, 1])) * grid.h


class NearToFar:
    """Evaluate the scattered field anywhere outside a contour from its
    near-field samples (2D surface-equivalence on the out-of-plane curl).

    For points outside the rectangle ``rect`` the scalar field
    ``hz = (curl E_scat)_z`` obeys the homogeneous Helmholtz equation, so

        hz(r) = Int_C [ hz(r') dg/dn' - g(r') dhz/dn' ] dl'

    with ``g = (i/4) H0(k|r - r'|)`` and ``dhz/dn' = -k^2 (n' x E)_z``;
    the electric field follows from E = (1/k^2) curl(hz z-hat), applied
    analytically to the kernel.
    """

    def __init__(self, fields, grid, bg, omega, rect):
        from scipy.special import hankel1  # local: keeps module import light
        self._hankel1 = hankel1
        ex, ey = fields
        xc, yc = grid.cell_centers()
        exc, eyc = colocate(ex, ey)
        hz = curl_cells(ex, ey, grid.h)
        pts, nrm, (io, jo) = _contour_nodes(xc, yc, rect)
        self.pts = pts
        self.nrm = nrm
        self.h = grid.h
        self.k = bg.wavenumber(omega)
        self.hz = hz[io, jo]
        # dhz/dn = -k^2 (n x E)_z = -k^2 (nx Ey - ny Ex)
        self.dhz = -self.k**2 * (nrm[:, 0] * eyc[io, jo]
                                 - nrm[:, 1] * exc[io, jo])
        self.rect = rect

    def scattered_field_at(self, points):
        """E_scat at points strictly outside the contour, shape (N, 2)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = self.k
        h1 = self._hankel1
        d = points[:, None, :] - self.pts[None, :, :]   # (N, M, 2)
        R = np.sqrt(np.sum(d**2, axis=-1))
        if np.any(R < 2 * self.h):
            raise DomainError("far evaluation point touches the contour")
        u = d / R[..., None]
        z = k * R
        h0 = h1(0, z)
        h1v = h1(1, z)
        nd = np.sum(u * self.nrm[None, :, :], axis=-1)    # u . n'
        # grad_r g = -(ik/4) H1 u ;  dg/dn' = +(ik/4) H1 (u . n')
        # grad_r (dg/dn') = (ik/4) [ k H1' u (u.n') + H1 (n' - u (u.n'))/R ]
        h1p = h0 - h1v / z
        grad_dgdn = (0.25j * k) * (k * h1p[..., None] * u * nd[..., None]
                                   + h1v[..., None]
                                   * (self.nrm[None, :, :] - u * nd[..., None])
                                   / R[..., None])
        grad_g = -(0.25j * k) * h1v[..., None] * u
        # grad_r hz(r) = Int [ hz grad(dg/dn') - grad(g) dhz/dn' ] dl
        grad_hz = self.h * np.sum(
            self.hz[None, :, None] * grad_dgdn
            - grad_g * self.dhz[None, :, None], axis=1)
        # E = (1/k^2) (d hz/dy, -d hz/dx)
        return np.stack([grad_hz[:, 1], -grad_hz[:, 0]], axis=-1) / k**2


# -- plane-wave scattering (for the analytic cylinder oracle) -----------------


class PlaneWaveSolution:
    """Scattered-field solve for a unit plane wave incident along +x with E
    polarized along y, used to validate the solver against the analytic
    cylinder series."""

    def __init__(self, operator):
        if operator.symmetry:
            raise DomainError("plane-wave solve uses the full grid")
        op = operator
        self.operator = op
        k = op.bg.wavenumber(op.omega)
        self.k = k
        # contrast source k0^2 (eps - eps_b) E_inc on the resonator nodes
        b = np.zeros(op.n_e, dtype=complex)
        k0sq = (op.omega / C0) ** 2
        eps_c = op.material.eps(op.omega) - op.bg.eps_b
        xi, xh = op._xi, op._xh
        yi, yh = op._yi, op._yh
        pts_y = np.stack(np.meshgrid(xi[1:op.nx], yh, indexing="ij"), axis=-1)
        mask_y = op.geometry.inside(pts_y)
        einc_y = np.exp(1j * k * pts_y[..., 0])
        by = np.where(mask_y, k0sq * eps_c * einc_y, 0.0)
        b[op.n_ex:] = by.ravel()
        # E_inc has no x component for this polarization; E_x rows stay zero
        x = op.solve(b)
        self.ex_scat, self.ey_scat = op.unpack(x)

    def cross_sections(self, rect):
        """(C_ext, C_sca, C_abs): scattering from the scattered-field flux
        through ``rect``, absorption from the Ohmic volume integral
        ``(w Im eps / c n_b) Int |E_tot|^2 dA`` (no large-term cancellation),
        extinction as their sum."""
        op = self.operator
        grid = op.grid
        k = self.k.real
        omega = op.omega.real
        p_sca = poynting_flux((self.ex_scat, self.ey_scat), grid, rect,
                              op.omega)
        # with the mu0*omega convention of poynting_flux, the unit incident
        # plane wave carries flux density k/2
        c_sca = p_sca / (0.5 * k)
        exc, eyc = colocate(self.ex_scat, self.ey_scat)
        xc, yc = grid.cell_centers()
        pts = np.stack(np.meshgrid(xc, yc, indexing="ij"), axis=-1)
        mask = op.geometry.inside(pts)
        einc = np.exp(1j * k * pts[..., 0])
        e2 = np.abs(exc) ** 2 + np.abs(eyc + einc) ** 2
        im_eps = float(np.imag(op.material.eps(omega)))
        c_abs = (omega * im_eps / (C0 * op.bg.n_b)) \
            * float(np.sum(e2[mask])) * grid.h**2
        return c_sca + c_abs, c_sca, c_abs
