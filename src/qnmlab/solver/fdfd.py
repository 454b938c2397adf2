"""2D frequency-domain Maxwell solver on a staggered Yee grid with PML.

Discretizes ``A(w) = curl curl - k0^2 eps(r, w)`` for the in-plane
polarization (unknowns E_x, E_y; the out-of-plane curl h_z = (curl E)_z is
carried as a derived quantity).  Stretched-coordinate PML absorbers emulate
open boundaries; the stretch factors are evaluated at the (possibly complex)
operating frequency.

Layout, for a grid of ``Nx x Ny`` cells of size ``h`` with origin (x0, y0);
the coordinates come from ``GridSpec.node_axes``, the one source of them:

    E_x nodes  at (x0 + (i+1/2) h, y0 + j h)        i in [0,Nx), j in [0,Ny]
    E_y nodes  at (x0 + i h,       y0 + (j+1/2) h)  i in [0,Nx], j in [0,Ny)
    h_z cells  at (x0 + (i+1/2) h, y0 + (j+1/2) h)  = cell centers

Tangential E vanishes on the outer boundary (PEC backstop behind the PML).
After row/column scaling by the stretch factors the assembled operator is
exactly complex-symmetric,

    A = B^T M B - K,

with ``B`` the stretched discrete curl (h_z = B E), ``M`` a diagonal weight
per h_z cell and ``K`` diagonal per E node.  An assembly touches the full
lattice only with O(N) array arithmetic: the interior fractions of ``K``
are probed on the node block round the resonator's bounding box (every
other node is pure background), and ``B`` is written row by row directly
in CSR order, four entries per h_z cell.  Linear systems are solved
through the exact Schur complement on the h_z unknowns,

    (B K^{-1} B^T - M^{-1}) y = B K^{-1} b,     x = K^{-1} (B^T y - b),

which is a scalar five-point system with half the unknowns and far lower LU
fill than the vector form; the solution is algebraically identical.
``solve`` factors it in complex128; ``sweep`` factors it in complex64 and
returns one unrefined pass, the approximate shift-inverse that the pole
search's residual inverse iteration needs, at half the factor's bytes.
Every driven solve goes through ``solve``, and every one is a
scattered-field solve (Taflove & Hagness, *Computational Electrodynamics*,
3rd ed., ch. 5): the total field is an analytic incident field plus the
scattered field ``E_s`` of

    A(w) E_s = (K - K_b) E_inc,

the grid form of the Dyson equation E = E_inc + Int G^B (eps - eps_b) E.
``K - K_b`` is nonzero only on the few hundred nodes that hold contrast, so
``scattered_rhs`` evaluates the incident field there and nowhere else.

A sample reads a point through the package's one bilinear rule
(``core._bilinear``) on the E_x (xh, yi) and E_y (xi, yh) node lattices
of ``GridSpec.node_axes``, each of the at most 8 straddling nodes read
from the solution vector through the parity fold that ``unpack`` applies
to whole arrays.  It never forms a dense weight vector: a dense dot is a
BLAS call, and where numpy and scipy each load their own BLAS it wakes
numpy's thread pool, which then spins beside SuperLU's own during the
next factorization.

Mirror-symmetry reduction: for fields with E_y even / E_x odd across x = 0
and/or y = 0 (the parity of a uniform E_y incident field), the operator
can be restricted to the first quadrant.  The restriction is the
exact Galerkin projection of the full symmetric operator, so eigenpairs and
driven solutions coincide with the full-grid ones.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.constants import c as C0

from ..core import (
    Background,
    ConvergenceError,
    DomainError,
    GridSpec,
    _bilinear,
    contrast_block,
)

_SPLU_OPTS = dict(SymmetricMode=True, DiagPivotThresh=0.01)

# PML grading: polynomial order of sigma(x) and the nominal normal-incidence
# reflection it is sized for
PML_ORDER = 3
PML_REFLECTION = 1e-8


def _pml_sigma_max(pml, h, n_b):
    t = pml.cells * h
    return -(PML_ORDER + 1) * C0 * np.log(PML_REFLECTION) / (2.0 * n_b * t)


def _stretch_profile(coords, lo, hi, pml_lo, pml_hi, pml, h, n_b, omega):
    """s(x) = 1 + i sigma(x)/omega with polynomial grading inside the PML."""
    sigma = np.zeros(len(coords))
    s_max = _pml_sigma_max(pml, h, n_b)
    t = pml.cells * h
    if pml_lo:
        d = (lo + t) - coords
        m = d > 0
        sigma[m] = s_max * (d[m] / t) ** PML_ORDER
    if pml_hi:
        d = coords - (hi - t)
        m = d > 0
        sigma[m] = s_max * (d[m] / t) ** PML_ORDER
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
        self._lu32 = None
        self._matrix = None
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
        if self.geometry is not None and self.symmetry:
            # the reduced operator solves the geometry plus its mirror images
            cx, cy = self.geometry.center
            if (self.mirror_x and not abs(cx) <= 1e-9 * h) or \
               (self.mirror_y and not abs(cy) <= 1e-9 * h):
                raise DomainError("mirror symmetry needs a geometry centered "
                                  "on the mirror plane")
        self.h = h
        self.nx = nx_full // 2 if self.mirror_x else nx_full
        self.ny = ny_full // 2 if self.mirror_y else ny_full
        self.rx0 = 0.0 if self.mirror_x else x0
        self.ry0 = 0.0 if self.mirror_y else y0
        nx, ny = self.nx, self.ny
        pml = grid.pml

        # reduced domains start at the mirror plane (origin): their nodes are
        # the x >= 0 (y >= 0) tail halves of the symmetric full lattice
        xi, xh, yi, yh = grid.node_axes()
        if self.mirror_x:
            xi, xh = xi[nx_full // 2:], xh[nx_full // 2:]
        if self.mirror_y:
            yi, yh = yi[ny_full // 2:], yh[ny_full // 2:]

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

        # permittivity sampled at each node's own position (staircasing); a
        # node exactly on the material boundary (tangential E there) is
        # weighted by its interior fraction, nonzero only in the block round
        # the resonator.  Delta K = K - K_b, the scattered-field source
        # weight, lives on those nodes only
        eps_b = self.bg.eps_b
        geometry = self.geometry
        d_eps = 0.0 if geometry is None \
            else self.material.eps(self.omega) - eps_b
        k0sq = (w / C0) ** 2
        iy0 = self._iy0()
        mult_c = (2 if self.mirror_x else 1) * (2 if self.mirror_y else 1)
        mult_ey = np.full(nx - iy0, mult_c, dtype=float)
        if self.mirror_x:
            mult_ey[0] = mult_c / 2  # E_y nodes on the mirror line
        # (unknown index, position, Delta K) of the nodes that hold contrast
        dk = [(np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0))]

        def eps_nodes(xs, ys, sx, sy, mult, offset):
            frac = np.zeros((len(xs), len(ys)))
            if geometry is not None:
                idx, pts, block = contrast_block(xs, ys, geometry, h)
                frac[idx] = block
                i, j = np.nonzero(block > 0)
                i0, j0 = idx[0].start, idx[1].start
                dk.append((offset + (i + i0) * len(ys) + j + j0, pts[i, j],
                           k0sq * (d_eps * block[i, j]) * sx[i + i0]
                           * sy[j + j0] * mult[i + i0]))
            return eps_b + d_eps * frac

        self.n_ex = nx * (ny - 1)
        self.n_ey = (nx - iy0) * ny
        self.n_e = self.n_ex + self.n_ey
        self.n_hz = nx * ny
        eps_x = eps_nodes(xh, yi[1:ny], sx_h, sy_i[1:ny],
                          np.full(nx, mult_c), 0)        # (nx, ny-1)
        eps_y = eps_nodes(xi[iy0:nx], yh, sx_i[iy0:nx], sy_h, mult_ey,
                          self.n_ex)                      # (nx - iy0, ny)
        self._dk_idx, self._dk_pts, self._dk = map(np.concatenate, zip(*dk))

        # K diagonal over E nodes (includes mirror multiplicities)
        kx = k0sq * eps_x * sx_h[:, None] * sy_i[None, 1:ny] * mult_c
        ky = (k0sq * eps_y * sx_i[iy0:nx, None] * sy_h[None, :]
              * mult_ey[:, None])
        self._kdiag = np.concatenate([kx.ravel(), ky.ravel()])

        # M diagonal over h_z cells
        self._mdiag = mult_c * np.outer(sx_h, sy_h).ravel()

        # B: stretched curl, h_z = B E, written straight in CSR order.  Row
        # c = i ny + j (one h_z cell) holds E_x(i, j), E_x(i, j+1), E_y(i, j)
        # and E_y(i+1, j), whose columns increase in that order; nodes on the
        # PEC wall are not unknowns and drop out
        ii = np.arange(nx)[:, None]
        jj = np.arange(ny)[None, :]
        inv_sxh = (1.0 / sx_h)[ii] / h
        inv_syh = (1.0 / sy_h)[jj] / h
        ex_c, ey_c = self._idx_ex(ii, jj), self._idx_ey(ii, jj)
        cols = np.stack(np.broadcast_arrays(ex_c, ex_c + 1, ey_c, ey_c + ny),
                        axis=-1)
        vals = np.stack(np.broadcast_arrays(inv_syh, -inv_syh, -inv_sxh,
                                            inv_sxh), axis=-1)
        present = (jj >= 1, jj + 1 <= ny - 1, ii >= iy0, ii + 1 <= nx - 1)
        keep = np.stack(np.broadcast_arrays(*present), axis=-1)
        indptr = np.concatenate([[0], np.cumsum(sum(present).ravel())])
        self._b = sp.csr_matrix((vals[keep], cols[keep], indptr),
                                shape=(self.n_hz, self.n_e))

    def _iy0(self):
        return 0 if self.mirror_x else 1

    def _idx_ex(self, i, j):
        return i * (self.ny - 1) + (j - 1)

    def _idx_ey(self, i, j):
        return self.n_ex + (i - self._iy0()) * self.ny + j

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

    def _schur_factor(self, dtype):
        """SuperLU factor of the h_z Schur complement, in ``dtype``."""
        binv = self._b.multiply((1.0 / self._kdiag)[None, :]).tocsr()
        schur = (binv @ self._b.T - sp.diags(1.0 / self._mdiag)).tocsc()
        schur = schur.astype(dtype, copy=False)
        try:
            return spla.splu(schur, permc_spec="MMD_AT_PLUS_A",
                             options=dict(_SPLU_OPTS))
        except RuntimeError as exc:
            raise ConvergenceError(f"sparse factorization failed: {exc}")

    def _through(self, lu, dtype, b):
        """``A^{-1} b`` by one pass through the Schur factor ``lu``."""
        y = lu.solve((self._b @ (b / self._kdiag)).astype(dtype, copy=False))
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("linear solve produced non-finite values")
        return (self._b.T @ y - b) / self._kdiag

    def solve(self, b):
        """Solve ``A x = b`` through the h_z Schur complement."""
        if self._lu is None:
            self._lu = self._schur_factor(np.complex128)
        return self._through(self._lu, np.complex128, b)

    def sweep(self, b):
        """An approximate ``A^{-1} b``: one pass through a complex64 factor
        of the same Schur complement, with no refinement.  Made for residual
        inverse iteration, whose fixed point ``A(w) x = 0`` is evaluated in
        double precision and so does not depend on how exactly the shift is
        inverted; half the bytes of the factor that :meth:`solve` makes,
        which every driven solve keeps."""
        if self._lu32 is None:
            self._lu32 = self._schur_factor(np.complex64)
        return self._through(self._lu32, np.complex64, b)

    # -- source and sampling --------------------------------------------------

    def sample(self, x, position, orientation):
        """n . E at a point from a solution vector ``x``, where a receiving
        dipole n would sit: the bilinear rule on each component's node
        lattice, with the at most 8 straddling nodes read through
        ``unpack``'s fold.  The point must lie in the interior box, where
        the PML scaling is unity; a point in the PML or past the grid
        raises ``DomainError``."""
        (bx0, bx1), (by0, by1) = self.grid.interior_box()
        if not (bx0 <= position[0] <= bx1 and by0 <= position[1] <= by1):
            raise DomainError("dipole must lie outside the PML region")
        xi, xh, yi, yh = self.grid.node_axes()
        nx, ny, iy0 = self.nx, self.ny, self._iy0()

        def nodes(is_ex):
            (ri, fi), (rj, fj) = self._folds(is_ex)

            def corners(i, j):
                a, b = ri[i], rj[j]
                # a node on the PEC wall holds no unknown and reads 0
                on = (b >= 1) & (b < ny) if is_ex else (a >= iy0) & (a < nx)
                at = (self._idx_ex if is_ex else self._idx_ey)(a, b)
                v = np.where(on, x[np.where(on, at, 0)], 0)
                return np.where(fi[i] ^ fj[j], -v, v) if is_ex else v
            return corners

        e_x = _bilinear(xh, yi, [position], nodes(True))
        e_y = _bilinear(xi, yh, [position], nodes(False))
        return (orientation[0] * e_x + orientation[1] * e_y)[0]

    def scattered_rhs(self, incident):
        """Right-hand side ``Delta K E_inc`` of the scattered-field solve
        ``A E_s = Delta K E_inc``, where ``Delta K = K - K_b`` is nonzero
        only on the nodes that hold contrast.  ``incident(points)`` returns
        the incident field (N, 2) at those nodes; each node takes its own
        component.  On a mirror-reduced grid the incident field must have
        the target parity (E_x odd, E_y even)."""
        e_inc = incident(self._dk_pts)
        comp = (self._dk_idx >= self.n_ex).astype(int)  # E_x nodes first
        b = np.zeros(self.n_e, dtype=complex)
        b[self._dk_idx] = self._dk * e_inc[np.arange(len(comp)), comp]
        return b

    # -- field containers ------------------------------------------------------

    def _folds(self, is_ex):
        """The full node lattice of E_x (``is_ex``) or E_y read on this
        domain: per axis, the index of each full-grid line among the
        domain's lines, and whether the line is a mirror image.  A mirrored
        domain keeps the cells past the mirror plane, and an image line
        sits as far from the plane on the other side."""
        folds = []
        for n, mirrored, half in ((self.nx, self.mirror_x, is_ex),
                                  (self.ny, self.mirror_y, not is_ex)):
            o = 0.5 if half else 0.0  # E_x lines are cell centres along x
            k = np.arange((2 * n if mirrored else n) + (not half)) + o \
                - (n if mirrored else 0)
            folds.append(((np.abs(k) - o).astype(int), k < 0))
        return folds

    def unpack(self, x):
        """Split a solution vector into full-grid node arrays (ex, ey).

        Arrays include the boundary zeros: ex has shape (Nx, Ny+1), ey has
        (Nx+1, Ny) on the full grid; mirrored halves are reconstructed with
        the parity signs, E_x odd and E_y even across each mirror plane.
        """
        nx, ny, iy0 = self.nx, self.ny, self._iy0()
        ex = np.zeros((nx, ny + 1), dtype=complex)
        ey = np.zeros((nx + 1, ny), dtype=complex)
        ex[:, 1:ny] = x[:self.n_ex].reshape(nx, ny - 1)
        ey[iy0:nx, :] = x[self.n_ex:].reshape(nx - iy0, ny)
        (i, fi), (j, fj) = self._folds(True)
        ex = ex[np.ix_(i, j)]
        np.negative(ex, out=ex, where=fi[:, None] ^ fj[None, :])
        (i, _), (j, _) = self._folds(False)
        return ex, ey[np.ix_(i, j)]


def assemble(grid: GridSpec, geometry, material, bg: Background, omega,
             symmetry=None) -> DiscreteOperator:
    """Build the discrete frequency-domain operator on ``grid``.

    ``omega`` may be complex; the material and the PML stretch factors are
    both evaluated at it.  ``geometry=None`` yields the homogeneous
    background operator.  ``symmetry`` in {"x", "y", "xy"} restricts to the
    corresponding mirror-reduced problem (E_y even / E_x odd parity).
    """
    return DiscreteOperator(grid, geometry, material, bg, omega, symmetry)


def curl_cells(ex, ey, h):
    """Discrete (curl E)_z on cell centers from node arrays."""
    return (ey[1:, :] - ey[:-1, :]) / h - (ex[:, 1:] - ex[:, :-1]) / h

