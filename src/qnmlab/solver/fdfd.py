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

Mirror-symmetry reduction: on a grid and geometry mirror-symmetric about
x = 0 and/or y = 0 (:func:`mirror_symmetry`), every field splits into
parity classes (:func:`parity_classes`), one per choice of E_y even or
odd across each plane, with E_x of the opposite parity.  Each class is
solved on the half (quarter) grid past the planes: a component even
across a plane keeps its nodes on the plane at half multiplicity, an odd
one vanishes there as on a PEC wall.  The restriction is the exact
Galerkin projection of the full symmetric operator onto the class, so its
eigenpairs are the full grid's of that parity, and the driven solves of a
field's shares in all classes sum to the full-grid solve.  The default
class, E_y even and E_x odd, is that of a uniform E_y incident field and
of the fundamental plasmon of a centred rod.
"""

import itertools

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
# SuperLU's supernode relaxation and panel width for the double factors
# of the driven solves.  Its defaults (10 and 20) suit wider supernodes
# than a five-point Schur complement has: on the paper rod's oracle grids
# these give the same fill 15-30 % faster.  The pole search's single
# factor keeps the defaults, so its iterates keep their last bits
_SPLU_DRIVEN = dict(relax=2, panel_size=4)

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


def _mirror_fault(grid, geometry, axis):
    """Why ``grid`` and ``geometry`` lack the mirror plane through 0 normal
    to ``axis`` (0: x = 0, 1: y = 0), or None when both have it."""
    lo, hi = grid.extent[axis]
    if abs(lo + hi) > 1e-9 * grid.h or grid.n_cells[axis] % 2:
        return ("mirror symmetry needs an extent symmetric about 0 with an "
                "even cell count")
    if geometry is not None \
            and not abs(geometry.center[axis]) <= 1e-9 * grid.h:
        # the reduced operator solves the geometry plus its mirror images
        return "mirror symmetry needs a geometry centered on the mirror plane"
    return None


def mirror_symmetry(grid, geometry) -> str:
    """The ``symmetry`` of every mirror plane that ``grid`` and ``geometry``
    share: "x" for x = 0, "y" for y = 0, so one of "", "x", "y", "xy"."""
    return "".join(axis for i, axis in enumerate("xy")
                   if _mirror_fault(grid, geometry, i) is None)


def parity_classes(symmetry):
    """Every ``parity`` of ``symmetry``: E_y even (+1) or odd (-1) across
    each of its mirror planes, (+1, +1) first.  One class without a plane."""
    return list(itertools.product(*((1, -1) if axis in symmetry else (1,)
                                    for axis in "xy")))


class DiscreteOperator:
    """Assembled frequency-domain operator ``curl curl - k0^2 eps`` (scaled
    complex-symmetric form) plus everything needed to solve and sample it.

    Not constructed directly; use :func:`assemble`.
    """

    def __init__(self, grid, geometry, material, bg, omega, symmetry=None,
                 parity=(1, 1)):
        self.grid = grid
        self.geometry = geometry
        self.material = material
        self.bg = bg
        self.omega = complex(omega)
        self.symmetry = symmetry or ""
        if not set(self.symmetry) <= {"x", "y"}:
            raise DomainError("symmetry must be '', 'x', 'y' or 'xy'")
        self.parity = tuple(parity)
        if len(self.parity) != 2 or not set(self.parity) <= {1, -1}:
            raise DomainError("parity must be a pair of +1 and -1 values")
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
        for axis, active in enumerate((self.mirror_x, self.mirror_y)):
            fault = active and _mirror_fault(grid, self.geometry, axis)
            if fault:
                raise DomainError(fault)
        self.h = h
        self.nx = nx_full // 2 if self.mirror_x else nx_full
        self.ny = ny_full // 2 if self.mirror_y else ny_full
        self.rx0 = 0.0 if self.mirror_x else x0
        self.ry0 = 0.0 if self.mirror_y else y0
        nx, ny = self.nx, self.ny
        pml = grid.pml
        # E_y nodes sit on x = 0 and E_x nodes on y = 0.  A component even
        # across its mirror plane keeps its nodes there, at half the
        # multiplicity; an odd one vanishes there, as on the PEC wall that
        # bounds an unmirrored side.  E_x has the opposite parity to E_y
        px, py = self.parity
        self._iy0 = 0 if self.mirror_x and px > 0 else 1  # first E_y line
        self._jx0 = 0 if self.mirror_y and py < 0 else 1  # first E_x line
        iy0, jx0 = self._iy0, self._jx0

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

        def mult(n, mirrored, plane):
            # a node's copies in the full lattice along one axis: itself and
            # its image across a mirror plane, or itself alone on the plane
            m = np.full(n, 2.0 if mirrored else 1.0)
            if plane:
                m[0] = 1.0
            return m

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
        # (unknown index, position, Delta K) of the nodes that hold contrast
        dk = [(np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0))]

        def k_nodes(xs, ys, sx, sy, mx, my, offset):
            """K on one component's node lattice (xs, ys), mirror
            multiplicities included."""
            frac = np.zeros((len(xs), len(ys)))
            if geometry is not None:
                idx, pts, block = contrast_block(xs, ys, geometry, h)
                frac[idx] = block
                i, j = np.nonzero(block > 0)
                i0, j0 = idx[0].start, idx[1].start
                dk.append((offset + (i + i0) * len(ys) + j + j0, pts[i, j],
                           k0sq * (d_eps * block[i, j]) * sx[i + i0]
                           * sy[j + j0] * mx[i + i0] * my[j + j0]))
            eps = eps_b + d_eps * frac
            return (k0sq * eps * sx[:, None] * sy[None, :] * mx[:, None]
                    * my[None, :]).ravel()

        self.n_ex = nx * (ny - jx0)
        self.n_ey = (nx - iy0) * ny
        self.n_e = self.n_ex + self.n_ey
        self.n_hz = nx * ny
        self._kdiag = np.concatenate([
            k_nodes(xh, yi[jx0:ny], sx_h, sy_i[jx0:ny],
                    mult(nx, self.mirror_x, False),
                    mult(ny - jx0, self.mirror_y, jx0 == 0), 0),
            k_nodes(xi[iy0:nx], yh, sx_i[iy0:nx], sy_h,
                    mult(nx - iy0, self.mirror_x, iy0 == 0),
                    mult(ny, self.mirror_y, False), self.n_ex)])
        self._dk_idx, self._dk_pts, self._dk = map(np.concatenate, zip(*dk))

        # M diagonal over h_z cells
        mult_c = (2 if self.mirror_x else 1) * (2 if self.mirror_y else 1)
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
        present = (jj >= jx0, jj + 1 <= ny - 1, ii >= iy0, ii + 1 <= nx - 1)
        keep = np.stack(np.broadcast_arrays(*present), axis=-1)
        indptr = np.concatenate([[0], np.cumsum(sum(present).ravel())])
        self._b = sp.csr_matrix((vals[keep], cols[keep], indptr),
                                shape=(self.n_hz, self.n_e))

    def _idx_ex(self, i, j):
        return i * (self.ny - self._jx0) + (j - self._jx0)

    def _idx_ey(self, i, j):
        return self.n_ex + (i - self._iy0) * self.ny + j

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
                             options=dict(_SPLU_OPTS),
                             **(_SPLU_DRIVEN if dtype == np.complex128
                                else {}))
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
        nx, ny, iy0, jx0 = self.nx, self.ny, self._iy0, self._jx0

        def nodes(is_ex):
            (ri, fi), (rj, fj) = self._folds(is_ex)

            def corners(i, j):
                a, b = ri[i], rj[j]
                # a node on the PEC wall, or where its component is odd
                # across a mirror plane, holds no unknown and reads 0
                on = (b >= jx0) & (b < ny) if is_ex else (a >= iy0) & (a < nx)
                at = (self._idx_ex if is_ex else self._idx_ey)(a, b)
                v = np.where(on, x[np.where(on, at, 0)], 0)
                return np.where(fi[i] ^ fj[j], -v, v)
            return corners

        e_x = _bilinear(xh, yi, [position], nodes(True))
        e_y = _bilinear(xi, yh, [position], nodes(False))
        return (orientation[0] * e_x + orientation[1] * e_y)[0]

    def scattered_rhs(self, incident):
        """Right-hand side ``Delta K E_inc`` of the scattered-field solve
        ``A E_s = Delta K E_inc``, where ``Delta K = K - K_b`` is nonzero
        only on the nodes that hold contrast.  ``incident(points)`` returns
        the incident field (N, 2) at given points; each node takes its own
        component.  A mirror-reduced operator solves the share of the
        incident field in its parity class: at each node, the mean of the
        field over the node's mirror images, each image's component signed
        by that component's parity across the planes it crosses.  The
        shares of all :func:`parity_classes` sum to the field, so their
        solutions sum to the unreduced solve; a field of the class is its
        own share."""
        pts = self._dk_pts
        images = list(itertools.product(
            *((1.0, -1.0) if m else (1.0,)
              for m in (self.mirror_x, self.mirror_y))))
        px, py = self.parity
        e_inc = 0.0
        for fx, fy in images:
            # E_y's sign on the image; E_x has the opposite parity on each
            # plane the image crosses
            s_y = (px if fx < 0 else 1) * (py if fy < 0 else 1)
            e_inc = e_inc + incident(pts * (fx, fy)) * (s_y * fx * fy, s_y)
        e_inc = e_inc / len(images)
        comp = (self._dk_idx >= self.n_ex).astype(int)  # E_x nodes first
        b = np.zeros(self.n_e, dtype=complex)
        b[self._dk_idx] = self._dk * e_inc[np.arange(len(comp)), comp]
        return b

    # -- field containers ------------------------------------------------------

    def _folds(self, is_ex):
        """The full node lattice of E_x (``is_ex``) or E_y read on this
        domain: per axis, the index of each full-grid line among the
        domain's lines, and whether the component changes sign there.  A
        mirrored domain keeps the cells past the mirror plane; an image
        line sits as far from the plane on the other side and carries the
        component times its parity across the plane."""
        folds = []
        for n, mirrored, half, p in (
                (self.nx, self.mirror_x, is_ex, self.parity[0]),
                (self.ny, self.mirror_y, not is_ex, self.parity[1])):
            o = 0.5 if half else 0.0  # E_x lines are cell centres along x
            k = np.arange((2 * n if mirrored else n) + (not half)) + o \
                - (n if mirrored else 0)
            odd = (p > 0) == is_ex  # E_y's parity is p, E_x's is -p
            folds.append(((np.abs(k) - o).astype(int), (k < 0) & odd))
        return folds

    def unpack(self, x):
        """Split a solution vector into full-grid node arrays (ex, ey).

        Arrays include the boundary zeros: ex has shape (Nx, Ny+1), ey has
        (Nx+1, Ny) on the full grid; mirrored halves are reconstructed with
        the signs of the operator's ``parity`` class (E_y's parity across
        each plane, E_x's the opposite).
        """
        nx, ny, iy0, jx0 = self.nx, self.ny, self._iy0, self._jx0
        ex = np.zeros((nx, ny + 1), dtype=complex)
        ey = np.zeros((nx + 1, ny), dtype=complex)
        ex[:, jx0:ny] = x[:self.n_ex].reshape(nx, ny - jx0)
        ey[iy0:nx, :] = x[self.n_ex:].reshape(nx - iy0, ny)
        full = []
        for a, is_ex in ((ex, True), (ey, False)):
            (i, fi), (j, fj) = self._folds(is_ex)
            a = a[np.ix_(i, j)]
            np.negative(a, out=a, where=fi[:, None] ^ fj[None, :])
            full.append(a)
        return tuple(full)


def assemble(grid: GridSpec, geometry, material, bg: Background, omega,
             symmetry=None, parity=(1, 1)) -> DiscreteOperator:
    """Build the discrete frequency-domain operator on ``grid``.

    ``omega`` may be complex; the material and the PML stretch factors are
    both evaluated at it.  ``geometry=None`` yields the homogeneous
    background operator.  ``symmetry`` in {"x", "y", "xy"} restricts to the
    mirror-reduced problem of one parity class: ``parity`` is E_y's parity
    (+1 even, -1 odd) across x = 0 and across y = 0, and E_x has the
    opposite one.  The default, E_y even and E_x odd, is the class of a
    uniform E_y field and of the fundamental plasmon.
    """
    return DiscreteOperator(grid, geometry, material, bg, omega, symmetry,
                            parity)


def curl_cells(ex, ey, h):
    """Discrete (curl E)_z on cell centers from node arrays."""
    return (ey[1:, :] - ey[:-1, :]) / h - (ex[:, 1:] - ex[:, :-1]) / h

