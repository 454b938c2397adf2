"""Shared domain types: materials, geometry, grids, complex frequencies.

Conventions used throughout the package:

* SI units internally (meters, rad/s).  Helpers for nm/THz conversion live
  at the interface layers (CLI, demos), never inside the physics.
* Time dependence ``exp(-i omega t)``; complex resonance frequencies are
  written ``omega_tilde = omega - i*gamma`` with ``gamma > 0`` for a
  decaying resonance, so ``Im(omega_tilde) < 0``.
* All types here are immutable after construction and safe to share across
  threads; the module-level operations are pure functions.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.constants import c as C0


class QnmError(Exception):
    """Base class for errors raised by this package."""


class DomainError(QnmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(QnmError, RuntimeError):
    """An iterative or series computation failed to converge."""


class PoleSearchError(ConvergenceError):
    """The complex-frequency pole search failed."""


# ---------------------------------------------------------------------------
# complex resonance frequency


@dataclass(frozen=True)
class ComplexFrequency:
    """Complex resonance frequency ``omega_tilde = omega - i*gamma`` (rad/s).

    ``omega`` is the oscillation frequency (real part), ``gamma`` the field
    decay rate (half width).  Both must be positive, which keeps the quality
    factor ``Q = omega / (2 gamma)`` finite and positive.
    """

    omega: float
    gamma: float

    def __post_init__(self):
        if not (self.omega > 0):
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not (self.gamma > 0):
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    @classmethod
    def from_omega_tilde(cls, omega_tilde):
        """Build from a complex value with ``Im < 0``."""
        return cls(float(np.real(omega_tilde)), float(-np.imag(omega_tilde)))

    @property
    def omega_tilde(self) -> complex:
        return self.omega - 1j * self.gamma

    @property
    def quality_factor(self) -> float:
        return self.omega / (2.0 * self.gamma)


# ---------------------------------------------------------------------------
# materials


@dataclass(frozen=True)
class DrudeModel:
    """Free-electron metal permittivity ``eps(w) = 1 - wp^2 / (w (w + i gd))``.

    Parameters
    ----------
    omega_p : plasma frequency (rad/s)
    gamma_d : collision rate (rad/s)
    """

    omega_p: float
    gamma_d: float

    def __post_init__(self):
        if self.omega_p < 0 or self.gamma_d < 0:
            raise DomainError("omega_p and gamma_d must be non-negative")

    def eps(self, omega):
        omega = np.asarray(omega, dtype=complex)
        if np.any(omega == 0):
            raise DomainError("Drude permittivity is singular at omega = 0")
        out = 1.0 - self.omega_p**2 / (omega * (omega + 1j * self.gamma_d))
        return out[()] if out.ndim == 0 else out

    def sigma(self, omega):
        # (1/2w) d(eps w^2)/dw, analytic form
        omega = np.asarray(omega, dtype=complex)
        if np.any(omega == 0):
            raise DomainError("dispersion factor is singular at omega = 0")
        out = 1.0 - 1j * self.gamma_d * self.omega_p**2 / (
            2.0 * omega * (omega + 1j * self.gamma_d) ** 2
        )
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class ConstantMaterial:
    """Dispersionless material with fixed complex relative permittivity."""

    eps_const: complex

    def eps(self, omega):
        omega = np.asarray(omega, dtype=complex)
        if np.any(omega == 0):
            raise DomainError("permittivity evaluation requires omega != 0")
        out = np.full_like(omega, complex(self.eps_const))
        return out[()] if out.ndim == 0 else out

    def sigma(self, omega):
        # eps w^2 differentiates to 2 eps w
        return self.eps(omega)


@dataclass(frozen=True)
class Background:
    """Homogeneous, lossless background with refractive index ``n_b``."""

    n_b: float

    def __post_init__(self):
        if not (self.n_b > 0):
            raise DomainError(f"background index must be positive, got {self.n_b}")

    @property
    def eps_b(self) -> float:
        return self.n_b**2

    def wavenumber(self, omega):
        """In-medium wavenumber ``k = n_b omega / c``."""
        return self.n_b * omega / C0


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class SurfacePlane:
    """Oriented plane (line in 2D): a point on it plus the outward normal.

    The normal points away from the material, into the background where the
    emitters sit.
    """

    point: tuple
    normal: tuple

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if not np.isfinite(n).all() or np.linalg.norm(n) == 0:
            raise DomainError("surface normal must be a nonzero finite vector")
        object.__setattr__(self, "normal", tuple(n / np.linalg.norm(n)))
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))

    def signed_distance(self, r):
        """Positive on the background side."""
        r = np.asarray(r, dtype=float)
        n = np.asarray(self.normal)
        p = np.asarray(self.point)
        return (r - p) @ n

    def mirror(self, r):
        """Mirror image of ``r`` across the plane."""
        r = np.asarray(r, dtype=float)
        n = np.asarray(self.normal)
        d = self.signed_distance(r)
        return r - 2.0 * np.multiply.outer(d, n)


@dataclass(frozen=True)
class Rod2D:
    """Axis-aligned rectangular rod: ``width`` along x, ``length`` along y."""

    width: float
    length: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise DomainError("rod width and length must be positive")

    def inside(self, r):
        # strict inequality: points exactly on the boundary count as background
        r = np.asarray(r, dtype=float)
        dx = np.abs(r[..., 0] - self.center[0])
        dy = np.abs(r[..., 1] - self.center[1])
        return (dx < 0.5 * self.width) & (dy < 0.5 * self.length)

    @property
    def bounding_box(self):
        cx, cy = self.center
        return ((cx - 0.5 * self.width, cx + 0.5 * self.width),
                (cy - 0.5 * self.length, cy + 0.5 * self.length))

    def nearest_tangent_plane(self, r) -> SurfacePlane:
        """Tangent plane at the surface point nearest to exterior point ``r``.

        Next to a face the plane is that face; beyond a corner the normal is
        the direction from the corner to ``r``.
        """
        r = np.asarray(r, dtype=float)
        cx, cy = self.center
        hx, hy = 0.5 * self.width, 0.5 * self.length
        x = np.clip(r[0], cx - hx, cx + hx)
        y = np.clip(r[1], cy - hy, cy + hy)
        if self.inside(r):
            raise DomainError("nearest_tangent_plane expects an exterior point")
        ox, oy = r[0] - x, r[1] - y
        if ox == 0.0 and oy == 0.0:  # on the surface: pick outward face normal
            dx = hx - abs(r[0] - cx)
            dy = hy - abs(r[1] - cy)
            if dx <= dy:
                return SurfacePlane((x, y), (np.sign(r[0] - cx) or 1.0, 0.0))
            return SurfacePlane((x, y), (0.0, np.sign(r[1] - cy) or 1.0))
        return SurfacePlane((x, y), (ox, oy))


@dataclass(frozen=True)
class Cylinder2D:
    """Circular cylinder cross-section of given radius."""

    radius: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("cylinder radius must be positive")

    def inside(self, r):
        r = np.asarray(r, dtype=float)
        dx = r[..., 0] - self.center[0]
        dy = r[..., 1] - self.center[1]
        return dx * dx + dy * dy < self.radius**2

    @property
    def bounding_box(self):
        cx, cy = self.center
        a = self.radius
        return ((cx - a, cx + a), (cy - a, cy + a))

    def nearest_tangent_plane(self, r) -> SurfacePlane:
        r = np.asarray(r, dtype=float)
        d = r - np.asarray(self.center)
        dist = np.linalg.norm(d)
        if dist <= self.radius:
            raise DomainError("nearest_tangent_plane expects an exterior point")
        n = d / dist
        return SurfacePlane(tuple(np.asarray(self.center) + self.radius * n), tuple(n))


@dataclass(frozen=True)
class HalfSpace:
    """Material half-space bounded by a plane; ``inside`` is behind it."""

    surface: SurfacePlane

    def inside(self, r):
        return self.surface.signed_distance(r) < 0

    def nearest_tangent_plane(self, r) -> SurfacePlane:
        if self.surface.signed_distance(r) <= 0:
            raise DomainError("nearest_tangent_plane expects an exterior point")
        return self.surface


# ---------------------------------------------------------------------------
# grid description


def lattice_coords(lo, hi, n, h, offset):
    """n node coordinates ``lo + (i + offset) h``, computed sign-symmetrically
    when the extent [lo, hi] is symmetric about zero.

    Exact antisymmetry of the coordinates matters for staircased material
    maps: a node landing exactly on a geometric boundary must classify the
    same way as its mirror image, which plain ``lo + (i + offset) h``
    arithmetic does not guarantee.
    """
    if abs(lo + hi) <= 1e-9 * h:
        half_cells = round((hi - lo) / h) / 2.0
        return (np.arange(n) + offset - half_cells) * h
    return lo + (np.arange(n) + offset) * h


def interior_fraction(inside, pts, h):
    """Share of four probes, offset by 1e-6 h along +-x and +-y from the
    node positions ``pts`` (..., 2), that lie inside: 1 inside, 0 outside.
    A node exactly on a face gets 1/4, not the two-sided 1/2, because its
    two tangential probes stay on the boundary, which ``inside`` counts as
    outside.

    This is the one rule for the permittivity at interface nodes: the
    discrete operator weights its contrast with it, and the regularized
    field weights the mode's polarization current with it.
    """
    d = 1e-6 * h
    frac = np.zeros(pts.shape[:-1])
    for off in ((d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)):
        frac += inside(pts + np.asarray(off))
    return frac / 4.0


@dataclass(frozen=True)
class PmlSpec:
    """Perfectly matched layer: thickness in cells, polynomial grading order,
    and the nominal normal-incidence reflection target."""

    cells: int = 20
    order: int = 3
    target_reflection: float = 1e-8

    def __post_init__(self):
        if self.cells < 8:
            raise DomainError("PML thickness must be at least 8 cells")
        if self.order < 1 or not (0 < self.target_reflection < 1):
            raise DomainError("invalid PML grading parameters")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: physical extent, cell size, PML recipe."""

    extent: tuple  # ((x0, x1), (y0, y1)) in meters
    h: float
    pml: PmlSpec = field(default_factory=PmlSpec)

    def __post_init__(self):
        (x0, x1), (y0, y1) = self.extent
        if not (self.h > 0):
            raise DomainError("cell size must be positive")
        if x1 <= x0 or y1 <= y0:
            raise DomainError("grid extent must have positive area")
        nx = (x1 - x0) / self.h
        ny = (y1 - y0) / self.h
        if abs(nx - round(nx)) > 1e-6 or abs(ny - round(ny)) > 1e-6:
            raise DomainError("cell size must divide the grid extent")
        if round(nx) < 2 * self.pml.cells + 4 or round(ny) < 2 * self.pml.cells + 4:
            raise DomainError("grid too small to hold the PML")

    @property
    def n_cells(self):
        (x0, x1), (y0, y1) = self.extent
        return (int(round((x1 - x0) / self.h)), int(round((y1 - y0) / self.h)))

    def cell_centers(self):
        """1D coordinate arrays of cell centers (x then y)."""
        (x0, x1), (y0, y1) = self.extent
        nx, ny = self.n_cells
        return (lattice_coords(x0, x1, nx, self.h, 0.5),
                lattice_coords(y0, y1, ny, self.h, 0.5))

    @property
    def pml_thickness(self) -> float:
        return self.pml.cells * self.h

    def interior_box(self, margin_cells=0):
        """Extent minus PML (optionally minus extra margin cells)."""
        (x0, x1), (y0, y1) = self.extent
        d = (self.pml.cells + margin_cells) * self.h
        return ((x0 + d, x1 - d), (y0 + d, y1 - d))


@dataclass(frozen=True)
class Dipole:
    """Point dipole: position (m) and unit orientation vector."""

    position: tuple
    orientation: tuple

    def __post_init__(self):
        n = np.asarray(self.orientation, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0 or not np.isfinite(norm):
            raise DomainError("dipole orientation must be a nonzero vector")
        object.__setattr__(self, "orientation", tuple(n / norm))
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
