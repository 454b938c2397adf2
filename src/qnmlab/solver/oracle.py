"""The full-wave reference ("oracle") that the single-mode Green models are
checked against.

A query is one scattered-field solve: the dipole's analytic background
field drives the resonator's contrast nodes on a tight grid round the
resonator, the source and the receiver, with ``ORACLE_MARGIN`` between
each point and the PML.  The grid holds no other point, so a value does
not depend on which other points are asked, and no state is kept.

A tight grid is mirror-symmetric about each axis along which every asked
point lies within the resonator's extent (a side-face emitter of the paper
rod: y = 0; a tip emitter: x = 0).  About such a plane of a centred
resonator the solve splits exactly into parity classes on half grids
(:func:`qnmlab.solver.fdfd.parity_classes`): each class solves its share
of the incident field, and the class samples sum to the unreduced value.
A query therefore costs one factorization per class whose share is not
zero, each of about half the unknowns: two for a dipole off a side face,
one for a dipole on the axis whose field has one parity (the validate
stage's y-dipole), and one full-grid factorization for a grid with no
mirror plane.  A source or receiver inside the resonator or on its
surface is refused with a ``DomainError`` that says which.  ``cfg`` is a
run config (:class:`qnmlab.config.RunConfig`), of which the oracle reads
the grid's cell size and PML, the geometry, the material and the
background.
"""

import math

import numpy as np

from ..background import green_b_2d
from ..core import GridSpec, require_exterior
from .fdfd import assemble, mirror_symmetry, parity_classes

ORACLE_MARGIN = 100e-9


def oracle_grid(cfg, positions):
    """Tight grid round the resonator and the given dipole positions: their
    bounding box widened by ``ORACLE_MARGIN`` plus the PML, each edge
    snapped outward to a multiple of h.  So every dipole has
    ``ORACLE_MARGIN`` between it and the PML, and the nodes sit on the
    lattice of the symmetric grids (see :func:`qnmlab.core.lattice_coords`).
    """
    h = cfg.grid.h
    pad = ORACLE_MARGIN + cfg.grid.pml_thickness
    pts = np.reshape(np.asarray(positions, dtype=float), (-1, 2))
    extent = []
    for (b0, b1), coords in zip(cfg.geometry.bounding_box, pts.T):
        lo = min(b0, *coords) - pad
        hi = max(b1, *coords) + pad
        extent.append((h * math.floor(lo / h + 1e-9),
                       h * math.ceil(hi / h - 1e-9)))
    return GridSpec(extent=tuple(extent), h=h, pml=cfg.grid.pml)


def scattered_green(cfg, r_a, n_a, r_b, n_b, omega):
    """``n_b . G_s(r_b, r_a) . n_a``: the scattered field at ``r_b``, along
    ``n_b``, of the unit dipole ``n_a`` at ``r_a``, driven by its analytic
    background field ``G^B(r, r_a) . n_a`` on the resonator's contrast
    nodes.  The tight :func:`oracle_grid` round the resonator, ``r_a`` and
    ``r_b`` is solved once per parity class of its mirror planes, and the
    class samples at ``r_b`` are summed."""
    require_exterior(cfg.geometry, r_a, "dipole position")
    require_exterior(cfg.geometry, r_b, "receiver")
    grid = oracle_grid(cfg, [r_a, r_b])
    symmetry = mirror_symmetry(grid, cfg.geometry)

    def incident(r):
        return green_b_2d(r, r_a, omega, cfg.bg) @ n_a

    def class_sample(parity):
        # the operator and its factor go with the return, before the next
        # class assembles
        op = assemble(grid, cfg.geometry, cfg.material, cfg.bg, omega,
                      symmetry, parity)
        b = op.scattered_rhs(incident)
        return op.sample(op.solve(b), r_b, n_b) if b.any() else 0.0

    return sum(class_sample(parity) for parity in parity_classes(symmetry))
