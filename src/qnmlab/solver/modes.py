"""Quasinormal-mode extraction by complex-frequency pole search.

A quasinormal mode is a nonlinear eigenpair, ``A(w) x = 0`` at a complex
``w``.  Residual inverse iteration (Neumaier, SIAM J. Numer. Anal. 22, 914
(1985); Guettel & Tisseur, Acta Numerica 26, 1 (2017)) finds pole and
profile together with one factorization of ``A`` at a shift ``s``, the
guess.  Each outer iterate

* moves ``w`` to the root of the Rayleigh functional ``x^T A(w) x = 0``
  nearest the current ``w`` (a secant on function values; the operator is
  complex-symmetric, so no left vector is needed), then
* corrects the vector, ``x <- x - A(s)^{-1} A(w) x``, and rescales it.

The correction needs only an approximate inverse of ``A(s)``: the fixed
point ``A(w) x = 0`` is evaluated in double precision whatever the inverse,
so the shift is factored once in single precision
(``DiscreteOperator.sweep``), half the bytes of a double factor.  Driven
solves (:func:`driven_response`) keep the double one.

The vector starts from two passes through the shift's factor of the
right-hand side of the scattered-field solve for a uniform E_y incident
field.  That field has the target parity under every mirror reduction (E_y
even, E_x odd) and couples to the fundamental plasmon of a rod.  The
contraction per step scales with ``|s - w|``; a step that cuts the
eigen-residual ``|A(w) x|`` less than tenfold moves the shift to the
current ``w`` (one more factorization).

The mode phase gauge makes the largest-magnitude field sample real and
positive.  Mode files round-trip bit-exactly through a small container
format: one JSON header line followed by little-endian float64 interleaved
(re, im) arrays for E_x then E_y in row-major order.
"""

import json
import logging
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import c as C0

from ..core import (
    Background,
    ComplexFrequency,
    Cylinder2D,
    DomainError,
    GridSpec,
    PmlSpec,
    Rod2D,
)
from .fdfd import assemble
from .roots import _check_basin, _exhausted, secant_root

log = logging.getLogger("qnm.modes")


@dataclass(frozen=True)
class PoleSearch:
    """Pole-search controls, the config's ``pole_search`` section: initial
    guess (complex rad/s, also the first shift), relative frequency
    tolerance and cap on the outer iterates."""

    omega_guess: complex
    rel_tol: float = 1e-9
    max_iter: int = 30


@dataclass(frozen=True)
class ModeField:
    """A quasinormal mode on the grid: complex E_x/E_y node arrays (full
    domain, boundary rows included), complex eigenfrequency, the
    normalization state ('raw' or 'normalized' with the norm value used),
    the pole-search iterates (complex rad/s, the guess first and the
    reported pole last) and the frequencies the search factorized at (the
    guess first); the mode file stores neither."""

    grid: GridSpec
    geometry: object
    bg: Background
    ex: np.ndarray
    ey: np.ndarray
    frequency: ComplexFrequency
    norm_state: str = "raw"
    norm_value: complex | None = None
    gauge: str = "largest |E| sample real positive"
    residual: float = float("nan")
    pole_iterates: tuple = ()
    pole_shifts: tuple = ()

    def value_at(self, points):
        """Bilinearly interpolated mode vector at arbitrary points, (N, 2).

        Reads only the nodes of the four cells round each point
        (``GridSpec.sample_nodes``), so a call allocates O(N), never a copy
        of the node arrays; the values equal sampling the fully colocated
        arrays bit for bit."""
        return self.grid.sample_nodes(self.ex, self.ey, points)

    def scaled(self, factor, norm_state=None, norm_value=None):
        return replace(self, ex=self.ex * factor, ey=self.ey * factor,
                       norm_state=norm_state or self.norm_state,
                       norm_value=norm_value if norm_value is not None
                       else self.norm_value)


def _uniform_ey(points):
    """A uniform unit E_y incident field at ``points`` (N, 2)."""
    return np.tile((0.0, 1.0), (len(points), 1))


def _default_probe(geometry):
    # interior point with strong overlap for dipole-like modes
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    return (0.5 * (bx0 + bx1), 0.5 * (by0 + by1) + 0.45 * (by1 - by0))


def driven_response(grid, geometry, material, bg, omega,
                    symmetry=None) -> complex:
    """E_y of the scattered response to a uniform E_y incident field (the
    pole search's start field) at an interior probe point, at ``omega``.

    The analytic continuation of this scalar in complex frequency has poles
    at the quasinormal-mode eigenfrequencies.  Exposed for diagnostics such
    as single-pole lineshape fits over real frequency.
    """
    op = assemble(grid, geometry, material, bg, omega, symmetry)
    x = op.solve(op.scattered_rhs(_uniform_ey))
    return op.sample(x, _default_probe(geometry), (0.0, 1.0))


def _gauge_fix(ex, ey):
    vals = np.concatenate([ex.ravel(), ey.ravel()])
    v = vals[np.argmax(np.abs(vals))]
    phase = v / abs(v)
    return ex / phase, ey / phase


def find_qnm(grid, geometry, material, bg, search: PoleSearch,
             symmetry=None) -> ModeField:
    """Locate one quasinormal mode: eigenfrequency and raw field profile.

    Residual inverse iteration on the single-precision factor of ``A`` at
    the guess (see the module docstring): each outer iterate moves ``w`` to
    the root of the Rayleigh functional of the current vector and corrects
    the vector with one pass through that factor.  The iterates stop at the
    first relative step below ``rel_tol``; the vector is then refined at
    that fixed ``w`` while a step still cuts the eigen-residual tenfold.
    The factor moves to the current ``w`` (the old one is freed first) when
    an outer step cuts the eigen-residual less than tenfold.  The vector
    starts from the scattered-field right-hand side of a uniform E_y
    incident field.  ``symmetry`` ("x", "y", "xy") solves the
    mirror-reduced problem of a geometry centred on the mirror planes.
    Warns when the grid leaves less than one free-space wavelength (at the guess)
    between the resonator and its edge, or resolves the resonator's
    smallest side by fewer than 10 cells.  Raises
    :class:`PoleSearchError` when an iterate leaves the search basin (a
    quarter of ``|guess|`` around the guess) or when ``max_iter`` outer
    iterates do not converge.  That no other pole lies in the basin is
    assumed, not checked.
    """
    sigma = complex(search.omega_guess)
    basin = 0.25 * abs(sigma)
    _warn_grid(grid, geometry, sigma)

    def operator(w):
        # each Rayleigh secant starts at the current omega: reuse its operator
        if w == op.omega:
            return op
        return assemble(grid, geometry, material, bg, w, symmetry)

    # two passes at the guess: each one raises the mode's share of the
    # vector against the non-resonant rest of the response
    shifted = assemble(grid, geometry, material, bg, sigma, symmetry)
    x = shifted.sweep(shifted.scattered_rhs(_uniform_ey))
    x = _unit(shifted.sweep(x))
    omega = sigma
    res, ax = _residual(shifted, x)
    iterates, shifts = [sigma], [sigma]
    op = shifted  # the operator at the current omega; ax = op.apply(x)

    def rayleigh(w):
        return at_omega if w == omega else np.sum(x * operator(w).apply(x))

    for _ in range(search.max_iter):
        # each secant starts at omega, where the held product gives x^T A x;
        # the product itself is freed before the secant assembles
        at_omega, ax = np.sum(x * ax), None
        omega_new, _ = secant_root(rayleigh, omega, rel_tol=search.rel_tol,
                                   basin_radius=basin)
        iterates.append(omega_new)
        _check_basin(omega_new, sigma, basin, iterates)
        step = abs(omega_new - omega) / abs(omega_new)
        omega, op = omega_new, operator(omega_new)
        x, res_new, ax = _rii_step(shifted, op, x, op.apply(x))
        reshift = step > search.rel_tol and res_new > 0.1 * res
        log.debug("pole search: omega %.12g%+.12gi THz, |step|/|omega| "
                  "%.3e, residual %.3e%s", omega.real / (2 * np.pi * 1e12),
                  omega.imag / (2 * np.pi * 1e12), step, res_new,
                  ", re-shift" if reshift else "")
        res = res_new
        if step <= search.rel_tol:
            break
        if reshift:
            # rebinding frees the old factor before the next solve
            # factorizes this operator
            shifted = op
            shifts.append(omega)
    else:
        raise _exhausted(search.max_iter, sigma, iterates)
    while True:
        x_new, res_new, ax = _rii_step(shifted, op, x, ax)
        if not res_new < 0.1 * res:
            break
        x, res = x_new, res_new
    ex, ey = _gauge_fix(*op.unpack(x))
    return ModeField(grid=grid, geometry=geometry, bg=bg, ex=ex, ey=ey,
                     frequency=ComplexFrequency.from_omega_tilde(omega),
                     residual=float(res), pole_iterates=tuple(iterates),
                     pole_shifts=tuple(shifts))


def _warn_grid(grid, geometry, omega):
    # the grid is judged once, here: the mode's outgoing tail needs room
    # before the PML, and the resonator needs cells across.  The oracle's
    # tight grids share h with the mode and check their own margin
    lam0 = 2 * np.pi * C0 / abs(omega)
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    (gx0, gx1), (gy0, gy1) = grid.extent
    margin = min(bx0 - gx0, gx1 - bx1, by0 - gy0, gy1 - by1)
    if margin < lam0:
        warnings.warn(
            f"margin between resonator and grid edge ({margin:.3g} m) is "
            f"below one free-space wavelength ({lam0:.3g} m)", stacklevel=3)
    feature = min(bx1 - bx0, by1 - by0)
    if feature < 10 * grid.h:
        warnings.warn(
            f"smallest geometric feature ({feature:.3g} m) is resolved by "
            f"fewer than 10 cells at h={grid.h:.3g} m", stacklevel=3)


def _norm(x):
    # the 2-norm without BLAS: np.linalg.norm and x @ y on vectors this long
    # wake numpy's BLAS thread pool, which then spins beside SuperLU's
    return np.sqrt(np.sum(x.real ** 2) + np.sum(x.imag ** 2))


def _unit(x):
    return x / _norm(x)


def _residual(op, x):
    """Eigen-residual of a unit vector, relative to the operator scale,
    and the product ``op.apply(x)`` it was computed from."""
    ax = op.apply(x)
    return _norm(ax) / np.abs(op._kdiag).max(), ax


def _rii_step(shifted, op, x, ax):
    """One residual inverse iteration step ``x <- x - A(s)^{-1} A(w) x``
    with the held single-precision factor of ``A(s)``, given ``ax =
    A(w) x``; returns the unit vector, its eigen-residual at ``w`` and its
    product with ``A(w)``, which the next step at ``w`` reuses."""
    x = _unit(x - shifted.sweep(ax))
    return (x,) + _residual(op, x)


# -- mode container -----------------------------------------------------------


def _geometry_to_json(geometry):
    if isinstance(geometry, Rod2D):
        return {"type": "rod", "width": geometry.width,
                "length": geometry.length, "center": list(geometry.center)}
    if isinstance(geometry, Cylinder2D):
        return {"type": "cylinder", "radius": geometry.radius,
                "center": list(geometry.center)}
    raise DomainError(f"geometry {type(geometry).__name__} is not serializable")


def _geometry_from_json(d):
    if d["type"] == "rod":
        return Rod2D(d["width"], d["length"], tuple(d["center"]))
    if d["type"] == "cylinder":
        return Cylinder2D(d["radius"], tuple(d["center"]))
    raise DomainError(f"unknown geometry type {d['type']!r}")


def save_mode(mode: ModeField, path):
    """Write the mode container: JSON header line + raw little-endian
    complex128 payload, E_x then E_y, row-major.  A complex128 is its
    (re, im) float64 pair, so the payload is interleaved float64."""
    header = {
        "format": "qnmlab-mode",
        "version": 1,
        "endianness": "little",
        "grid": {"extent": [list(map(float, ax)) for ax in mode.grid.extent],
                 "h": mode.grid.h,
                 "pml": {"cells": mode.grid.pml.cells}},
        "geometry": _geometry_to_json(mode.geometry),
        "n_b": mode.bg.n_b,
        "eigenfrequency": {"omega": mode.frequency.omega,
                           "gamma": mode.frequency.gamma},
        "gauge": mode.gauge,
        "norm_state": mode.norm_state,
        "norm_value": (None if mode.norm_value is None
                       else [mode.norm_value.real, mode.norm_value.imag]),
        "residual": mode.residual,
        "shape_ex": list(mode.ex.shape),
        "shape_ey": list(mode.ey.shape),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for a in (mode.ex, mode.ey):
            np.asarray(a, dtype="<c16").tofile(fh)


def load_mode(path) -> ModeField:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
            if header["format"] != "qnmlab-mode":
                raise ValueError
            shape_ex, shape_ey = (tuple(int(n) for n in header[key])
                                  for key in ("shape_ex", "shape_ey"))
            g = header["grid"]
            grid = GridSpec(extent=tuple(tuple(ax) for ax in g["extent"]),
                            h=g["h"], pml=PmlSpec(**g["pml"]))
            nv = header["norm_value"]
            fields = dict(
                grid=grid,
                geometry=_geometry_from_json(header["geometry"]),
                bg=Background(header["n_b"]),
                frequency=ComplexFrequency(**header["eigenfrequency"]),
                norm_state=header["norm_state"],
                norm_value=None if nv is None else complex(nv[0], nv[1]),
                gauge=header["gauge"],
                residual=header["residual"],
            )
        except DomainError:
            raise  # a key present with a value out of its domain
        except (ValueError, TypeError, KeyError):
            # a first line that is not UTF-8 JSON, not an object, or without
            # one of the keys a mode header holds
            raise DomainError(f"{path} is not a mode container") from None
        n_ex, n_ey = int(np.prod(shape_ex)), int(np.prod(shape_ey))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 16 * (n_ex + n_ey):
            raise DomainError(f"{path}: the payload holds {size} bytes, its "
                              f"header's shapes need {16 * (n_ex + n_ey)}")
        # one component at a time, read straight into its array
        ex = np.fromfile(fh, dtype="<c16", count=n_ex).reshape(shape_ex)
        ey = np.fromfile(fh, dtype="<c16", count=n_ey).reshape(shape_ey)
    return ModeField(ex=ex, ey=ey, **fields)
