"""Quasinormal-mode extraction by complex-frequency pole search.

The driven problem ``A(w) x = b`` with a fixed interior source has a
response ``r(w) = u . x(w)`` whose poles are the resonator eigenfrequencies.
A secant iteration drives ``1/r(w)`` to zero in the complex plane; at the
converged pole the solution field is completely dominated by the resonant
mode and is taken as the (unnormalized) mode profile.  The source is placed
with the symmetry of the target mode - by default a y-oriented point source
at the resonator center, which couples to the fundamental plasmon of a rod.

The mode phase gauge makes the largest-magnitude field sample real and
positive.  Mode files round-trip bit-exactly through a small container
format: one JSON header line followed by little-endian float64 interleaved
(re, im) arrays for E_x then E_y in row-major order.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from ..core import (
    Background,
    ComplexFrequency,
    Cylinder2D,
    Dipole,
    DomainError,
    GridSpec,
    PmlSpec,
    PoleSearchError,
    Rod2D,
)
from .fdfd import DiscreteOperator, assemble, bilinear_sample, colocate
from .roots import distinct_roots, secant_root, winding_number


@dataclass(frozen=True)
class PoleSearch:
    """Pole-search controls: initial guess (complex rad/s), relative
    frequency tolerance, iteration cap, basin radius (defaults to 25% of the
    guess magnitude), and the optional isolation verification."""

    omega_guess: complex
    rel_tol: float = 1e-9
    max_iter: int = 30
    basin_radius: float | None = None
    verify_isolation: bool = False


@dataclass(frozen=True)
class ModeField:
    """A quasinormal mode on the grid: complex E_x/E_y node arrays (full
    domain, boundary rows included), complex eigenfrequency, and the
    normalization state ('raw' or 'normalized' with the norm value used)."""

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

    def colocated(self):
        """Cell-centered (E_x, E_y) arrays."""
        return colocate(self.ex, self.ey)

    def value_at(self, points):
        """Bilinearly interpolated mode vector at arbitrary points, (N, 2)."""
        xc, yc = self.grid.cell_centers()
        exc, eyc = self.colocated()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        fx = bilinear_sample(xc, yc, exc, points)
        fy = bilinear_sample(xc, yc, eyc, points)
        return np.stack([fx, fy], axis=-1)

    def scaled(self, factor, norm_state=None, norm_value=None):
        return replace(self, ex=self.ex * factor, ey=self.ey * factor,
                       norm_state=norm_state or self.norm_state,
                       norm_value=norm_value if norm_value is not None
                       else self.norm_value)


def _default_source(geometry):
    center = getattr(geometry, "center", (0.0, 0.0))
    return Dipole(position=center, orientation=(0.0, 1.0))


def _default_probe(geometry):
    # off-source interior point with strong overlap for dipole-like modes
    (bx0, bx1), (by0, by1) = geometry.bounding_box
    return (0.5 * (bx0 + bx1), 0.5 * (by0 + by1) + 0.45 * (by1 - by0))


def driven_response(grid, geometry, material, bg, omega, symmetry=None,
                    source=None, probe=None) -> complex:
    """Field response at ``probe`` to a fixed interior source at ``omega``.

    The analytic continuation of this scalar in complex frequency has poles
    at the quasinormal-mode eigenfrequencies; :func:`find_qnm` drives its
    inverse to zero.  Exposed separately for diagnostics such as
    single-pole lineshape fits over real frequency.
    """
    source = source or _default_source(geometry)
    probe = probe or _default_probe(geometry)
    op, b, x = _resolve(grid, geometry, material, bg, omega, symmetry, source)
    return op.sampling_vector(probe, (0.0, 1.0)) @ x


def _gauge_fix(ex, ey):
    vals = np.concatenate([ex.ravel(), ey.ravel()])
    v = vals[np.argmax(np.abs(vals))]
    phase = v / abs(v)
    return ex / phase, ey / phase


def find_qnm(grid, geometry, material, bg, search: PoleSearch,
             symmetry=None, source=None, probe=None) -> ModeField:
    """Locate one quasinormal mode: eigenfrequency and raw field profile.

    Newton/secant iteration on the inverse of the driven response at a fixed
    interior source, probed away from the source point (the smooth
    self-field of the source would otherwise pinch the convergence basin of
    ``1/response``).  ``symmetry`` ("x", "y", "xy") solves the mirror-reduced
    problem when geometry and source allow it.  Raises
    :class:`PoleSearchError` when no pole (or more than one, with
    ``verify_isolation``) lies in the search basin.
    """
    source = source or _default_source(geometry)
    probe = probe or _default_probe(geometry)

    def inv_response(omega):
        # one factorization per trial frequency; nothing is kept
        r = driven_response(grid, geometry, material, bg, omega, symmetry,
                            source, probe)
        if r == 0:
            raise PoleSearchError("driven response vanished; the source does "
                                  "not couple to a mode near the guess")
        return 1.0 / r

    basin = search.basin_radius or 0.25 * abs(search.omega_guess)
    omega_pole, _ = secant_root(
        inv_response, complex(search.omega_guess), rel_tol=search.rel_tol,
        max_iter=search.max_iter, basin_radius=basin)

    if search.verify_isolation:
        _check_isolation(inv_response, omega_pole, basin, search)

    op, b, x = _resolve(grid, geometry, material, bg, omega_pole, symmetry,
                        source)
    freq = ComplexFrequency.from_omega_tilde(omega_pole)
    # eigen-residual of the extracted profile, relative to the operator scale
    res = np.linalg.norm(op.apply(x)) / (np.linalg.norm(x)
                                         * np.abs(op._kdiag).max())
    ex, ey = op.unpack(x)
    ex, ey = _gauge_fix(ex, ey)
    return ModeField(grid=grid, geometry=geometry, bg=bg, ex=ex, ey=ey,
                     frequency=freq, residual=float(res))


def _resolve(grid, geometry, material, bg, omega, symmetry, source):
    op = assemble(grid, geometry, material, bg, omega, symmetry)
    # a symmetrized source is fine here: any source coupling to the target
    # parity finds the same pole and mode profile
    b = op.dipole_rhs(source, allow_symmetrized=True)
    return op, b, op.solve(b)


def _check_isolation(inv_response, omega_pole, basin, search):
    # argument principle on the inverse response: its zeros are the poles
    w = winding_number(inv_response, omega_pole, basin, n_samples=24)
    if w >= 2:
        seeds = [omega_pole + 0.6 * basin * np.exp(1j * t)
                 for t in np.linspace(0, 2 * np.pi, 6, endpoint=False)]
        roots = distinct_roots(inv_response, seeds, rel_tol=search.rel_tol,
                               basin_radius=basin, center=omega_pole)
        raise PoleSearchError(
            f"{w} poles inside the search basin around {omega_pole:.6e}; "
            f"distinct candidates: {roots}")


# -- mode container -----------------------------------------------------------


def _geometry_to_json(geometry):
    if geometry is None:
        return None
    if isinstance(geometry, Rod2D):
        return {"type": "rod", "width": geometry.width,
                "length": geometry.length, "center": list(geometry.center)}
    if isinstance(geometry, Cylinder2D):
        return {"type": "cylinder", "radius": geometry.radius,
                "center": list(geometry.center)}
    raise DomainError(f"geometry {type(geometry).__name__} is not serializable")


def _geometry_from_json(d):
    if d is None:
        return None
    if d["type"] == "rod":
        return Rod2D(d["width"], d["length"], tuple(d["center"]))
    if d["type"] == "cylinder":
        return Cylinder2D(d["radius"], tuple(d["center"]))
    raise DomainError(f"unknown geometry type {d['type']!r}")


def _interleave(a):
    out = np.empty(a.size * 2, dtype="<f8")
    out[0::2] = a.real.ravel()
    out[1::2] = a.imag.ravel()
    return out


def _deinterleave(buf, shape):
    flat = np.frombuffer(buf, dtype="<f8")
    out = np.empty(flat.size // 2, dtype=complex)
    out.real = flat[0::2]  # assignment preserves signed zeros bit-exactly
    out.imag = flat[1::2]
    return out.reshape(shape)


def save_mode(mode: ModeField, path):
    """Write the mode container: JSON header line + raw little-endian
    float64 interleaved (re, im) payload, E_x then E_y, row-major."""
    header = {
        "format": "qnmlab-mode",
        "version": 1,
        "endianness": "little",
        "grid": {"extent": [list(map(float, ax)) for ax in mode.grid.extent],
                 "h": mode.grid.h,
                 "pml": {"cells": mode.grid.pml.cells,
                         "order": mode.grid.pml.order,
                         "target_reflection": mode.grid.pml.target_reflection}},
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
        fh.write(_interleave(mode.ex).tobytes())
        fh.write(_interleave(mode.ey).tobytes())


def load_mode(path) -> ModeField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != "qnmlab-mode":
            raise DomainError(f"{path} is not a mode container")
        shape_ex = tuple(header["shape_ex"])
        shape_ey = tuple(header["shape_ey"])
        n_ex = int(np.prod(shape_ex))
        ex = _deinterleave(fh.read(16 * n_ex), shape_ex)
        ey = _deinterleave(fh.read(), shape_ey)
    g = header["grid"]
    grid = GridSpec(extent=tuple(tuple(ax) for ax in g["extent"]), h=g["h"],
                    pml=PmlSpec(**g["pml"]))
    nv = header["norm_value"]
    return ModeField(
        grid=grid,
        geometry=_geometry_from_json(header["geometry"]),
        bg=Background(header["n_b"]),
        ex=ex, ey=ey,
        frequency=ComplexFrequency(**header["eigenfrequency"]),
        norm_state=header["norm_state"],
        norm_value=None if nv is None else complex(nv[0], nv[1]),
        gauge=header["gauge"],
        residual=header["residual"],
    )
