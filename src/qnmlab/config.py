"""Run-configuration parsing: JSON with explicit unit suffixes.

Physical quantities appear in config files as strings with a unit, e.g.
``"10 nm"``, ``"1.26e16 rad/s"``, ``"415.863 THz"`` (plain frequencies are
converted to angular internally).  Dimensionless numbers stay numbers.
Unknown keys anywhere in the file are rejected - a typo must fail loudly,
not silently fall back to a default.

Every accepted config describes a resonator with a mode to find: a
``constant`` material whose ``eps`` equals the background's ``n**2`` has
no resonator and is refused, like any value without a meaningful run,
before a stage solves or deletes anything.  The artifacts of an accepted
run follow from the config alone: ``mode.field``, ``modevol.csv`` and
``report.json`` always, ``spectrum.csv`` and ``distance.csv`` when dipoles
are configured, ``propagator.csv`` when a propagator source is.
"""

import json

import numpy as np

from .core import (
    Background,
    ConstantMaterial,
    Cylinder2D,
    DomainError,
    DrudeModel,
    GridSpec,
    PmlSpec,
    Rod2D,
)

_LENGTH = {"m": 1.0, "um": 1e-6, "nm": 1e-9}
_FREQ = {"rad/s": 1.0, "THz": 2 * np.pi * 1e12, "GHz": 2 * np.pi * 1e9}


class ConfigError(DomainError):
    """Malformed or inconsistent run configuration."""


def parse_quantity(value, kind, where=""):
    """Parse ``"<number> <unit>"`` into SI (lengths to m, frequencies to
    angular rad/s)."""
    units = {"length": _LENGTH, "frequency": _FREQ}[kind]
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string with a unit "
                          f"(e.g. '10 nm'), got {value!r}")
    parts = value.split()
    if len(parts) != 2 or parts[1] not in units:
        raise ConfigError(f"{where}: cannot parse {value!r}; allowed units: "
                          f"{sorted(units)}")
    try:
        num = float(parts[0])
    except ValueError:
        raise ConfigError(f"{where}: bad number in {value!r}")
    if not np.isfinite(num):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return num * units[parts[1]]


def _parse_direction(value, where):
    """An orientation: two finite numbers, not both zero."""
    try:
        n = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        n = ()
    if len(n) != 2 or not np.all(np.isfinite(n)) or not any(n):
        raise ConfigError(f"{where}: expected two finite numbers, not both "
                          f"zero, got {value!r}")
    return n


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _parse_geometry(d):
    _check_keys(d, {"type", "width", "length", "radius", "center"},
                "geometry")
    center = tuple(parse_quantity(v, "length", "geometry.center")
                   for v in d.get("center", ["0 nm", "0 nm"]))
    if d.get("type") == "rod":
        return Rod2D(width=parse_quantity(d["width"], "length", "geometry"),
                     length=parse_quantity(d["length"], "length", "geometry"),
                     center=center)
    if d.get("type") == "cylinder":
        return Cylinder2D(radius=parse_quantity(d["radius"], "length",
                                                "geometry"), center=center)
    raise ConfigError(f"geometry.type must be 'rod' or 'cylinder', "
                      f"got {d.get('type')!r}")


def _parse_material(d):
    _check_keys(d, {"type", "omega_p", "gamma_d", "eps"}, "material")
    if d.get("type") == "drude":
        return DrudeModel(
            omega_p=parse_quantity(d["omega_p"], "frequency", "material"),
            gamma_d=parse_quantity(d["gamma_d"], "frequency", "material"))
    if d.get("type") == "constant":
        eps = d["eps"]
        if isinstance(eps, list):
            eps = complex(eps[0], eps[1])
        return ConstantMaterial(complex(eps))
    raise ConfigError(f"material.type must be 'drude' or 'constant', "
                      f"got {d.get('type')!r}")


def _parse_grid(d):
    _check_keys(d, {"h", "half_width", "pml_cells"}, "grid")
    h = parse_quantity(d["h"], "length", "grid.h")
    if not h > 0:
        raise ConfigError("grid.h must be positive")
    half = parse_quantity(d["half_width"], "length", "grid.half_width")
    half = round(half / h) * h  # whole cells per half: even total count
    return GridSpec(extent=((-half, half), (-half, half)), h=h,
                    pml=PmlSpec(cells=int(d.get("pml_cells", 20))))


def _parse_complex_freq(d, where):
    _check_keys(d, {"real", "imag"}, where)
    return (parse_quantity(d["real"], "frequency", where)
            + 1j * parse_quantity(d["imag"], "frequency", where))


class RunConfig:
    """Validated run configuration; see ``configs/`` for examples."""

    TOP_KEYS = {"geometry", "material", "background", "grid", "pole_search",
                "normalization", "dipoles", "spectrum", "distance_scan",
                "propagator", "variants", "oracle"}

    def __init__(self, data: dict):
        try:
            self._parse(data)
        except ConfigError:
            raise
        except DomainError as exc:
            # a value a core constructor rejects is a bad configuration
            raise ConfigError(f"config: {exc}") from exc
        except KeyError as exc:
            raise ConfigError(f"config: missing key {exc.args[0]!r}") \
                from exc
        except (IndexError, TypeError, ValueError) as exc:
            # a value of the wrong type or form, e.g. "abc" for a count
            raise ConfigError(f"config: malformed value: {exc}") from exc

    def _parse(self, data):
        _check_keys(data, self.TOP_KEYS, "config")
        for key in ("geometry", "material", "background", "grid",
                    "pole_search"):
            if key not in data:
                raise ConfigError(f"config: missing required section {key!r}")
        self.geometry = _parse_geometry(data["geometry"])
        self.material = _parse_material(data["material"])
        _check_keys(data["background"], {"n"}, "background")
        self.bg = Background(float(data["background"]["n"]))
        if isinstance(self.material, ConstantMaterial) and \
                complex(self.material.eps_const) == complex(self.bg.eps_b):
            raise ConfigError("material: eps equals the background's n**2, "
                              "so there is no resonator and no mode")
        self.grid = _parse_grid(data["grid"])

        ps = data["pole_search"]
        _check_keys(ps, {"guess", "rel_tol", "max_iter", "symmetry"},
                    "pole_search")
        self.omega_guess = _parse_complex_freq(ps["guess"],
                                               "pole_search.guess")
        self.pole_rel_tol = float(ps.get("rel_tol", 1e-9))
        self.pole_max_iter = int(ps.get("max_iter", 30))
        self.symmetry = ps.get("symmetry", None)
        if self.symmetry not in (None, "x", "y", "xy"):
            raise ConfigError("pole_search.symmetry must be x, y or xy")

        norm = data.get("normalization", {})
        _check_keys(norm, {"clearances", "rtol"}, "normalization")
        self.norm_clearances = [
            parse_quantity(v, "length", "normalization.clearances")
            for v in norm.get("clearances",
                              ["500 nm", "600 nm", "700 nm", "800 nm"])]
        self.norm_rtol = float(norm.get("rtol", 0.01))

        self.dipoles, checks = [], []
        for i, dd in enumerate(data.get("dipoles", [])):
            _check_keys(dd, {"position", "orientation"}, f"dipoles[{i}]")
            pos = tuple(parse_quantity(v, "length", f"dipoles[{i}].position")
                        for v in dd["position"])
            self.dipoles.append((pos, _parse_direction(
                dd["orientation"], f"dipoles[{i}].orientation")))
            checks.append((f"dipoles[{i}].position", len(pos) == 2))

        spec = data.get("spectrum", {})
        _check_keys(spec, {"half_width_gammas", "points"}, "spectrum")
        self.spectrum_half_gammas = float(spec.get("half_width_gammas", 3.0))
        self.spectrum_points = int(spec.get("points", 13))

        scan = data.get("distance_scan", {})
        _check_keys(scan, {"axis", "standoffs", "orientation"},
                    "distance_scan")
        self.scan_axis = scan.get("axis", "x")
        if self.scan_axis not in ("x", "y"):
            raise ConfigError("distance_scan.axis must be 'x' or 'y'")
        self.scan_standoffs = [
            parse_quantity(v, "length", "distance_scan.standoffs")
            for v in scan.get("standoffs", [])]
        self.scan_orientation = _parse_direction(
            scan.get("orientation", [0.0, 1.0]), "distance_scan.orientation")

        prop = data.get("propagator", {})
        _check_keys(prop, {"source_standoff", "distances"}, "propagator")
        self.prop_source_standoff = parse_quantity(
            prop["source_standoff"], "length", "propagator") \
            if "source_standoff" in prop else None
        self.prop_distances = [
            parse_quantity(v, "length", "propagator.distances")
            for v in prop.get("distances", [])]

        self.variants = list(data.get("variants", ["f", "far", "out"]))
        for v in self.variants:
            if v not in ("f", "far", "out", "far+born"):
                raise ConfigError(f"unknown variant {v!r}")

        oracle = data.get("oracle", {})
        _check_keys(oracle, {"enabled", "spectrum_stride",
                             "scan_checkpoints"}, "oracle")
        self.oracle_enabled = bool(oracle.get("enabled", False))
        self.oracle_spectrum_stride = int(oracle.get("spectrum_stride", 4))
        self.oracle_scan_checkpoints = [
            int(i) for i in oracle.get("scan_checkpoints", [])]
        if self.oracle_enabled and "far" not in self.variants:
            # validate compares the scan's f_a_far column with the oracle
            raise ConfigError("oracle.enabled needs the 'far' variant")
        for where, ok in checks + [
                ("geometry.center", len(self.geometry.center) == 2),
                ("pole_search.rel_tol", 0 < self.pole_rel_tol < np.inf),
                ("pole_search.max_iter", self.pole_max_iter >= 1),
                ("normalization.rtol", 0 < self.norm_rtol < np.inf),
                # every length below sits outside the resonator or apart
                # from the source; at zero or less a stage fails only
                # after the pole search
                ("normalization.clearances",
                 all(d > 0 for d in self.norm_clearances)),
                ("distance_scan.standoffs",
                 all(d > 0 for d in self.scan_standoffs)),
                ("propagator.source_standoff",
                 self.prop_source_standoff is None
                 or self.prop_source_standoff > 0),
                ("propagator.distances",
                 all(d > 0 for d in self.prop_distances)),
                ("spectrum.points", self.spectrum_points >= 1),
                ("oracle.spectrum_stride", self.oracle_spectrum_stride >= 1),
                # the propagator rows share the scan's checkpoints
                ("oracle.scan_checkpoints",
                 all(0 <= i < len(self.scan_standoffs)
                     and (self.prop_source_standoff is None
                          or i < len(self.prop_distances))
                     for i in self.oracle_scan_checkpoints))]:
            if not ok:
                raise ConfigError(f"{where} is out of range")

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        return cls(data)
