"""Batch front end: parse a run config, orchestrate the pipeline
(find -> normalize -> mode volume -> emission -> propagator -> validate)
and emit deterministic CSV artifacts plus a machine-readable report.

Every accepted config finds a mode; a material equal to the background
has none and is refused with the config (exit 2).  Artifacts in the output
directory:

* ``mode.field``      binary mode container (raw after ``find``, normalized
                      after ``normalize``)
* ``modevol.csv``     norm breakdown and running mode volume vs clearance
* ``spectrum.csv``    emission enhancement vs frequency per Green model,
                      written when dipoles are configured
* ``distance.csv``    on-resonance enhancement vs standoff per model,
                      written when dipoles are configured
* ``propagator.csv``  normalized |G_yy|^2 vs distance per model, written
                      when a propagator source is configured
* ``report.json``     eigenfrequency, Q, pole-search iterates and the
                      frequencies it factorized at (``shifts_thz``), V_eff,
                      caustic radius, the 2D Purcell factor
                      ``purcell_factor`` and, with a dipole configured,
                      ``eta_dipole`` (eta at the first dipole, on resonance;
                      see :mod:`qnmlab.observables`), tolerance flags

``run`` and ``find`` first delete every artifact of an earlier run, so the
directory never mixes two runs.  The config is the one description of a
run: its ``grid.h`` is the only cell size, and a stage that reads
``mode.field`` refuses a mode found for another grid, geometry or
background (exit 1).

The stages run one after another in one thread.  The emission stage
writes both of its tables by one row rule: F_a of every Green model at
(r, n, w), then the oracle where asked and NaN elsewhere.  The spectrum
samples it over frequency at the first dipole, the distance scan over
standoff on resonance.

With ``oracle.enabled`` the emission and propagator stages add a
full-wave reference: :func:`oracle_se` and :func:`oracle_propagator` read
the scattered field of one dipole solve (:mod:`qnmlab.solver.oracle`) as
F_a and as the normalized |G_yy|^2.  Validate computes nothing: it reads
both the far model and the oracle at the scan checkpoints from the
``f_a_far`` and ``f_a_oracle`` columns that the distance scan wrote to
``distance.csv``, and loads no mode.

Identical config and build produce byte-identical CSVs: fixed column
formats (17 significant digits), fixed reduction orders, no timestamps.
``QNM_LOG`` selects the log level.
"""

import argparse
import json
import logging
import math
import os
import sys

import numpy as np
from scipy.constants import c as C0

from .config import ConfigError, RunConfig
from .core import Dipole, QnmError
from .dyson import RegularizedField
from .normalize import caustic_radius, mode_volume, norm_scan, normalize_mode
from .observables import (
    born_green_model,
    eta_factor,
    far_green_model,
    mode_green_model,
    out_green_model,
    propagator_from_scattered,
    purcell_factor,
    se_enhancement,
    se_from_scattered,
)
from .solver import PoleSearch, find_qnm, load_mode, save_mode
from .solver.oracle import scattered_green

log = logging.getLogger("qnm")

MODE_FILE = "mode.field"
REPORT_FILE = "report.json"


def _fmt(x):
    return "%.17g" % x


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def _update_report(outdir, updates):
    path = os.path.join(outdir, REPORT_FILE)
    report = {}
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    report.update(updates)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _clear_artifacts(outdir):
    """Delete the report, the mode and every CSV of an earlier run: a new
    mode invalidates everything downstream of it."""
    for name in (REPORT_FILE, MODE_FILE, "modevol.csv", "spectrum.csv",
                 "distance.csv", "propagator.csv"):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            os.remove(path)


def _load_mode(cfg, outdir):
    """The mode in ``outdir``, refused unless it was found for the grid,
    geometry and background of ``cfg``."""
    path = os.path.join(outdir, MODE_FILE)
    if not os.path.exists(path):
        raise QnmError(f"{path} not found; run 'qnm find' (and 'normalize') "
                       "first")
    mode = load_mode(path)
    for what, ours, its in (("grid", cfg.grid, mode.grid),
                            ("geometry", cfg.geometry, mode.geometry),
                            ("background", cfg.bg, mode.bg)):
        if ours != its:
            raise QnmError(f"{path} holds a mode found for another {what} "
                           "than the config's; run 'qnm find' first")
    return mode


# -- pipeline stages ----------------------------------------------------------


def stage_find(cfg: RunConfig, outdir):
    """Clear the artifacts of an earlier run, then find, save and return
    the mode.  Every accepted config has one: the config refuses a
    material equal to the background."""
    _clear_artifacts(outdir)
    search = PoleSearch(omega_guess=cfg.omega_guess,
                        rel_tol=cfg.pole_rel_tol, max_iter=cfg.pole_max_iter)
    mode = find_qnm(cfg.grid, cfg.geometry, cfg.material, cfg.bg, search,
                    symmetry=cfg.symmetry)
    save_mode(mode, os.path.join(outdir, MODE_FILE))
    freq = mode.frequency
    its = mode.pole_iterates

    def thz(zs):
        return [[z.real / (2 * np.pi * 1e12), z.imag / (2 * np.pi * 1e12)]
                for z in zs]
    _update_report(outdir, {
        "eigenfrequency_thz": {"real": freq.omega / (2 * np.pi * 1e12),
                               "imag": -freq.gamma / (2 * np.pi * 1e12)},
        "quality_factor": freq.quality_factor,
        "pole_residual": mode.residual,
        "pole_search": {
            "iterates_thz": thz(its),
            "step_rel": [abs(z1 - z0) / abs(z1)
                         for z0, z1 in zip(its, its[1:])],
            "shifts_thz": thz(mode.pole_shifts),
        },
    })
    log.info("eigenfrequency %.3f - %.3fi THz (Q=%.2f)",
             freq.omega / 2 / np.pi / 1e12, freq.gamma / 2 / np.pi / 1e12,
             freq.quality_factor)
    return mode


def stage_normalize(cfg: RunConfig, outdir):
    mode = _load_mode(cfg, outdir)
    if mode.norm_state == "normalized":
        log.info("mode already normalized")
        return mode
    scan = norm_scan(mode, cfg.material, cfg.bg, cfg.norm_clearances)
    normalized = normalize_mode(mode, scan, rtol=cfg.norm_rtol)
    save_mode(normalized, os.path.join(outdir, MODE_FILE))
    _update_report(outdir, {
        "norm_value": {"real": normalized.norm_value.real,
                       "imag": normalized.norm_value.imag},
        "norm_converged": True,
    })
    return normalized


def stage_modevol(cfg: RunConfig, outdir):
    mode = _load_mode(cfg, outdir)
    if mode.norm_state != "normalized":
        raise QnmError("mode is not normalized; run 'qnm normalize' first")
    scan = norm_scan(mode, cfg.material, cfg.bg, cfg.norm_clearances)
    mv = mode_volume(mode, cfg.bg)
    rows = []
    for b in scan:
        # running V_eff: normalize against this clearance's total, with the
        # f(r0).f(r0) of the reported v_q
        v_q = b.total * mv.v_q
        v_run = 1.0 / np.real(1.0 / v_q)
        rows.append((b.domain_half_width * 1e9,
                     b.volume_term.real, b.volume_term.imag,
                     b.surface_term.real, b.surface_term.imag,
                     b.total.real, b.total.imag, v_run))
    write_csv(os.path.join(outdir, "modevol.csv"),
              ["domain_half_width_nm", "re_volume_term", "im_volume_term",
               "re_surface_term", "im_surface_term", "re_total", "im_total",
               "V_eff_running"], rows)
    try:
        r_c = caustic_radius(scan, rtol=cfg.norm_rtol)
    except QnmError:
        r_c = float("nan")
    freq = mode.frequency
    updates = {
        "v_eff_m2": mv.v_eff,
        "v_q_m2": {"real": mv.v_q.real, "imag": mv.v_q.imag},
        "r0_nm": [c * 1e9 for c in mv.r0],
        "r_caustic_nm": r_c * 1e9,
        "purcell_factor": purcell_factor(freq.quality_factor, mv.v_eff,
                                         2 * np.pi * C0 / freq.omega,
                                         cfg.bg.n_b),
    }
    if cfg.dipoles:
        r_a, n_a = cfg.dipoles[0]
        updates["eta_dipole"] = eta_factor(
            mode.value_at([r_a])[0], n_a, freq.omega, mv.v_eff, freq.omega,
            freq.gamma, cfg.bg.eps_b)
    _update_report(outdir, updates)
    return mv


def _build_models(cfg, mode):
    reg = RegularizedField(mode, cfg.geometry, cfg.material, cfg.bg)
    table = {
        "f": lambda: mode_green_model(mode, cfg.bg),
        "far": lambda: far_green_model(reg),
        "out": lambda: out_green_model(reg),
        "far+born": lambda: born_green_model(reg),
    }
    return [table[name]() for name in cfg.variants]


def _columns(cfg, models):
    """Column suffixes in CSV order: one per model, the oracle last."""
    return [m.name for m in models] \
        + (["oracle"] if cfg.oracle_enabled else [])


def oracle_se(cfg: RunConfig, r_a, n_a, omega):
    """Full-wave reference emission rate at ``r_a``: the scattered self
    Green function, a sample of the dipole's own scattered field at
    ``r_a``."""
    d = Dipole(position=tuple(r_a), orientation=n_a)
    return se_from_scattered(
        scattered_green(cfg, d.position, d.orientation, d.position,
                        d.orientation, omega), omega, cfg.bg)


def oracle_propagator(cfg: RunConfig, r_a, r_b, omega):
    """Full-wave reference |G_yy(r_b, r_a)|^2, normalized as the models of
    ``propagator.csv``: the analytic background term plus a sample at
    ``r_b`` of the scattered field of the y-dipole at ``r_a``."""
    n_y = (0.0, 1.0)
    return propagator_from_scattered(
        scattered_green(cfg, r_a, n_y, r_b, n_y, omega), r_b, r_a, n_y,
        omega, cfg.bg)


def _face_point(geometry, standoff, axis):
    """The point ``standoff`` beyond the +x (+y) face, on the centre line."""
    (_, bx1), (_, by1) = geometry.bounding_box
    cx, cy = geometry.center
    return (bx1 + standoff, cy) if axis == "x" else (cx, by1 + standoff)


def _scan_path(cfg):
    return [_face_point(cfg.geometry, s, cfg.scan_axis)
            for s in cfg.scan_standoffs]


def stage_se(cfg: RunConfig, outdir):
    if not cfg.dipoles:
        log.info("no dipoles configured; skipping emission artifacts")
        return
    mode = _load_mode(cfg, outdir)
    models = _build_models(cfg, mode)
    freq = mode.frequency
    header = [f"f_a_{c}" for c in _columns(cfg, models)]

    def row(r, n, w, with_oracle):
        """F_a of every model at (r, n, w), then, with the oracle on, its
        value where asked and NaN elsewhere."""
        vals = [se_enhancement(m, r, n, w) for m in models]
        if cfg.oracle_enabled:
            vals.append(oracle_se(cfg, r, n, w) if with_oracle else math.nan)
        return vals

    # spectrum at the first configured dipole
    r_a, n_a = cfg.dipoles[0]
    ws = freq.omega + np.linspace(-1, 1, cfg.spectrum_points) \
        * cfg.spectrum_half_gammas * freq.gamma
    write_csv(os.path.join(outdir, "spectrum.csv"), ["omega_thz"] + header,
              [(w / (2 * np.pi * 1e12),
                *row(r_a, n_a, w, i % cfg.oracle_spectrum_stride == 0))
               for i, w in enumerate(ws)])
    if cfg.scan_standoffs:
        checkpoints = set(cfg.oracle_scan_checkpoints)
        write_csv(os.path.join(outdir, "distance.csv"),
                  ["standoff_nm"] + header,
                  [(s * 1e9, *row(p, cfg.scan_orientation, freq.omega,
                                  i in checkpoints))
                   for i, (s, p) in enumerate(zip(cfg.scan_standoffs,
                                                  _scan_path(cfg)))])


def stage_propagate(cfg: RunConfig, outdir):
    if cfg.prop_source_standoff is None:
        return
    mode = _load_mode(cfg, outdir)
    models = _build_models(cfg, mode)
    omega = mode.frequency.omega
    r_a = _face_point(cfg.geometry, cfg.prop_source_standoff, "x")
    n_y = (0.0, 1.0)
    checkpoints = set(cfg.oracle_scan_checkpoints)
    rows = []
    for i, d in enumerate(cfg.prop_distances):
        # every model, then the oracle where asked and NaN elsewhere
        r_b = (r_a[0] + d, r_a[1])
        vals = [propagator_from_scattered(
            n_y @ m.scattered(np.asarray(r_b), np.asarray(r_a), omega) @ n_y,
            r_b, r_a, n_y, omega, cfg.bg) for m in models]
        if cfg.oracle_enabled:
            vals.append(oracle_propagator(cfg, r_a, r_b, omega)
                        if i in checkpoints else math.nan)
        rows.append((r_b[0] * 1e9, r_b[1] * 1e9, *vals))
    write_csv(os.path.join(outdir, "propagator.csv"),
              ["x_nm", "y_nm"] + [f"prop_{c}" for c in _columns(cfg, models)],
              rows)


def _scan_column(outdir, name, points):
    """Column ``name`` of ``distance.csv`` at the given scan rows, read back
    as the emission stage wrote it (17 digits, so exact)."""
    path = os.path.join(outdir, "distance.csv")
    column = []
    if os.path.exists(path):
        with open(path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        if name in rows[0]:
            k = rows[0].index(name)
            column = [float(row[k]) for row in rows[1:]]
    values = [column[i] if i < len(column) else math.nan for i in points]
    if any(math.isnan(v) for v in values):
        raise QnmError(f"{path} holds no {name} value at the scan "
                       "checkpoints; run 'qnm se' with the oracle on first")
    return values


def stage_validate(cfg: RunConfig, outdir):
    """Compare the far model against the full-wave oracle on resonance.

    Both values are the ones ``stage_se`` wrote to ``distance.csv`` at the
    scan checkpoints, so validate computes nothing and loads no mode.
    With the oracle off, no dipole configured (so no emission stage wrote a
    scan) or no checkpoint, nothing is compared: ``oracle_checks`` is empty
    and ``tolerances_met`` is null, never a pass.  The config keeps every
    checkpoint on the scan path.
    """
    points = cfg.oracle_scan_checkpoints \
        if cfg.oracle_enabled and cfg.dipoles else []
    checks = {}
    if points:
        far = _scan_column(outdir, "f_a_far", points)
        oracle = _scan_column(outdir, "f_a_oracle", points)
        for i, f_model, f_oracle in zip(points, far, oracle):
            rel = abs(f_model - f_oracle) / abs(f_oracle)
            checks[f"standoff_{cfg.scan_standoffs[i] * 1e9:.3g}nm"] = {
                "far_model": f_model, "oracle": f_oracle, "rel_diff": rel,
                "within_10pct": bool(rel < 0.10),
            }
    ok = all(c["within_10pct"] for c in checks.values()) if checks else None
    return _update_report(outdir, {"oracle_checks": checks,
                                   "tolerances_met": ok})


def run_pipeline(cfg: RunConfig, outdir):
    os.makedirs(outdir, exist_ok=True)
    # find clears every artifact of an earlier run; the stages add to the
    # report
    stage_find(cfg, outdir)
    stage_normalize(cfg, outdir)
    stage_modevol(cfg, outdir)
    stage_se(cfg, outdir)
    stage_propagate(cfg, outdir)
    stage_validate(cfg, outdir)


# -- command line -------------------------------------------------------------


def main(argv=None):
    # built per call, so a stage replaced on this module is the one called
    commands = {"find": stage_find, "normalize": stage_normalize,
                "modevol": stage_modevol, "se": stage_se,
                "propagate": stage_propagate, "validate": stage_validate,
                "run": run_pipeline}
    parser = argparse.ArgumentParser(
        prog="qnm",
        description="Quasinormal modes and emission enhancement of 2D "
                    "metal nanoresonators")
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="qnm-out")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("QNM_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    try:
        cfg = RunConfig.load(args.config)
        os.makedirs(args.out, exist_ok=True)
        commands[args.command](cfg, args.out)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except QnmError as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
