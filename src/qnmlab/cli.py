"""Batch front end: parse a run config, orchestrate the pipeline
(find -> normalize -> mode volume -> emission -> propagator -> validate)
and emit deterministic CSV artifacts plus a machine-readable report.

Artifacts in the output directory:

* ``mode.field``      binary mode container (raw after ``find``, normalized
                      after ``normalize``)
* ``modevol.csv``     norm breakdown and running mode volume vs clearance
* ``spectrum.csv``    emission enhancement vs frequency per Green model
* ``distance.csv``    on-resonance enhancement vs standoff per model
* ``propagator.csv``  normalized |G_yy|^2 vs distance per model
* ``report.json``     eigenfrequency, Q, V_eff, caustic radius, tolerance
                      flags

Identical config and build produce byte-identical CSVs: fixed column
formats (17 significant digits), fixed reduction orders, no timestamps.
``QNM_LOG`` selects the log level.
"""

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .background import im_green_b_diag
from .config import ConfigError, RunConfig
from .core import Background, Dipole, DomainError, QnmError
from .dyson import RegularizedField
from .normalize import (
    caustic_radius,
    inner_product,
    mode_volume,
    norm_scan,
    normalize_mode,
)
from .observables import (
    born_green_model,
    distance_scan,
    far_green_model,
    mode_green_model,
    out_green_model,
    se_enhancement,
    se_from_scattered,
)
from .solver import (
    NearToFar,
    PoleSearch,
    assemble,
    find_qnm,
    load_mode,
    save_mode,
    solve_dipole,
)
from .core import GridSpec, PmlSpec

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


def parallel_map(fn, items, threads=1):
    """Order-preserving map; results are independent of execution order."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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


def _load_normalized(outdir):
    path = os.path.join(outdir, MODE_FILE)
    if not os.path.exists(path):
        raise QnmError(f"{path} not found; run 'qnm find' (and 'normalize') "
                       "first")
    return load_mode(path)


# -- pipeline stages ----------------------------------------------------------


def stage_find(cfg: RunConfig, outdir, resolution_override=None):
    grid = cfg.grid
    if resolution_override is not None:
        h = resolution_override
        half = round(grid.extent[0][1] / h) * h
        grid = GridSpec(extent=((-half, half), (-half, half)), h=h,
                        pml=grid.pml)
    search = PoleSearch(omega_guess=cfg.omega_guess,
                        rel_tol=cfg.pole_rel_tol, max_iter=cfg.pole_max_iter)
    mode = find_qnm(grid, cfg.geometry, cfg.material, cfg.bg, search,
                    symmetry=cfg.symmetry)
    save_mode(mode, os.path.join(outdir, MODE_FILE))
    freq = mode.frequency
    _update_report(outdir, {
        "eigenfrequency_thz": {"real": freq.omega / (2 * np.pi * 1e12),
                               "imag": -freq.gamma / (2 * np.pi * 1e12)},
        "quality_factor": freq.quality_factor,
        "pole_residual": mode.residual,
        "zero_contrast": False,
    })
    log.info("eigenfrequency %.3f - %.3fi THz (Q=%.2f)",
             freq.omega / 2 / np.pi / 1e12, freq.gamma / 2 / np.pi / 1e12,
             freq.quality_factor)
    return mode


def stage_normalize(cfg: RunConfig, outdir):
    mode = _load_normalized(outdir)
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
    mode = _load_normalized(outdir)
    if mode.norm_state != "normalized":
        raise QnmError("mode is not normalized; run 'qnm normalize' first")
    scan = norm_scan(mode, cfg.material, cfg.bg, cfg.norm_clearances)
    mv = mode_volume(mode, cfg.bg)
    ff0 = np.sum(mode.value_at([mv.r0])[0] ** 2)
    rows = []
    for b in scan:
        # running V_eff: normalize against this clearance's total
        v_q = b.total / (cfg.bg.eps_b * ff0)
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
    _update_report(outdir, {
        "v_eff_m2": mv.v_eff,
        "v_q_m2": {"real": mv.v_q.real, "imag": mv.v_q.imag},
        "r0_nm": [c * 1e9 for c in mv.r0],
        "r_caustic_nm": r_c * 1e9,
    })
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


def oracle_grid(cfg: RunConfig, positions, margin=0.35e-6):
    """Grid sized to hold the resonator and the given dipole positions."""
    h = cfg.grid.h
    (bx0, bx1), (by0, by1) = cfg.geometry.bounding_box
    xs = [bx0, bx1] + [p[0] for p in positions]
    ys = [by0, by1] + [p[1] for p in positions]
    pml = cfg.grid.pml
    half_x = max(max(np.abs(xs)) + margin + pml.cells * h, 64 * h)
    half_y = max(max(np.abs(ys)) + margin + pml.cells * h, 64 * h)
    half_x = (round(half_x / h) // 2 + 1) * 2 * h / 2
    half_y = (round(half_y / h) // 2 + 1) * 2 * h / 2
    return GridSpec(extent=((-half_x, half_x), (-half_y, half_y)), h=h,
                    pml=pml)


def oracle_se(cfg: RunConfig, r_a, n_a, omega):
    """Full-wave reference emission rate: one two-sided linear solve."""
    grid = oracle_grid(cfg, [r_a])
    op = assemble(grid, cfg.geometry, cfg.material, cfg.bg, omega)
    sol = solve_dipole(op, Dipole(position=tuple(r_a), orientation=n_a))
    return se_from_scattered(sol.self_scattered_green(), omega, cfg.bg)


def _scan_path(cfg):
    (bx0, bx1), (by0, by1) = cfg.geometry.bounding_box
    path = []
    for s in cfg.scan_standoffs:
        if cfg.scan_axis == "x":
            path.append((bx1 + s, 0.0))
        else:
            path.append((0.0, by1 + s))
    return path


def stage_se(cfg: RunConfig, outdir, threads=1):
    if cfg.zero_contrast:
        _write_zero_contrast(cfg, outdir)
        return
    if not cfg.dipoles:
        log.info("no dipoles configured; skipping emission artifacts")
        return
    mode = _load_normalized(outdir)
    models = _build_models(cfg, mode)
    freq = mode.frequency
    # spectrum at the first configured dipole
    r_a, n_a = cfg.dipoles[0]
    ws = freq.omega + np.linspace(-1, 1, cfg.spectrum_points) \
        * cfg.spectrum_half_gammas * freq.gamma
    oracle_cols = cfg.oracle_enabled

    def one_freq(i_w):
        i, w = i_w
        vals = [se_enhancement(m, r_a, n_a, w) for m in models]
        if oracle_cols and i % cfg.oracle_spectrum_stride == 0:
            vals.append(oracle_se(cfg, r_a, n_a, w))
        elif oracle_cols:
            vals.append(float("nan"))
        return vals

    results = parallel_map(one_freq, list(enumerate(ws)), threads)
    rows = [(w / (2 * np.pi * 1e12), *vals) for w, vals in zip(ws, results)]
    columns = _columns(cfg, models)
    write_csv(os.path.join(outdir, "spectrum.csv"),
              ["omega_thz"] + [f"f_a_{c}" for c in columns], rows)

    if cfg.scan_standoffs:
        n_scan = cfg.scan_orientation
        oracle = (lambda p: oracle_se(cfg, p, n_scan, freq.omega)) \
            if oracle_cols else None
        records = distance_scan(models, _scan_path(cfg), n_scan, freq.omega,
                                oracle=oracle,
                                oracle_checkpoints=cfg.oracle_scan_checkpoints)
        rows = [(s * 1e9, *(rec.f_a[c] for c in columns))
                for s, rec in zip(cfg.scan_standoffs, records)]
        write_csv(os.path.join(outdir, "distance.csv"),
                  ["standoff_nm"] + [f"f_a_{c}" for c in columns], rows)


def _write_zero_contrast(cfg, outdir):
    log.warning("zero-contrast geometry: emission enhancement is unity")
    ws = np.linspace(0.9, 1.1, cfg.spectrum_points) * abs(cfg.omega_guess)
    rows = [(w / (2 * np.pi * 1e12), 1.0) for w in ws]
    write_csv(os.path.join(outdir, "spectrum.csv"),
              ["omega_thz", "f_a_background"], rows)
    if cfg.scan_standoffs:
        write_csv(os.path.join(outdir, "distance.csv"),
                  ["standoff_nm", "f_a_background"],
                  [(s * 1e9, 1.0) for s in cfg.scan_standoffs])
    _update_report(outdir, {"zero_contrast": True})


def stage_propagate(cfg: RunConfig, outdir):
    if cfg.zero_contrast or cfg.prop_source_standoff is None:
        return
    mode = _load_normalized(outdir)
    models = _build_models(cfg, mode)
    freq = mode.frequency
    omega = freq.omega
    (bx0, bx1), _ = cfg.geometry.bounding_box
    r_a = (bx1 + cfg.prop_source_standoff, 0.0)
    norm = im_green_b_diag(omega, cfg.bg, dim=2) ** 2
    n_y = (0.0, 1.0)
    rows = []
    oracle_vals = {}
    if cfg.oracle_enabled and cfg.prop_distances:
        oracle_vals = _oracle_propagator(cfg, r_a, omega,
                                         cfg.oracle_scan_checkpoints)
    for i, d in enumerate(cfg.prop_distances):
        r_b = (r_a[0] + d, 0.0)
        vals = []
        for m in models:
            g = m.full(np.asarray(r_b), np.asarray(r_a), omega)
            vals.append(abs(n_y @ g @ n_y) ** 2 / norm)
        if cfg.oracle_enabled:
            vals.append(oracle_vals.get(i, float("nan")))
        rows.append((r_b[0] * 1e9, r_b[1] * 1e9, *vals))
    write_csv(os.path.join(outdir, "propagator.csv"),
              ["x_nm", "y_nm"] + [f"prop_{c}" for c in _columns(cfg, models)],
              rows)


def _oracle_propagator(cfg, r_a, omega, checkpoints):
    """Total |G_yy|^2 at selected scan indices from one full-wave solve,
    extended beyond the grid by the near-to-far contour transform."""
    from .background import green_b_2d
    grid = oracle_grid(cfg, [r_a])
    op = assemble(grid, cfg.geometry, cfg.material, cfg.bg, omega)
    sol = solve_dipole(op, Dipole(position=r_a, orientation=(0.0, 1.0)))
    (ix0, ix1), (iy0, iy1) = grid.interior_box(margin_cells=4)
    contour_half = 0.75 * min(ix1, iy1)
    ntf = NearToFar((sol.ex_scat, sol.ey_scat), grid, cfg.bg, omega,
                    rect=((-contour_half, contour_half),
                          (-contour_half, contour_half)))
    norm = im_green_b_diag(omega, cfg.bg, dim=2) ** 2
    out = {}
    for i in checkpoints:
        if i >= len(cfg.prop_distances):
            continue
        r_b = np.array([r_a[0] + cfg.prop_distances[i], 0.0])
        if abs(r_b[0]) < contour_half - 10 * grid.h and \
                abs(r_b[1]) < contour_half - 10 * grid.h:
            scat = sol.scattered_field_at([r_b])[0]
        else:
            scat = ntf.scattered_field_at([r_b])[0]
        g_tot = scat[1] + (green_b_2d(r_b, np.asarray(r_a), omega,
                                      cfg.bg) @ [0.0, 1.0])[1]
        out[i] = abs(g_tot) ** 2 / norm
    return out


def stage_validate(cfg: RunConfig, outdir):
    """Compare the far model against the full-wave oracle on resonance.

    With the oracle off, or no checkpoint on the scan path, nothing is
    compared: ``oracle_checks`` is empty and ``tolerances_met`` is null,
    never a pass.
    """
    if cfg.zero_contrast:
        return
    path = _scan_path(cfg)
    checkpoints = cfg.oracle_scan_checkpoints if cfg.oracle_enabled else []
    points = [i for i in checkpoints if i < len(path)]
    checks = {}
    if points:
        mode = _load_normalized(outdir)
        far = far_green_model(
            RegularizedField(mode, cfg.geometry, cfg.material, cfg.bg))
        omega = mode.frequency.omega
        for i in points:
            p = path[i]
            f_model = se_enhancement(far, p, cfg.scan_orientation, omega)
            f_oracle = oracle_se(cfg, p, cfg.scan_orientation, omega)
            rel = abs(f_model - f_oracle) / abs(f_oracle)
            checks[f"standoff_{cfg.scan_standoffs[i] * 1e9:.3g}nm"] = {
                "far_model": f_model, "oracle": f_oracle, "rel_diff": rel,
                "within_10pct": bool(rel < 0.10),
            }
    ok = all(c["within_10pct"] for c in checks.values()) if checks else None
    return _update_report(outdir, {"oracle_checks": checks,
                                   "tolerances_met": ok})


def run_pipeline(cfg: RunConfig, outdir, threads=1, resolution_override=None):
    os.makedirs(outdir, exist_ok=True)
    # every run rebuilds its report; the stages add to it
    report = os.path.join(outdir, REPORT_FILE)
    if os.path.exists(report):
        os.remove(report)
    if cfg.zero_contrast:
        _write_zero_contrast(cfg, outdir)
        return
    stage_find(cfg, outdir, resolution_override)
    stage_normalize(cfg, outdir)
    stage_modevol(cfg, outdir)
    stage_se(cfg, outdir, threads)
    stage_propagate(cfg, outdir)
    stage_validate(cfg, outdir)


# -- command line -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qnm",
        description="Quasinormal modes and emission enhancement of 2D "
                    "metal nanoresonators")
    parser.add_argument("command",
                        choices=["find", "normalize", "modevol", "se",
                                 "propagate", "validate", "run"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="qnm-out")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--resolution-override", type=float, default=None,
                        help="cell size in meters, replaces grid.h")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=os.environ.get("QNM_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)

    try:
        cfg = RunConfig.load(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "run":
            run_pipeline(cfg, args.out, args.threads,
                         args.resolution_override)
        elif args.command == "find":
            if cfg.zero_contrast:
                _write_zero_contrast(cfg, args.out)
            else:
                stage_find(cfg, args.out, args.resolution_override)
        elif args.command == "normalize":
            stage_normalize(cfg, args.out)
        elif args.command == "modevol":
            stage_modevol(cfg, args.out)
        elif args.command == "se":
            stage_se(cfg, args.out, args.threads)
        elif args.command == "propagate":
            stage_propagate(cfg, args.out)
        elif args.command == "validate":
            stage_validate(cfg, args.out)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except QnmError as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
