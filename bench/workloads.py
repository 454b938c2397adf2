"""The three workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload supplies

* ``setup(ctx)``: the work counted in ``setup_s`` after the imports;
* ``inputs(ctx, rng)``: an endless stream of operation inputs;
* ``session(ctx)``: a fresh callable answering one input, returning False
  for an operation that failed;
* ``accuracy(ctx)`` and ``checks(ctx)``: computed after the timed part.

Inputs come from ``numpy.random.default_rng(seed)``.  Standoffs are drawn
log-uniformly over the configured 5-500 nm range, one draw per stratum in
each block of queries, so every seed gets the same mix of near and far
positions.  The program sees only the generated positions, orientations
and frequencies.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

PAPER_CONFIG = os.path.join("configs", "paper-2d-rod.json")
# the rod pole quoted by the repository (demos/01_drude_dispersion.py), THz
REF_POLE_THZ = 415.863 - 37.176j
STANDOFF_NM = (5.0, 500.0)
PROBE_STANDOFFS_NM = (5.0, 20.0, 100.0)
CSV_FILES = ("modevol.csv", "spectrum.csv", "distance.csv", "propagator.csv")
POLE_RESIDUAL_MAX = 1e-8
N_Y = np.array([0.0, 1.0])


@dataclass(frozen=True)
class Query:
    kind: str            # "se": emitter at r_a; "prop": r_a to receiver r_b
    r_a: tuple
    n_a: tuple
    omega: float
    r_b: tuple = None


class Context:
    """Per-run state shared by a workload's hooks."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.cfg = None
        self.mode = None
        self.outs = []            # rod-pipeline output directories
        self.finite = {}          # query kind -> [all finite, count]
        self.far_oracle_gaps = []

    def record_finite(self, kind, values):
        ok = bool(np.all(np.isfinite(values)))
        entry = self.finite.setdefault(kind, [True, 0])
        entry[0] &= ok
        entry[1] += 1
        return ok

    def finite_checks(self, kinds):
        checks = {}
        for kind in kinds:
            ok, n = self.finite.get(kind, (False, 0))
            # a kind with no answered query fails: no vacuous pass
            checks[kind + "_values_finite"] = ok and n > 0
        return checks


# -- seeded inputs ------------------------------------------------------------


def _standoffs(rng, n):
    """``n`` log-uniform standoffs (m), one per stratum, in random order."""
    lo, hi = STANDOFF_NM
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo * (hi / lo) ** u * 1e-9


def _emitters(rng, cfg, n):
    """``n`` emitters (a multiple of 4) at stratified standoffs, each face of
    the rod taking a quarter of them, with random in-plane orientations."""
    faces = rng.permutation(np.arange(n) % 4)
    return [_emitter(rng, cfg, s, f)
            for s, f in zip(_standoffs(rng, n), faces)]


def _emitter(rng, cfg, standoff, face):
    """A point ``standoff`` off a side (0, 1) or tip (2, 3) face."""
    (bx0, bx1), (by0, by1) = cfg.geometry.bounding_box
    if face < 2:  # side faces, x = const
        pos = (bx1 + standoff if face == 0 else bx0 - standoff,
               rng.uniform(by0, by1))
    else:         # tip faces, y = const
        pos = (rng.uniform(bx0, bx1),
               by1 + standoff if face == 2 else by0 - standoff)
    th = rng.uniform(0.0, 2.0 * np.pi)
    return pos, (math.cos(th), math.sin(th))


def _detuned(rng, cfg, omega_tilde):
    """A real frequency inside the configured +-k gamma spectrum window."""
    half = cfg.spectrum_half_gammas * (-omega_tilde.imag)
    return omega_tilde.real + rng.uniform(-half, half)


# -- shared pieces ------------------------------------------------------------


def load_config(root):
    from qnmlab import config
    return config.RunConfig.load(os.path.join(root, PAPER_CONFIG))


def find_paper_mode(cfg):
    """Pole search and normalization of the configured mode, as the find and
    normalize stages do them, without their file I/O."""
    from qnmlab import normalize
    from qnmlab.solver import modes
    search = modes.PoleSearch(omega_guess=cfg.omega_guess,
                              rel_tol=cfg.pole_rel_tol,
                              max_iter=cfg.pole_max_iter)
    raw = modes.find_qnm(cfg.grid, cfg.geometry, cfg.material, cfg.bg,
                         search, symmetry=cfg.symmetry)
    scan = normalize.norm_scan(raw, cfg.material, cfg.bg, cfg.norm_clearances)
    return normalize.normalize_mode(raw, scan, rtol=cfg.norm_rtol)


def build_models(cfg, mode):
    """The f / far / out models, built as the emission stage builds them."""
    from qnmlab import dyson, observables
    reg = dyson.RegularizedField(mode, cfg.geometry, cfg.material, cfg.bg)
    return [observables.mode_green_model(mode, cfg.bg),
            observables.far_green_model(reg),
            observables.out_green_model(reg)]


def pole_err_rel(mode):
    pole_thz = mode.frequency.omega_tilde / (2e12 * np.pi)
    return abs(pole_thz - REF_POLE_THZ) / abs(REF_POLE_THZ)


def norm_gap_rel(cfg, mode):
    """Gap between the two normalization routes at the largest clearance;
    the pipeline itself never calls ``sauvan_norm``."""
    from qnmlab import normalize
    width = max(cfg.norm_clearances)
    total = normalize.inner_product(mode, cfg.material, cfg.bg, width).total
    sauvan = normalize.sauvan_norm(mode, cfg.material, cfg.bg, width)
    return abs(sauvan - total) / abs(total)


def far_and_oracle(cfg, far, r_a, n_a, omega):
    """(F_far, F_oracle); the oracle may raise ``DomainError``."""
    from qnmlab import cli, observables
    f_far = observables.se_enhancement(far, r_a, n_a, omega)
    return f_far, cli.oracle_se(cfg, r_a, n_a, omega)


def far_oracle_probe(cfg, mode):
    """Far-model gap to the oracle at fixed standoffs off the +x face on
    resonance (the validate stage's geometry), for the workloads that run
    no oracle queries of their own."""
    far = build_models(cfg, mode)[1]
    (_, bx1), _ = cfg.geometry.bounding_box
    gaps = []
    for s in PROBE_STANDOFFS_NM:
        f_far, f_oracle = far_and_oracle(cfg, far, (bx1 + s * 1e-9, 0.0),
                                         (0.0, 1.0), mode.frequency.omega)
        gaps.append(abs(f_far - f_oracle) / abs(f_oracle))
    return gaps


def mode_accuracy(ctx):
    """Accuracy of the mode in ``ctx``, computed outside the program."""
    return {"pole_err_rel": pole_err_rel(ctx.mode),
            "norm_gap_rel": norm_gap_rel(ctx.cfg, ctx.mode),
            "far_oracle_gaps": far_oracle_probe(ctx.cfg, ctx.mode)}


def _mode_setup(ctx):
    ctx.cfg = load_config(ctx.root)
    ctx.mode = None  # drop the previous repetition's mode first
    ctx.mode = find_paper_mode(ctx.cfg)


# -- rod-pipeline -------------------------------------------------------------


class RodPipeline:
    """``cli.run_pipeline`` on the paper config as shipped (oracle off), into
    a fresh output directory per run.  No random inputs: the seed is
    unused.  Bound by the six factorizations of the pole search."""

    name = "rod-pipeline"
    fixed = 2          # two runs, so their CSVs can be compared
    trace_fixed = 1    # one untraced and one traced run
    setup_repeats = 3

    def setup(self, ctx):
        ctx.cfg = load_config(ctx.root)

    def inputs(self, ctx, rng):
        return itertools.repeat(None)

    def session(self, ctx):
        from qnmlab import cli

        def op(_):
            out = os.path.join(ctx.workdir, "run%d" % len(ctx.outs))
            ctx.outs.append(out)
            cli.run_pipeline(ctx.cfg, out)
            return True
        return op

    def accuracy(self, ctx):
        from qnmlab import cli
        from qnmlab.solver import modes
        ctx.mode = modes.load_mode(os.path.join(ctx.outs[0], cli.MODE_FILE))
        return mode_accuracy(ctx)

    def checks(self, ctx):
        from qnmlab import cli

        def read(out, name):
            with open(os.path.join(out, name), "rb") as fh:
                return fh.read()

        def finite(text):
            rows = text.decode().splitlines()[1:]
            return bool(rows) and all(
                math.isfinite(float(v)) for row in rows
                for v in row.split(","))

        first = {name: read(ctx.outs[0], name) for name in CSV_FILES}
        with open(os.path.join(ctx.outs[0], cli.REPORT_FILE)) as fh:
            report = json.load(fh)
        # "oracle_checks": {} next to "tolerances_met": true means nothing
        # was compared: report it as not checked, never as a pass
        oracle_checks = report.get("oracle_checks", {})
        return {
            "csv_byte_identical": len(ctx.outs) >= 2 and all(
                read(out, name) == first[name]
                for out in ctx.outs[1:] for name in CSV_FILES),
            "csv_finite": all(finite(read(out, name))
                              for out in ctx.outs for name in CSV_FILES),
            "pole_residual_small":
                report["pole_residual"] < POLE_RESIDUAL_MAX,
            "oracle_validation": (
                all(c["within_10pct"] for c in oracle_checks.values())
                if oracle_checks else "not checked"),
        }


# -- rod-greens ---------------------------------------------------------------


class RodGreens:
    """Green-model queries on the normalized paper mode: emitters through
    ``se_enhancement`` for every model and two-point propagator queries
    through ``GreenModel.full``.  No factorization in the timed part."""

    name = "rod-greens"
    fixed = 300
    trace_fixed = 300
    setup_repeats = 2
    setup = staticmethod(_mode_setup)

    def inputs(self, ctx, rng):
        """Blocks of 10, shuffled: 8 emitters, one per standoff stratum, and
        2 propagator queries with the source on the +x face and the
        receiver 50 nm - 2 um further along +x."""
        cfg, wt = ctx.cfg, ctx.mode.frequency.omega_tilde
        (_, bx1), (by0, by1) = cfg.geometry.bounding_box
        while True:
            block = []
            for pos, n_a in _emitters(rng, cfg, 8):
                block.append(Query("se", pos, n_a, _detuned(rng, cfg, wt)))
            for s in _standoffs(rng, 2):
                r_a = (bx1 + s, rng.uniform(by0, by1))
                d = 50e-9 * (2e-6 / 50e-9) ** rng.random()
                block.append(Query("prop", r_a, (0.0, 1.0),
                                   _detuned(rng, cfg, wt),
                                   r_b=(r_a[0] + d, r_a[1])))
            for i in rng.permutation(len(block)):
                yield block[i]

    def session(self, ctx):
        from qnmlab import background, observables
        models = []

        def op(q):
            if not models:  # built inside the first operation's time
                models.extend(build_models(ctx.cfg, ctx.mode))
            if q.kind == "se":
                vals = [observables.se_enhancement(m, q.r_a, q.n_a, q.omega)
                        for m in models]
            else:
                norm = background.im_green_b_diag(q.omega, ctx.cfg.bg,
                                                  dim=2) ** 2
                r_a, r_b = np.asarray(q.r_a), np.asarray(q.r_b)
                vals = [abs(N_Y @ m.full(r_b, r_a, q.omega) @ N_Y) ** 2 / norm
                        for m in models]
            return ctx.record_finite(q.kind, vals)
        return op

    accuracy = staticmethod(mode_accuracy)

    def checks(self, ctx):
        return ctx.finite_checks(("se", "prop"))


# -- rod-oracle ---------------------------------------------------------------


class RodOracle:
    """Full-wave oracle queries through ``cli.oracle_se``, each answered by
    the far model too.  A dipole that the oracle grid puts inside its PML
    raises ``DomainError``; that counts as a failed operation."""

    name = "rod-oracle"
    fixed = 24
    trace_fixed = 24
    setup_repeats = 2
    setup = staticmethod(_mode_setup)

    def inputs(self, ctx, rng):
        """Blocks of 8 emitters, one per standoff stratum; 6 of them at the
        resonance frequency, 2 detuned inside the spectrum window."""
        cfg, wt = ctx.cfg, ctx.mode.frequency.omega_tilde
        while True:
            detuned = set(rng.permutation(8)[:2].tolist())
            for i, (pos, n_a) in enumerate(_emitters(rng, cfg, 8)):
                omega = _detuned(rng, cfg, wt) if i in detuned else wt.real
                yield Query("se", pos, n_a, omega)

    def session(self, ctx):
        from qnmlab.core import DomainError
        far = []

        def op(q):
            if not far:
                far.append(build_models(ctx.cfg, ctx.mode)[1])
            try:
                f_far, f_oracle = far_and_oracle(ctx.cfg, far[0], q.r_a,
                                                 q.n_a, q.omega)
            except DomainError:  # dipole inside the oracle's PML, see NOTES
                return False
            ctx.far_oracle_gaps.append(abs(f_far - f_oracle) / abs(f_oracle))
            return ctx.record_finite("oracle", [f_far, f_oracle])
        return op

    accuracy = staticmethod(mode_accuracy)

    def checks(self, ctx):
        return ctx.finite_checks(("oracle",))


WORKLOADS = {w.name: w for w in (RodPipeline(), RodGreens(), RodOracle())}
