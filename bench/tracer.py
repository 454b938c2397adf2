"""Spans and counters recorded from outside ``qnmlab``.

``Tracer.install`` replaces the public functions of each layer with thin
wrappers that record a span (name, start, end, parent span) and a few
counters, and ``uninstall`` puts the originals back.  Nothing inside
``src/`` changes.  A function imported by name into another module
(``modes`` imports ``secant_root``; ``dyson`` imports ``green_b_2d``) is
looked up in that module at call time, so the wrapper is written into
every loaded ``qnmlab`` module that holds the original object.

Spans stay in memory until ``dump`` writes them out at the end of a run.
Untraced runs never install the wrappers, so they pay nothing.
"""

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# Span names double as metric stems: "<layer>.<what>" gives the per-layer
# metrics "<layer>.<what>_n" (calls) and "<layer>.<what>_s" (inclusive
# seconds).  Self time is summed per layer, the part before the first dot.
LAYERS = ("config", "fdfd", "modes", "roots", "normalize", "dyson",
          "background", "observables", "cli")
STAGES = ("find", "normalize", "modevol", "se", "propagate", "validate")
MODELS = ("f", "far", "out")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = {}
        self.eval_keys = set()
        self.recording = False
        self._stack = []
        self._patches = []

    # -- span recording ------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span when recording, plainly otherwise."""
        if not self.recording:
            return fn(*args, **kwargs)
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name(*args) if callable(name) else name
            tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[span_name + ".raised"] += 1
                raise
            finally:
                tracer.close()
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapped

    def patch_function(self, module, attr, name, after=None):
        """Wrap ``module.attr`` in every loaded qnmlab module holding it."""
        original = getattr(module, attr)
        wrapped = self._wrapper(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qnmlab" and \
                    mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, after=None):
        self._set(cls, attr, self._wrapper(name, cls.__dict__[attr], after))

    def uninstall(self):
        self.recording = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public functions of every layer (see module docstring)."""
        import scipy.sparse.linalg as spla

        from qnmlab import (background, cli, config, dyson, normalize,
                            observables)
        from qnmlab.solver import fdfd, modes, roots

        counts = self.counts

        load = config.RunConfig.__dict__["load"]  # a classmethod object
        self._set(config.RunConfig, "load", classmethod(
            self._wrapper("config.load", load.__func__)))

        # fdfd: assembly (background twins included), factorization, solve
        self.patch_method(fdfd.DiscreteOperator, "__init__", "fdfd.assemble")

        def after_factor(lu, *args, **kwargs):
            self.note_max("fdfd.factor_fill_nnz", lu.nnz)
        self._set(spla, "splu", self._wrapper("fdfd.factor", spla.splu,
                                              after_factor))

        rng = np.random.default_rng(0)

        def after_solve(x, op, b):
            # its own span, so the parent's self time leaves it out
            self.open("trace.check")
            r = np.linalg.norm(op.apply(x) - b)
            z = rng.standard_normal(len(x))
            a_norm = np.linalg.norm(op.apply(z)) / np.linalg.norm(z)
            self.close()
            # relative to b the residual grows with |x| as the secant nears
            # the pole; the normwise backward error does not
            self.note_max("fdfd.solve_residual_rel_max",
                          float(r / np.linalg.norm(b)))
            self.note_max("fdfd.solve_backward_err_max", float(
                r / (a_norm * np.linalg.norm(x) + np.linalg.norm(b))))
        self.patch_method(fdfd.DiscreteOperator, "solve", "fdfd.solve",
                          after_solve)

        # modes and roots
        self.patch_function(modes, "find_qnm", "modes.find")
        self.patch_function(modes, "driven_response", "modes.driven_response")

        def after_secant(out, *args, **kwargs):
            counts["roots.secant_steps"] += len(out[1]) - 2
        self.patch_function(roots, "secant_root", "roots.secant",
                            after_secant)
        self.patch_method(modes.ModeField, "value_at", "modes.value_at")

        def after_save(out, mode, path):
            counts["modes.io_bytes"] += os.path.getsize(path)

        def after_load(out, path):
            counts["modes.io_bytes"] += os.path.getsize(path)
        self.patch_function(modes, "save_mode", "modes.io", after_save)
        self.patch_function(modes, "load_mode", "modes.io", after_load)

        # normalize
        self.patch_function(normalize, "inner_product",
                            "normalize.inner_product")
        self.patch_function(normalize, "mode_volume", "normalize.mode_volume")

        # dyson: regularized-field builds and memoized evaluations
        self.patch_method(dyson.RegularizedField, "__init__",
                          "dyson.reg_build")

        def after_eval(out, reg, points, omega):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            counts["dyson.eval_points"] += len(pts)
            for r in pts:
                self.eval_keys.add((id(reg), r[0], r[1], complex(omega)))
        self.patch_method(dyson.RegularizedField, "eval", "dyson.eval",
                          after_eval)

        # background kernel: point pairs per call
        def after_kernel(out, r1, r2, *args):
            shape = np.broadcast_shapes(np.shape(r1)[:-1], np.shape(r2)[:-1])
            counts["background.kernel_pairs"] += int(np.prod(shape))
        self.patch_function(background, "green_b_2d", "background.kernel",
                            after_kernel)

        # observables, split by Green model
        self.patch_function(
            observables, "se_enhancement",
            lambda model, *args: "observables.se." + model.name)
        self.patch_method(observables.GreenModel, "full", "observables.full")

        # cli: stages, oracle, CSV writer
        for stage in STAGES:
            self.patch_function(cli, "stage_" + stage, "cli.stage." + stage)
        self.patch_function(cli, "oracle_se", "cli.oracle")

        def after_csv(out, path, *args):
            counts["cli.csv_bytes"] += os.path.getsize(path)
        self.patch_function(cli, "write_csv", "cli.csv", after_csv)

    # -- summaries -----------------------------------------------------------

    def _durations(self):
        """Inclusive and self seconds of every span."""
        incl = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += incl[i]
        return incl, incl - child

    def _under(self, i, name):
        """Whether span ``i`` has an ancestor called ``name``."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def per_layer(self):
        """Per-layer counts and seconds as metric name -> (value, unit)."""
        incl, self_s = self._durations()
        n = Counter()
        s = Counter()
        layer_self = Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            layer_self[name.split(".")[0]] += self_s[i]
            if not self._under(i, name):  # count nested same-name once
                n[name] += 1
                s[name] += incl[i]
        solve_self = sum(self_s[i] for i, sp in enumerate(self.spans)
                         if sp[0] == "fdfd.solve")
        factor_in_find = sum(1 for i, sp in enumerate(self.spans)
                             if sp[0] == "fdfd.factor"
                             and self._under(i, "modes.find"))
        poles = n["modes.find"]
        c = self.counts
        eval_pts = c["dyson.eval_points"]
        m = {
            "fdfd.factor_n": (n["fdfd.factor"], "count"),
            "fdfd.factor_s": (s["fdfd.factor"], "s"),
            "fdfd.factor_fill_nnz": (
                self.maxima.get("fdfd.factor_fill_nnz", 0), "count"),
            "fdfd.assemble_n": (n["fdfd.assemble"], "count"),
            "fdfd.assemble_s": (s["fdfd.assemble"], "s"),
            "fdfd.solve_n": (n["fdfd.solve"], "count"),
            "fdfd.trisolve_s": (solve_self, "s"),
            "fdfd.solve_residual_rel_max": (
                self.maxima.get("fdfd.solve_residual_rel_max", 0.0), "1"),
            "fdfd.solve_backward_err_max": (
                self.maxima.get("fdfd.solve_backward_err_max", 0.0), "1"),
            "modes.find_n": (poles, "count"),
            "modes.find_s": (s["modes.find"], "s"),
            "modes.secant_evals": (
                n["modes.driven_response"] / poles if poles else 0, "count"),
            "modes.factor_per_pole": (
                factor_in_find / poles if poles else 0, "count"),
            "roots.secant_steps": (
                c["roots.secant_steps"] / n["roots.secant"]
                if n["roots.secant"] else 0, "count"),
            "modes.value_at_n": (n["modes.value_at"], "count"),
            "modes.value_at_s": (s["modes.value_at"], "s"),
            "modes.io_s": (s["modes.io"], "s"),
            "modes.io_bytes": (c["modes.io_bytes"], "B"),
            "normalize.inner_product_n": (n["normalize.inner_product"],
                                          "count"),
            "normalize.inner_product_s": (s["normalize.inner_product"], "s"),
            "normalize.mode_volume_s": (s["normalize.mode_volume"], "s"),
            "dyson.reg_build_n": (n["dyson.reg_build"], "count"),
            "dyson.reg_build_s": (s["dyson.reg_build"], "s"),
            "dyson.eval_points": (eval_pts, "count"),
            "dyson.eval_s": (s["dyson.eval"], "s"),
            "dyson.eval_unique_ratio": (
                len(self.eval_keys) / eval_pts if eval_pts else 0, "1"),
            "background.kernel_pairs": (c["background.kernel_pairs"],
                                        "count"),
            "background.kernel_s": (s["background.kernel"], "s"),
            "observables.full_n": (n["observables.full"], "count"),
            "observables.full_s": (s["observables.full"], "s"),
            "cli.oracle_n": (n["cli.oracle"], "count"),
            "cli.oracle_fail_n": (c["cli.oracle.raised"], "count"),
            "cli.oracle_s": (s["cli.oracle"], "s"),
            "cli.csv_bytes": (c["cli.csv_bytes"], "B"),
            "config.load_s": (s["config.load"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for model in MODELS:
            m["observables.se_n." + model] = (
                n["observables.se." + model], "count")
            m["observables.se_s." + model] = (
                s["observables.se." + model], "s")
        for stage in STAGES:
            m["cli.stage_s." + stage] = (s["cli.stage." + stage], "s")
        for layer in LAYERS:
            m[layer + ".self_s"] = (layer_self[layer], "s")
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
