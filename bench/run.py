"""Benchmark of the paper-rod pipeline, the Green-model queries and the
full-wave oracle.  Run from the repository root:

    python3 bench/run.py --workload rod-greens --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps every layer and reports per-layer counts and times instead
(see ``tracer.py``).  The program is imported from ``src/`` of the
checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, the output checks and the
machine.  Result and span files go to ``.bench_out/``.

Workloads, layers and the reasons for both are in ``NOTES.md``.
"""

import os

# Fixed before numpy loads, and identical for every commit measured.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "2"
for _var in THREAD_ENV:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import PAPER_CONFIG, WORKLOADS, Context  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# import cost of the package, timed in a fresh interpreter
_IMPORT_PROBE = ("import sys, time\n"
                 "t = time.perf_counter()\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import qnmlab.cli\n"
                 "print(time.perf_counter() - t)\n")


def _fail(msg):
    print("bench: " + msg, file=sys.stderr)
    return 2


def machine():
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_scipy": "%s %s" % (sblas.get("name"), sblas.get("version")),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def import_seconds(repeats):
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def closed_loop(op, inputs, fixed, seconds):
    """One client: at least ``fixed`` operations, then more until ``seconds``
    have passed.  Returns (time of the first ``fixed``, latencies of the
    successful operations, attempted, failed)."""
    lat, attempted, failed = [], 0, 0
    batch = None
    t0 = time.perf_counter()
    for q in inputs:
        if attempted == fixed:
            batch = time.perf_counter() - t0
            if batch >= seconds:
                break
        elif attempted > fixed and time.perf_counter() - t0 >= seconds:
            break
        attempted += 1
        t = time.perf_counter()
        if op(q):
            lat.append(time.perf_counter() - t)
        else:
            failed += 1
    return batch, lat, attempted, failed


def run_untraced(wl, ctx, seed, seconds):
    setup_times = []
    for _ in range(wl.setup_repeats):
        t = time.perf_counter()
        wl.setup(ctx)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_seconds(3) + statistics.median(setup_times)

    inputs = wl.inputs(ctx, numpy.random.default_rng(seed))
    wall_s, lat, attempted, failed = closed_loop(wl.session(ctx), inputs,
                                                 wl.fixed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not lat:
        raise RuntimeError("no operation succeeded")
    acc = wl.accuracy(ctx)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_p50_ms": (float(numpy.percentile(lat, 50)) * 1e3, "ms"),
        "op_p95_ms": (float(numpy.percentile(lat, 95)) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "pole_err_rel": (acc["pole_err_rel"], "1"),
        "norm_gap_rel": (acc["norm_gap_rel"], "1"),
        "far_oracle_gap_p50": (statistics.median(acc["far_oracle_gaps"]),
                               "1"),
    }
    notes = {"ops_ok": len(lat), "fail_ratio": failed / attempted,
             "setup_repeats_s": setup_times,
             "far_oracle_probe_gaps": acc["far_oracle_gaps"]}
    if ctx.far_oracle_gaps:
        # per-query gaps swing with the draws (0.001-0.6), so their median
        # is reported beside the metric, not bounded
        notes["far_oracle_gap_seeded_p50"] = statistics.median(
            ctx.far_oracle_gaps)
    return metrics, attempted, failed, notes


def run_traced(wl, ctx, seed, spans_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        wl.setup(ctx)
        tracer.recording = False
        inputs = wl.inputs(ctx, numpy.random.default_rng(seed))
        queries = [next(inputs) for _ in range(wl.trace_fixed)]
        attempted = failed = 0
        times = []
        for traced in (False, True):  # same inputs, fresh session each
            op = wl.session(ctx)
            t0 = time.perf_counter()
            for q in queries:
                tracer.recording = traced
                ok = tracer.span("bench.op", op, q)
                tracer.recording = False
                attempted += 1
                failed += not ok
            times.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    metrics = tracer.per_layer()
    metrics["trace.untraced_s"] = (times[0], "s")
    metrics["trace.traced_s"] = (times[1], "s")
    metrics["trace.overhead_s"] = (times[1] - times[0], "s")
    return metrics, attempted, failed, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qnmlab", "__init__.py")):
        return _fail("no qnmlab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import qnmlab
    if os.path.dirname(os.path.dirname(os.path.abspath(qnmlab.__file__))) \
            != SRC:
        return _fail("qnmlab was imported from %s, not the checkout"
                     % qnmlab.__file__)
    if not os.path.isfile(os.path.join(ROOT, PAPER_CONFIG)):
        return _fail("missing %s" % PAPER_CONFIG)
    wl = WORKLOADS[args.workload]

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(ROOT, workdir)
    try:
        with warnings.catch_warnings():
            # discretization warnings of the solver: same on every run
            warnings.simplefilter("ignore")
            if args.trace:
                metrics, attempted, failed, notes = run_traced(
                    wl, ctx, args.seed,
                    os.path.join(OUT, "spans-%s.json" % tag))
            else:
                metrics, attempted, failed, notes = run_untraced(
                    wl, ctx, args.seed, args.seconds)
            checks = wl.checks(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # "not checked" is neither a pass nor a failure
    correct = all(v is True or v == "not checked" for v in checks.values())
    info = machine()
    for name, (value, unit) in metrics.items():
        print("%-34s %.6g %s" % (name, value, unit))
    for name, value in notes.items():
        if isinstance(value, (int, float)):
            print("info  %-28s %.6g" % (name, value))
    for name, value in checks.items():
        print("check %-28s %s" % (name, "pass" if value is True else
                                  "FAIL" if value is False else value))
    print("machine " + json.dumps(info, sort_keys=True))
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": info, "checks": checks, "notes": notes,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True, default=float)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
