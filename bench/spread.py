"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --seeds 1-10 [--workloads rod-greens,...]
                            [--out summary.json]

Runs ``bench/run.py`` once per seed and workload, one after the other, with
``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.  Compare two
commits by running this on each with the same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
               "workloads": {}}
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["machine"] = json.loads(next(
                ln for ln in lines if ln.startswith("machine "))[8:])
            print(wl, seed, json.dumps(result), flush=True)
            if not result["correct"]:
                print("  output checks failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": vals}
            print("  %-20s median %-12.6g spread %.4f  bound %s"
                  % (name, med, rows[name]["spread"], bounds.get(name)))
        summary["workloads"][wl] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
