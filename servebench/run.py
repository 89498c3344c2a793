#!/usr/bin/env python3
"""Build and run bench_serve, the end-to-end serving benchmark.

Run from the root of the source tree:

  python3 servebench/run.py --workload W --seed N --seconds T --trace 0|1
      Builds bench_serve and provabs_server (Release, into $CARGO_TARGET_DIR
      or .bench_build), runs one workload, and prints as its last line one
      JSON object {correct, attempted, failed, metrics} holding exactly the
      metrics BENCHMARK.json lists: its end_to_end ones with --trace 0, its
      per_layer ones with --trace 1. Extra flags (--out, --spans) are passed
      through to bench_serve.

  python3 servebench/run.py --compare 'setA/*.json' 'setB/*.json' ...
      Each argument is one set of bench_serve --out files (a glob). Prints,
      per (workload, metric), each set's median and quartile spread, and
      each later set's change against the first; a change for the worse
      beyond the metric's BENCHMARK.json bound fails. Exits 1 on any failure.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
PACKAGE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the package; build output goes to stderr so
    stdout's last line stays the result."""
    out = build_dir()
    configure = ["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs, "--target", "bench_serve"]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} did not finish: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} failed")
    return os.path.join(out, "bench_serve")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, passthrough):
    spec = load_benchmark()
    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + passthrough
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("bench_serve timed out")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"bench_serve printed no result (exit {done.returncode})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"bench_serve did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return done.returncode


def spread(values):
    """Quartile distance over the median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(patterns):
    spec = load_benchmark()
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = []
    for pattern in patterns:
        files = sorted(glob.glob(pattern))
        if not files:
            fail(f"no files match {pattern}")
        values = {}
        for path in files:
            with open(path) as f:
                doc = json.load(f)
            for workload, body in doc["workloads"].items():
                for name, m in body["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
        sets.append(values)
    failures = 0
    print(f"{'workload':<22}{'metric':<34}" +
          "".join(f"{'set' + str(i) + ' median':>16}{'spread':>8}" for i in range(len(sets))) +
          f"{'change':>9}{'bound':>7}  verdict")
    for key in sorted(sets[0]):
        workload, name = key
        medians = [statistics.median(s[key]) if key in s else None for s in sets]
        row = f"{workload:<22}{name:<34}"
        for s, med in zip(sets, medians):
            row += f"{med:>16.6g}{spread(s[key]):>8.3f}" if med is not None else f"{'-':>24}"
        metric = info.get(name)
        verdict = ""
        worst = 0.0
        base = medians[0]
        for med in medians[1:]:
            if med is None or not base:
                continue
            change = (med - base) / abs(base)
            worse = change if metric and metric.get("better") == "lower" else -change
            worst = max(worst, worse) if metric else max(worst, abs(change))
        row += f"{worst:>9.3f}"
        if metric and "bound" in metric:
            verdict = "pass" if worst <= metric["bound"] else "FAIL"
            failures += verdict == "FAIL"
            row += f"{metric['bound']:>7.2f}  {verdict}"
        print(row)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs="+", metavar="GLOB")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args, passthrough)


if __name__ == "__main__":
    sys.exit(main())
