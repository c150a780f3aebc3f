#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the
library from src/) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's
stdout passes through; its last line is the JSON result, whose metric
names are checked against BENCHMARK.json before this script exits.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], cwd=ROOT).returncode

    binary = build("perfbench")
    done = subprocess.run([binary] + argv, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    # The result must carry exactly the metrics BENCHMARK.json lists.
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {name: m.get("unit")
           for name, m in result.get("metrics", {}).items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want)
                       if got[n] != want[n])
        print("perfbench: metrics differ from BENCHMARK.json: missing "
              f"{missing}, unlisted {extra}, unit mismatch {units}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
