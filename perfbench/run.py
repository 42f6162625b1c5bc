#!/usr/bin/env python3
"""Builds the FRAPP benchmark from this checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the library beside it) in
Release under .bench_build/perfbench, runs the perfbench binary with the
same arguments from the checkout root, and passes its output through after
checking that the last line is a result naming exactly the metrics that
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer for
--trace 1). Exits non-zero, printing no result, when the build fails, the run
fails, or the result does not match.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    # Compiler output goes to stderr: stdout's last line belongs to the result.
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode))


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    table = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def check(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def main(argv):
    flag = argv.index("--trace") if "--trace" in argv else len(argv)
    trace = argv[flag + 1:flag + 2] == ["1"]
    build()
    binary = os.path.join(BUILD, "perfbench")
    try:
        done = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("perfbench did not finish: %s" % error)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("perfbench exited with %d" % done.returncode)
    check(lines[-1], trace)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
