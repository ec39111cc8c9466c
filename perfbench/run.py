#!/usr/bin/env python3
"""Build and run the phone-fleet serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (a CMake package that compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Its last stdout line is
the result JSON. --smoke runs every workload of BENCHMARK.json, and fleet_fresh, for one
second in both trace modes and fails if any named metric is missing, not
finite, or (per-layer) absent from layer_map.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads fleetbench runs that BENCHMARK.json leaves out (see README).
EXTRA_WORKLOADS = ["fleet_fresh"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        sys.exit("perfbench: library sources not found in "
                 + os.path.join(ROOT, "src"))
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fleetbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "fleetbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload with stdout captured; returns (code, lines)."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    problems = ["%s has no entry in layer_map.json" % name
                for name in expected[1] if name not in layer_map]
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(binary, workload, 1, 1, trace)
            label = "%s trace %d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            metrics = result.get("metrics", {})
            if not result.get("correct"):
                problems.append(label + ": incorrect replies")
            for name in expected[trace]:
                value = metrics.get(name, {}).get("value")
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append("%s: %s is %r" % (label, name, value))
            extra = sorted(set(metrics) - set(expected[trace]))
            if extra:
                problems.append("%s: unnamed metrics %s" % (label, extra))
            print("smoke %-24s ok: %d metrics, %d requests"
                  % (label, len(metrics), result["attempted"]))
    for problem in problems:
        print("smoke FAIL " + problem)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
