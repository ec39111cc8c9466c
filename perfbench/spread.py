#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads fleet_shared,bulk_draws \
        --seeds 1-10 [--seconds 10]

Runs each workload once per seed (untraced) and prints, per metric, the
median, the quartiles (statistics.quantiles(values, n=4)), the
interquartile distance as a share of the median, and that spread
against a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

from run import ROOT, build, run_once


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build()
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            code, lines = run_once(binary, workload, seed, seconds, 0)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                print("%s seed %d: exit %d, result %r"
                      % (workload, seed, code, result))
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d seeds, %d s):" % (workload, len(values["qps"]),
                                         seconds))
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            limit = bounds[name] / 3.0
            ok = name == "setup_s" or spread <= limit
            steady = steady and ok
            print("  %-14s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% (limit %5.2f%%) %s"
                  % (name, q2, q1, q3, 100 * spread, 100 * limit,
                     "ok" if ok else "WIDE"))
            print("  %-14s runs %s" % ("", " ".join("%.4g" % v
                                                      for v in series)))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
