#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regression.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.20]

For every benchmark name present in both files the script compares
throughput (items_per_second when reported, else 1/real_time) and
exits non-zero if the candidate is slower than the baseline by more
than the tolerance fraction on any shared benchmark. CI uses it to
gate the batch-plan optimizer: candidate = optimizer on, baseline =
optimizer off, so a pass that makes plans slower than not optimizing
at all fails the job.

Benchmarks present in only one file are reported but never fail the
comparison (filters and engine axes legitimately differ across runs).

Repetitions: when a file was written with --benchmark_repetitions,
each benchmark is represented by its median aggregate row, not by a
single repetition.

Certification mode: when both files are BENCH_certification.json
documents (top-level "certifications" key, written by
bench_certification), the comparison switches to the certificate
view — tv_upper_bound must not GROW by more than the tolerance
fraction (lower is better: a growing TV bound means a sampler drifted
away from its law), any pass -> fail transition fails outright, and
draw throughput (samples_per_second) is gated like any benchmark.

Backend-gate mode (--backend-gate):
baseline and candidate are the same benchmarks run under two
execution backends — e.g. scalar vs simd, or simd vs auto (which
compiles the chain to JIT fragments). Benchmarks
matching the --gate regex (default: the depth-64 fused elementwise
chain) must be at least --min-speedup faster under the candidate
backend — each rung of the backend ladder has to EARN its keep on
the strip-dominated workload, not merely avoid regressing. CI gates
scalar -> simd at 1.3x and simd -> auto at 1.25x. All other shared
benchmarks use the normal tolerance check (the faster backend must
never be slower beyond the tolerance: RNG-bound benches legitimately
see ~1x). Certification documents still take the certificate view,
so a conformance regression on any backend fails the job regardless
of speed.
"""

import argparse
import json
import re
import sys


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def load_certifications(data):
    """Map name -> (tv_upper_bound, passed, samples_per_second)."""
    result = {}
    for cert in data.get("certifications", []):
        result[cert["name"]] = (
            float(cert["tv_upper_bound"]),
            bool(cert["pass"]),
            float(cert.get("samples_per_second", 0.0)),
        )
    return result


def compare_certifications(base, cand, tolerance):
    """Diff two certification maps; return the exit code."""
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("bench_compare: no shared certifications",
              file=sys.stderr)
        return 2
    for name in sorted(set(base) ^ set(cand)):
        side = "baseline" if name in base else "candidate"
        print(f"  ({side} only, ignored) {name}")

    failures = []
    width = max(len(name) for name in shared)
    print(f"{'certification':<{width}}  tv_base     tv_cand     "
          f"ratio  pass")
    for name in shared:
        tv_base, pass_base, rate_base = base[name]
        tv_cand, pass_cand, rate_cand = cand[name]
        ratio = tv_cand / tv_base if tv_base > 0 else float("inf")
        marker = ""
        if pass_base and not pass_cand:
            marker = "  <-- CERTIFICATE LOST"
            failures.append((name, "pass -> fail"))
        elif ratio > 1.0 + tolerance:
            marker = "  <-- TV GREW"
            failures.append((name, f"tv {ratio:.2f}x of baseline"))
        elif rate_base > 0 and rate_cand < rate_base * (1 - tolerance):
            marker = "  <-- THROUGHPUT REGRESSION"
            failures.append(
                (name, f"rate {rate_cand / rate_base:.2f}x"))
        print(f"{name:<{width}}  {tv_base:10.4g}  {tv_cand:10.4g}  "
              f"{ratio:5.2f}x  {'y' if pass_cand else 'N'}{marker}")

    if failures:
        print(f"\nbench_compare: {len(failures)} certification(s) "
              f"regressed:", file=sys.stderr)
        for name, reason in failures:
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: OK ({len(shared)} shared certifications "
          f"within {tolerance:.0%})")
    return 0


def throughput(bench):
    """Higher-is-better rate of one row, or None when it has none."""
    if "items_per_second" in bench:
        return float(bench["items_per_second"])
    if float(bench.get("real_time", 0.0)) > 0.0:
        return 1.0 / float(bench["real_time"])
    return None


def load_benchmarks(path):
    """Map benchmark name -> throughput (higher is better).

    A run with --benchmark_repetitions writes one row per repetition
    plus aggregate rows (mean, median, stddev, ...). The median
    aggregate, keyed by its run_name, then stands for the benchmark,
    so a gate reads the middle repetition rather than whichever one
    ran last. A file without repetitions has one row per name, which
    is used as is.
    """
    data = load_json(path)
    result = {}
    medians = {}
    for bench in data.get("benchmarks", []):
        value = throughput(bench)
        if value is None:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name", bench["name"])] = value
            continue
        result[bench["name"]] = value
    result.update(medians)
    return result


def main():
    parser = argparse.ArgumentParser(
        description="Fail when CANDIDATE regresses vs BASELINE.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional slowdown before failing "
             "(default 0.20 = 20%%)")
    parser.add_argument(
        "--backend-gate", action="store_true",
        help="backend gate mode: baseline and candidate are the same "
             "benchmarks under two execution backends (scalar vs "
             "simd, simd vs auto, ...); benchmarks matching --gate "
             "must speed up by --min-speedup")
    parser.add_argument(
        "--min-speedup", type=float, default=1.3,
        help="required candidate/baseline throughput ratio on "
             "--gate benchmarks in --backend-gate mode (default 1.3)")
    parser.add_argument(
        "--gate", default=r"BM_ElementwiseChain/64$",
        help="regex selecting the benchmarks that must meet "
             "--min-speedup in --backend-gate mode (default: the "
             "depth-64 fused elementwise chain)")
    args = parser.parse_args()

    base_doc = load_json(args.baseline)
    cand_doc = load_json(args.candidate)
    if "certifications" in base_doc and "certifications" in cand_doc:
        return compare_certifications(load_certifications(base_doc),
                                      load_certifications(cand_doc),
                                      args.tolerance)

    base = load_benchmarks(args.baseline)
    cand = load_benchmarks(args.candidate)

    shared = sorted(set(base) & set(cand))
    if not shared:
        print("bench_compare: no shared benchmarks between "
              f"{args.baseline} and {args.candidate}", file=sys.stderr)
        return 2

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    for name in only_base:
        print(f"  (baseline only, ignored) {name}")
    for name in only_cand:
        print(f"  (candidate only, ignored) {name}")

    gate_re = re.compile(args.gate) if args.backend_gate else None
    gated = [n for n in shared if gate_re and gate_re.search(n)]
    if args.backend_gate and not gated:
        print(f"bench_compare: backend gate '{args.gate}' matched no "
              f"shared benchmark", file=sys.stderr)
        return 2

    failures = []
    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  baseline      candidate     ratio")
    for name in shared:
        ratio = cand[name] / base[name] if base[name] > 0 else 0.0
        marker = ""
        if name in gated:
            if ratio < args.min_speedup:
                marker = "  <-- BACKEND GATE MISSED"
                failures.append((name, ratio))
            else:
                marker = f"  (gate: >= {args.min_speedup:.2f}x ok)"
        elif ratio < 1.0 - args.tolerance:
            marker = "  <-- REGRESSION"
            failures.append((name, ratio))
        print(f"{name:<{width}}  {base[name]:12.4g}  "
              f"{cand[name]:12.4g}  {ratio:5.2f}x{marker}")

    if failures:
        print(f"\nbench_compare: {len(failures)} benchmark(s) "
              f"regressed beyond {args.tolerance:.0%}"
              + (f" (gate {args.min_speedup:.2f}x)"
                 if args.backend_gate else "") + ":",
              file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x of baseline",
                  file=sys.stderr)
        return 1

    ok_note = (f", backend gate >= {args.min_speedup:.2f}x on "
               f"{len(gated)} benchmark(s)" if args.backend_gate
               else "")
    print(f"\nbench_compare: OK ({len(shared)} shared benchmarks "
          f"within {args.tolerance:.0%}{ok_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
