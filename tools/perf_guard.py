#!/usr/bin/env python3
"""Guard against rewrite-throughput regressions.

Compares a freshly produced google-benchmark JSON (BENCH_micro.json from
the `perf_smoke` CMake target) against the committed baseline at the repo
root and fails when any shared benchmark slowed down by more than the
threshold.

Usage:
  tools/perf_guard.py FRESH.json [--baseline BENCH_micro.json]
                      [--threshold 0.25] [--filter REGEX]
  tools/perf_guard.py --micro FRESH.json

Notes:
  - Only `iteration` entries present in BOTH files are compared (aggregate
    rows like _mean/_stddev are skipped); new or removed benchmarks are
    reported but never fail the guard.
  - The default threshold is deliberately loose (25%): wall-clock noise on
    shared machines is real. Tighten with --threshold for quiet hardware.
  - `--micro` gates the size-parameterized BM_RewriteLarge family with
    ABSOLUTE levels (no baseline needed, so the gates hold even when the
    committed baseline itself drifts): x1 allocs/op and peak-heap ceilings,
    and a linear-scaling check that the x50 synthetic text completes with
    wall time (and peak heap) within 1.5x of linear extrapolation from x1.
    Allocation counts are deterministic; the scaling check compares the run
    against itself, so both survive noisy shared machines.
  - The fuzz, serve and farm timing gates live in their bench binaries
    (bench/fuzz_overhead, serve_throughput, farm_scaling) as named
    constants; `perf_smoke` runs them after this guard.
  - Exit status: 0 = no regression, 1 = at least one benchmark regressed,
    2 = bad input.
"""

import argparse
import json
import re
import sys


def load_times(path):
    """benchmark name -> real_time in ns (iteration rows only)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_guard: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    times = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        times[row["name"]] = float(row["real_time"]) * scale
    return times


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_guard: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


# Absolute gates for the BM_RewriteLarge size sweep (see guard_micro).
# The bench measures WARM iterations through the benchmark thread's
# RewriteWorkspace arena (one untimed fill before the AllocScope), the way a
# serve/batch worker runs: ~680 allocs/op at x1 when the analysis tables
# were recycled too, ~710 since they are allocated per rewrite (~1.4k with
# no recycling, ~226k before the flat-IR rework), so 2k leaves headroom
# without readmitting per-request arena rebuilds. The peak-heap ceiling is
# ~2x the measured 2.8-3.3 MB warm transient footprint of the x1 rewrite.
# The scaling slack is the 1.5x-of-linear bound for the x50 sweep.
MICRO_SWEEP_BENCH = "BM_RewriteLarge"
MICRO_BASE_ARG = 1
MICRO_TOP_ARG = 50
MICRO_MAX_ALLOCS_PER_OP = 2_000
MICRO_MAX_PEAK_HEAP_B = 6 * 1024 * 1024
MICRO_SCALING_SLACK = 1.5


def micro_row(doc, name):
    """The iteration row (full dict, counters inline) for a benchmark name.

    Matched by prefix: per-benchmark MinTime/Repetitions append suffixes
    like `/min_time:3.000` to the registered name.
    """
    for row in doc.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        got = row.get("name", "")
        if got == name or got.startswith(name + "/"):
            return row
    print(f"perf_guard: benchmark {name} missing from micro JSON "
          f"(was the run filtered?)", file=sys.stderr)
    sys.exit(2)


def row_time_ns(row):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
        row.get("time_unit", "ns"))
    if scale is None:
        print(f"perf_guard: unknown time_unit in row {row.get('name')}",
              file=sys.stderr)
        sys.exit(2)
    return float(row["real_time"]) * scale


def guard_micro(args):
    """Gate the rewrite size sweep with absolute ceilings (no baseline)."""
    doc = load_json(args.fresh)
    base = micro_row(doc, f"{MICRO_SWEEP_BENCH}/{MICRO_BASE_ARG}")
    top = micro_row(doc, f"{MICRO_SWEEP_BENCH}/{MICRO_TOP_ARG}")
    factor = MICRO_TOP_ARG / MICRO_BASE_ARG
    regressed = []

    def gate(label, got, ceiling, fmt=lambda v: f"{v:,.0f}"):
        status = "FAIL" if got > ceiling else "ok"
        if got > ceiling:
            regressed.append((label, got / ceiling - 1.0))
        print(f"  [{status:>4}]  {label}: {fmt(got)} (ceiling {fmt(ceiling)})")

    # A fresh run missing the allocator counters (bench built without the
    # AllocScope hooks) must fail loudly, not pass vacuously.
    allocs = float(base.get("allocs/op", float("inf")))
    peak = float(base.get("peak_heap_B", float("inf")))
    gate(f"{base['name']} allocs/op", allocs, MICRO_MAX_ALLOCS_PER_OP)
    gate(f"{base['name']} peak_heap_B", peak, MICRO_MAX_PEAK_HEAP_B)

    # Linear-scaling checks: the x50 run may cost at most 1.5x the linear
    # extrapolation of the x1 run, in wall time and in transient heap. This
    # is the run compared against itself, so background load that slows both
    # sizes equally cannot fail it; only a superlinear term in the pipeline
    # (or a footprint that outgrew the cache hierarchy) will.
    t1, t50 = row_time_ns(base), row_time_ns(top)
    gate(f"{top['name']} real_time vs linear", t50,
         MICRO_SCALING_SLACK * factor * t1,
         fmt=lambda v: f"{v / 1e6:,.1f} ms")
    peak50 = float(top.get("peak_heap_B", float("inf")))
    gate(f"{top['name']} peak_heap_B vs linear", peak50,
         MICRO_SCALING_SLACK * factor * peak,
         fmt=lambda v: f"{v / 1e6:,.1f} MB")

    if regressed:
        print(f"\nperf_guard: {len(regressed)} micro gate(s) exceeded:",
              file=sys.stderr)
        for name, delta in regressed:
            print(f"  {name}: {delta:+.1%} over ceiling", file=sys.stderr)
        return 1
    print(f"\nperf_guard: rewrite sweep within absolute ceilings "
          f"(x{MICRO_TOP_ARG} scaling {t50 / (factor * t1):.2f}x of linear)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly produced BENCH_micro.json")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline to compare against")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max tolerated slowdown fraction (default 0.25 = 25%%)")
    ap.add_argument("--filter", default=".",
                    help="only compare benchmarks matching this regex")
    ap.add_argument("--micro", action="store_true",
                    help="gate the BM_RewriteLarge size sweep with absolute "
                         "allocation/heap/scaling ceilings (no baseline)")
    args = ap.parse_args()

    if args.micro:
        return guard_micro(args)
    if args.baseline is None:
        args.baseline = "BENCH_micro.json"

    fresh = load_times(args.fresh)
    base = load_times(args.baseline)
    pattern = re.compile(args.filter)

    shared = sorted(n for n in fresh if n in base and pattern.search(n))
    if not shared:
        print("perf_guard: no shared benchmarks to compare", file=sys.stderr)
        sys.exit(2)

    only_fresh = sorted(n for n in fresh if n not in base)
    only_base = sorted(n for n in base if n not in fresh)
    for n in only_fresh:
        print(f"  [new ]  {n}")
    for n in only_base:
        print(f"  [gone]  {n}")

    regressed = []
    for name in shared:
        ratio = fresh[name] / base[name] if base[name] > 0 else float("inf")
        delta = ratio - 1.0
        status = "FAIL" if delta > args.threshold else "ok"
        if delta > args.threshold:
            regressed.append((name, delta))
        print(f"  [{status:>4}]  {name}: {base[name]:12.0f} ns -> {fresh[name]:12.0f} ns "
              f"({delta:+.1%})")

    if regressed:
        print(f"\nperf_guard: {len(regressed)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, delta in regressed:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nperf_guard: {len(shared)} benchmarks within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
