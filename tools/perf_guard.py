#!/usr/bin/env python3
"""Guard against rewrite-throughput regressions.

Compares a freshly produced google-benchmark JSON (BENCH_micro.json from
`tools/run_bench.sh` or the `perf_smoke` CMake target) against the committed
baseline at the repo root and fails when any shared benchmark slowed down by
more than the threshold.

Usage:
  tools/perf_guard.py FRESH.json [--baseline BENCH_micro.json]
                      [--threshold 0.25] [--filter REGEX]
  tools/perf_guard.py --micro FRESH.json
  tools/perf_guard.py --fuzz FRESH_fuzz.json [--baseline BENCH_fuzz.json]
                      [--threshold 0.25]
  tools/perf_guard.py --serve FRESH_serve.json [--baseline BENCH_serve.json]
                      [--threshold 0.25]
  tools/perf_guard.py --farm FRESH_farm.json [--baseline BENCH_farm.json]
                      [--threshold 0.25]

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
  - `--fuzz` switches to the BENCH_fuzz.json schema (fuzz_overhead bench)
    and gates: fuzz.execs_per_sec may not drop by more than the threshold,
    the zipr+cov mean_exec_overhead may not grow (relative to baseline) by
    more than the threshold, and -- when the baseline records absolute
    levels -- the fresh run must clear them regardless of the relative
    threshold: fuzz.min_execs_per_sec (throughput floor), each
    instrumented config's max_exec_overhead (overhead ceiling) and
    min_prune_rate (the CFG analysis must keep pruning at least that
    fraction of candidate probe sites).
  - `--serve` switches to the BENCH_serve.json schema (serve_throughput
    bench) and gates correctness ABSOLUTELY (warm outputs byte-identical to
    cold -- outputs_identical true and warm_digest == cold_digest -- plus
    delta.outputs_identical, delta.text_never_delta, the cold-start
    fresh-vs-recycled-workspace identity, and the persistence experiment:
    a restarted engine answers every persisted request as a byte-identical
    cache hit, and a corrupted cache file degrades to cold fallbacks with
    identical bytes, never a wrong answer) and throughput against the
    baseline's recorded floors: warm_speedup >= min_warm_speedup,
    cache_hit_rate >= min_cache_hit_rate, cold_start.steady_speedup >=
    min_steady_speedup (the per-thread workspace's win on repeated cold
    misses),
    delta.wall_ms strictly below cold_wall_ms (a delta resubmission must
    cost less than the cold rewrite it replaces), and peak_rss_kb under the
    baseline's max_peak_rss_kb ceiling (the workspace trim policy's bound).
    The relative threshold additionally flags a warm_speedup drop vs the
    baseline run.
  - `--farm` switches to the BENCH_farm.json schema (farm_scaling bench)
    and gates correctness ABSOLUTELY (identical_results: the merged
    corpus/crash digest must agree across every shard count;
    laf.rediscovered: the magic-gated bug stays findable through the
    farm), plus the baseline's min_efficiency_8 floor on 8-shard parallel
    efficiency and a relative check on 8-shard aggregate throughput.
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
# The bench now measures WARM iterations through the benchmark thread's
# RewriteWorkspace (one untimed fill before the AllocScope), the way a
# serve/batch worker runs: measured ~680 allocs/op at x1 after the
# workspace + recycled-scratch work (down from ~1.4k without, and ~226k
# before the flat-IR rework), so 2k leaves headroom without readmitting
# per-request table rebuilds. The peak-heap ceiling is ~2x the measured
# ~2.8 MB warm transient footprint of the x1 rewrite. The scaling slack is
# the issue's 1.5x-of-linear bound for the x50 sweep.
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


def cov_exec_overhead(doc):
    for row in doc.get("configs", []):
        if row.get("label") == "zipr+cov":
            return float(row["mean_exec_overhead"])
    print("perf_guard: no zipr+cov config row in fuzz JSON", file=sys.stderr)
    sys.exit(2)


def guard_fuzz(args):
    """Gate the fuzz_overhead bench: throughput and instrumentation cost."""
    fresh = load_json(args.fresh)
    base = load_json(args.baseline)
    regressed = []

    fresh_eps = float(fresh.get("fuzz", {}).get("execs_per_sec", 0))
    base_eps = float(base.get("fuzz", {}).get("execs_per_sec", 0))
    if base_eps <= 0:
        print("perf_guard: baseline execs_per_sec missing or zero", file=sys.stderr)
        sys.exit(2)
    drop = 1.0 - fresh_eps / base_eps
    status = "FAIL" if drop > args.threshold else "ok"
    if drop > args.threshold:
        regressed.append(("fuzz.execs_per_sec", drop))
    print(f"  [{status:>4}]  fuzz.execs_per_sec: {base_eps:10.1f} -> {fresh_eps:10.1f} "
          f"({-drop:+.1%})")

    floor = float(base.get("fuzz", {}).get("min_execs_per_sec", 0))
    if floor > 0:
        status = "FAIL" if fresh_eps < floor else "ok"
        if fresh_eps < floor:
            regressed.append(("fuzz.execs_per_sec below floor",
                              fresh_eps / floor - 1.0))
        print(f"  [{status:>4}]  fuzz.execs_per_sec floor: {floor:10.1f} "
              f"(fresh {fresh_eps:10.1f})")

    fresh_ovh = cov_exec_overhead(fresh)
    base_ovh = cov_exec_overhead(base)
    if base_ovh <= 0:
        print("perf_guard: baseline zipr+cov overhead missing or zero", file=sys.stderr)
        sys.exit(2)
    growth = fresh_ovh / base_ovh - 1.0
    status = "FAIL" if growth > args.threshold else "ok"
    if growth > args.threshold:
        regressed.append(("zipr+cov.mean_exec_overhead", growth))
    print(f"  [{status:>4}]  zipr+cov.mean_exec_overhead: {base_ovh:.4f} -> {fresh_ovh:.4f} "
          f"({growth:+.1%})")

    # Absolute levels recorded by the baseline: overhead ceilings and the
    # prune-rate floor per instrumented config. The fresh run is matched
    # to the baseline row by label; a fresh run missing the counters
    # (older bench binary) fails the gate rather than silently passing.
    fresh_rows = {r.get("label"): r for r in fresh.get("configs", [])}
    for row in base.get("configs", []):
        label = row.get("label")
        frow = fresh_rows.get(label, {})
        ceiling = float(row.get("max_exec_overhead", 0))
        if ceiling > 0:
            got = float(frow.get("mean_exec_overhead", float("inf")))
            status = "FAIL" if got >= ceiling else "ok"
            if got >= ceiling:
                regressed.append((f"{label}.mean_exec_overhead above ceiling",
                                  got / ceiling - 1.0))
            print(f"  [{status:>4}]  {label}.mean_exec_overhead ceiling: {ceiling:.2f} "
                  f"(fresh {got:.4f})")
        floor = float(row.get("min_prune_rate", 0))
        if floor > 0:
            got = float(frow.get("prune_rate", 0))
            status = "FAIL" if got < floor else "ok"
            if got < floor:
                regressed.append((f"{label}.prune_rate below floor", got - floor))
            print(f"  [{status:>4}]  {label}.prune_rate floor: {floor:.2f} "
                  f"(fresh {got:.4f})")

    if regressed:
        print(f"\nperf_guard: {len(regressed)} fuzz metric(s) regressed beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, delta in regressed:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nperf_guard: fuzz metrics within {args.threshold:.0%} of baseline")
    return 0


def guard_farm(args):
    """Gate the farm_scaling bench: reproducibility and parallel efficiency."""
    fresh = load_json(args.fresh)
    base = load_json(args.baseline)
    regressed = []

    # Correctness gates, absolute: a digest split between shard counts
    # means scheduling leaked into merged results; a missed laf
    # rediscovery means compare-splitting stopped carrying the gradient.
    for name, ok in [
        ("identical_results", bool(fresh.get("identical_results"))),
        ("laf.rediscovered", bool(fresh.get("laf", {}).get("rediscovered"))),
    ]:
        status = "ok" if ok else "FAIL"
        if not ok:
            regressed.append((f"farm.{name}", 0.0))
        print(f"  [{status:>4}]  farm.{name}")

    def row_for(doc, shards):
        for row in doc.get("rows", []):
            if int(row.get("shards", 0)) == shards:
                return row
        return {}

    # The efficiency floor from the BASELINE (so the committed gate holds
    # even if a fresh binary starts emitting a softer floor).
    floor = float(base.get("min_efficiency_8", 0))
    fresh8 = row_for(fresh, 8)
    if floor > 0:
        got = float(fresh8.get("efficiency", 0))
        status = "FAIL" if got < floor else "ok"
        if got < floor:
            regressed.append(("farm.efficiency@8shards below floor", got - floor))
        print(f"  [{status:>4}]  farm.efficiency@8shards floor: {floor:.2f} "
              f"(fresh {got:.4f})")

    base8 = row_for(base, 8)
    base_eps = float(base8.get("execs_per_sec", 0))
    fresh_eps = float(fresh8.get("execs_per_sec", 0))
    if base_eps > 0:
        drop = 1.0 - fresh_eps / base_eps
        status = "FAIL" if drop > args.threshold else "ok"
        if drop > args.threshold:
            regressed.append(("farm.execs_per_sec@8shards", drop))
        print(f"  [{status:>4}]  farm.execs_per_sec@8shards: {base_eps:10.1f} -> "
              f"{fresh_eps:10.1f} ({-drop:+.1%})")

    if regressed:
        print(f"\nperf_guard: {len(regressed)} farm metric(s) regressed:",
              file=sys.stderr)
        for name, delta in regressed:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nperf_guard: farm results reproducible and within {args.threshold:.0%} "
          f"of baseline")
    return 0


def guard_serve(args):
    """Gate the serve_throughput bench: byte-identity and warm throughput."""
    fresh = load_json(args.fresh)
    base = load_json(args.baseline)
    regressed = []

    # Correctness gates: these are bugs, not regressions, so they fail at
    # any threshold. A warm hit that is not byte-identical to the cold
    # rewrite means the cache served the wrong artifact; a restarted engine
    # that misses (or answers wrongly) means the persisted cache replayed a
    # record it should not have; a corrupted file must degrade to cold
    # fallbacks, never to different bytes.
    persist = fresh.get("persist", {})
    for name, ok in [
        ("outputs_identical", bool(fresh.get("outputs_identical"))),
        ("warm_digest == cold_digest",
         fresh.get("warm_digest") == fresh.get("cold_digest")
         and fresh.get("cold_digest") is not None),
        ("delta.outputs_identical", bool(fresh.get("delta", {}).get("outputs_identical"))),
        ("delta.text_never_delta", bool(fresh.get("delta", {}).get("text_never_delta"))),
        ("cold_start.outputs_identical",
         bool(fresh.get("cold_start", {}).get("outputs_identical"))),
        ("persist.restart_identical", bool(persist.get("restart_identical"))),
        ("persist.restart_hits == requests",
         persist.get("restart_hits") == persist.get("requests")
         and persist.get("requests") is not None),
        ("persist.corrupt_fallback_identical",
         bool(persist.get("corrupt_fallback_identical"))),
        ("persist.corrupt_cold_fallbacks > 0",
         int(persist.get("corrupt_cold_fallbacks", 0)) > 0),
    ]:
        status = "ok" if ok else "FAIL"
        if not ok:
            regressed.append((f"serve.{name}", 0.0))
        print(f"  [{status:>4}]  serve.{name}")

    fresh_speedup = float(fresh.get("warm_speedup", 0))
    base_speedup = float(base.get("warm_speedup", 0))
    floor = float(base.get("min_warm_speedup", 0))
    if floor > 0:
        status = "FAIL" if fresh_speedup < floor else "ok"
        if fresh_speedup < floor:
            regressed.append(("serve.warm_speedup below floor",
                              fresh_speedup / floor - 1.0))
        print(f"  [{status:>4}]  serve.warm_speedup floor: {floor:8.1f}x "
              f"(fresh {fresh_speedup:8.1f}x)")
    if base_speedup > 0:
        drop = 1.0 - fresh_speedup / base_speedup
        status = "FAIL" if drop > args.threshold else "ok"
        if drop > args.threshold:
            regressed.append(("serve.warm_speedup", drop))
        print(f"  [{status:>4}]  serve.warm_speedup: {base_speedup:8.1f}x -> "
              f"{fresh_speedup:8.1f}x ({-drop:+.1%})")

    fresh_hits = float(fresh.get("cache_hit_rate", 0))
    hit_floor = float(base.get("min_cache_hit_rate", 0))
    if hit_floor > 0:
        status = "FAIL" if fresh_hits < hit_floor else "ok"
        if fresh_hits < hit_floor:
            regressed.append(("serve.cache_hit_rate below floor",
                              fresh_hits - hit_floor))
        print(f"  [{status:>4}]  serve.cache_hit_rate floor: {hit_floor:.3f} "
              f"(fresh {fresh_hits:.4f})")

    # The delta validator is intentionally conservative, but it must not be
    # USELESS: the baseline records how many corpus resubmissions it proved
    # safe, and a fresh run may not fall below that floor (a validator that
    # started refusing everything would silently degrade to all-cold).
    delta_floor = int(base.get("delta", {}).get("min_hits", 0))
    if delta_floor > 0:
        got = int(fresh.get("delta", {}).get("hits", 0))
        status = "FAIL" if got < delta_floor else "ok"
        if got < delta_floor:
            regressed.append(("serve.delta.hits below floor",
                              (got - delta_floor) / float(delta_floor)))
        print(f"  [{status:>4}]  serve.delta.hits floor: {delta_floor} (fresh {got})")

    # And it must actually PAY: the delta pass resubmits (a perturbation of)
    # the same corpus the cold pass rewrote, so if its wall time is not
    # strictly below the cold pass the delta path costs more than the cold
    # rewrites it is supposed to avoid. Both numbers come from the same run,
    # so machine-wide noise largely cancels.
    delta_wall = float(fresh.get("delta", {}).get("wall_ms", 0))
    cold_wall = float(fresh.get("cold_wall_ms", 0))
    if cold_wall > 0:
        status = "FAIL" if delta_wall >= cold_wall else "ok"
        if delta_wall >= cold_wall:
            regressed.append(("serve.delta.wall_ms >= cold_wall_ms",
                              delta_wall / cold_wall - 1.0))
        print(f"  [{status:>4}]  serve.delta.wall_ms < cold_wall_ms: "
              f"{delta_wall:8.1f} ms vs {cold_wall:8.1f} ms")

    # Cold-start: the per-thread workspace must keep buying its floor (the
    # BASELINE's recorded floor, like the other absolute gates).
    cs_floor = float(base.get("cold_start", {}).get("min_steady_speedup", 0))
    if cs_floor > 0:
        got = float(fresh.get("cold_start", {}).get("steady_speedup", 0))
        status = "FAIL" if got < cs_floor else "ok"
        if got < cs_floor:
            regressed.append(("serve.cold_start.steady_speedup below floor",
                              got / cs_floor - 1.0))
        print(f"  [{status:>4}]  serve.cold_start.steady_speedup floor: {cs_floor:.2f}x "
              f"(fresh {got:.2f}x)")

    # Peak-RSS ceiling: the workspace trim policy bounds what the bench
    # process may pin. A leaky workspace (one oversized request keeping its
    # tables forever, every worker hoarding a high-water copy) blows
    # through this even when wall times look fine.
    rss_ceiling = float(base.get("max_peak_rss_kb", 0))
    if rss_ceiling > 0:
        got = float(fresh.get("peak_rss_kb", float("inf")))
        status = "FAIL" if got > rss_ceiling else "ok"
        if got > rss_ceiling:
            regressed.append(("serve.peak_rss_kb above ceiling",
                              got / rss_ceiling - 1.0))
        print(f"  [{status:>4}]  serve.peak_rss_kb ceiling: {rss_ceiling:,.0f} "
              f"(fresh {got:,.0f})")

    if regressed:
        print(f"\nperf_guard: {len(regressed)} serve metric(s) regressed:",
              file=sys.stderr)
        for name, delta in regressed:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nperf_guard: serve metrics correct and within {args.threshold:.0%} "
          f"of baseline")
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
    ap.add_argument("--fuzz", action="store_true",
                    help="treat inputs as fuzz_overhead BENCH_fuzz.json files")
    ap.add_argument("--serve", action="store_true",
                    help="treat inputs as serve_throughput BENCH_serve.json files")
    ap.add_argument("--farm", action="store_true",
                    help="treat inputs as farm_scaling BENCH_farm.json files")
    args = ap.parse_args()

    if args.micro:
        return guard_micro(args)
    if args.fuzz:
        if args.baseline is None:
            args.baseline = "BENCH_fuzz.json"
        return guard_fuzz(args)
    if args.serve:
        if args.baseline is None:
            args.baseline = "BENCH_serve.json"
        return guard_serve(args)
    if args.farm:
        if args.baseline is None:
            args.baseline = "BENCH_farm.json"
        return guard_farm(args)
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
