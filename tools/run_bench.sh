#!/usr/bin/env bash
# Run the microbenchmark suite (BENCH_micro.json), the corpus-scale
# batch-engine benchmark (BENCH_corpus.json), the layout-quality bench
# (BENCH_layout.json: per-strategy coalescing elision rate, trailing-jump
# bytes, and output-size overhead), the fuzzing-subsystem bench
# (BENCH_fuzz.json: cov-instrumentation overhead, fuzzer throughput +
# planted-bug rediscovery, snapshot-restore vs full re-link), the
# serve-layer bench (BENCH_serve.json: content-addressed cache warm
# throughput + the delta-resubmission experiment), and the farm bench
# (BENCH_farm.json: sharded-campaign throughput at 1/2/4/8 shards, digest
# identity of merged results across shard counts, laf-gated rediscovery).
#
# Usage: tools/run_bench.sh [benchmark-filter-regex]
#
# Environment:
#   BUILD_DIR         build tree (default: <repo>/build)
#   BENCH_OUT         micro output JSON path (default: <repo>/BENCH_micro.json)
#   BENCH_CORPUS_OUT  corpus output JSON path (default: <repo>/BENCH_corpus.json)
#   BENCH_LAYOUT_OUT  layout output JSON path (default: <repo>/BENCH_layout.json)
#   BENCH_FUZZ_OUT    fuzz output JSON path (default: <repo>/BENCH_fuzz.json)
#   BENCH_SERVE_OUT   serve output JSON path (default: <repo>/BENCH_serve.json)
#   BENCH_FARM_OUT    farm output JSON path (default: <repo>/BENCH_farm.json)
#   BENCH_MIN_TIME    per-benchmark min time (default: benchmark's own default)
#   BENCH_REPEATS     batch_corpus repeats per pool size (default: 3, best-of)
#   PERF_THRESHOLD    perf_guard slowdown tolerance (default: 0.25)
#
# BENCH_corpus.json format (written by bench/batch_corpus.cpp):
#   {
#     "bench": "batch_corpus",
#     "corpus_size": <CB count>,
#     "repeats": <best-of repeat count>,
#     "hardware_concurrency": <cores visible to the run>,
#     "outputs_identical_across_pool_sizes": true|false,
#     "runs": [
#       {"jobs": <worker count>, "wall_ms": <best wall time>,
#        "succeeded": N, "failed": N,
#        "speedup_vs_serial": <serial wall / this wall>,
#        "stage_ms": {"ir"|"transform"|"reassembly"|"item_total":
#                     {"p50_ms","p90_ms","p99_ms","max_ms"}}},
#       ...one entry per pool size (1, 2, 4, 8)...
#     ]
#   }
# The binary exits non-zero if any pool size produced outputs differing from
# the serial pass or any corpus rewrite failed. speedup_vs_serial is recorded
# but NOT gated: it is hardware-dependent (on a 1-core machine every pool
# size necessarily runs ~1x; interpret it against hardware_concurrency).
#
# BENCH_serve.json format (written by bench/serve_throughput.cpp):
#   {
#     "bench": "serve_throughput",
#     "corpus_size": <CB count>, "repeats": <warm-pass best-of count>,
#     "cold_wall_ms": <62 cold rewrites>, "warm_wall_ms": <62 cache hits>,
#     "warm_speedup": <cold/warm>, "min_warm_speedup": <gated floor, 10x>,
#     "cache_hit_rate": <warm-pass hit fraction>, "min_cache_hit_rate": 1.0,
#     "outputs_identical": <warm bytes == cold bytes, per request>,
#     "cold_digest"/"warm_digest": <chained fnv1a over outputs; must match>,
#     "cold_start": {"scale": N, "text_bytes": N,
#               "first_request_wall_ms": <fresh engine, fresh heap>,
#               "steady_wall_ms": <best cold request on a warm engine,
#                                  cache cleared between requests>,
#               "steady_speedup": <first/steady -- the per-thread workspace win>,
#               "min_steady_speedup": <gated floor, 1.5x>,
#               "outputs_identical": <fresh == recycled == fresh-thread rewrite>},
#     "delta": {"attempted": N, "hits": N, "min_hits": <gated floor>,
#               "cold_fallbacks": N,
#               "wall_ms": <engine.handle() only: inputs perturbed before,
#                           verification after; gated < cold_wall_ms>,
#               "outputs_identical": <every delta response == direct rewrite>,
#               "text_never_delta": <text edits never served as delta>},
#     "persist": {"requests": N, "restart_hits": <must equal requests>,
#               "restart_identical": <restarted engine == cold bytes>,
#               "corrupt_cold_fallbacks": <must be > 0>,
#               "corrupt_fallback_identical": <corrupted file -> cold,
#                                              never wrong bytes>},
#     "peak_rss_kb": <process ru_maxrss>,
#     "max_peak_rss_kb": <gated ceiling -- workspace trim policy bound>,
#     "engine": {<ServeStats counters>}
#   }
# The binary exits non-zero when warm outputs diverge from cold, the hit
# rate is below 1.0, the warm speedup is under min_warm_speedup, any
# delta-path response differs from a direct cold rewrite, a text-byte
# perturbation was served from the delta path, the cold-start steady
# speedup is under min_steady_speedup (or its bytes diverge), a restarted
# engine misses a persisted request, or the corrupted-cache pass produces
# no cold fallbacks / wrong bytes. perf_guard --serve re-checks the
# identity bits plus the baseline's recorded floors and the RSS ceiling.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${BENCH_OUT:-$ROOT/BENCH_micro.json}"
CORPUS_OUT="${BENCH_CORPUS_OUT:-$ROOT/BENCH_corpus.json}"
LAYOUT_OUT="${BENCH_LAYOUT_OUT:-$ROOT/BENCH_layout.json}"
FUZZ_OUT="${BENCH_FUZZ_OUT:-$ROOT/BENCH_fuzz.json}"
SERVE_OUT="${BENCH_SERVE_OUT:-$ROOT/BENCH_serve.json}"
FARM_OUT="${BENCH_FARM_OUT:-$ROOT/BENCH_farm.json}"
FILTER="${1:-.}"

cmake -S "$ROOT" -B "$BUILD" >/dev/null
cmake --build "$BUILD" --target micro batch_corpus layout_stats fuzz_overhead serve_throughput \
  farm_scaling -j "$(nproc)" >/dev/null

args=(--benchmark_filter="$FILTER"
      --benchmark_out="$OUT"
      --benchmark_out_format=json)
if [[ -n "${BENCH_MIN_TIME:-}" ]]; then
  args+=(--benchmark_min_time="$BENCH_MIN_TIME")
fi
"$BUILD/bench/micro" "${args[@]}"
echo "wrote $OUT"

# Absolute gates on the BM_RewriteLarge size sweep (allocs/op + peak-heap
# ceilings at x1, wall time and peak heap within 1.5x of linear at x50).
# Unconditional -- these are self-contained levels, not a baseline compare --
# but only meaningful when the sweep rows are present in the output.
if [[ "$FILTER" == "." ]]; then
  python3 "$ROOT/tools/perf_guard.py" --micro "$OUT"
fi

"$BUILD/bench/batch_corpus" --out="$CORPUS_OUT" --repeats="${BENCH_REPEATS:-3}"

"$BUILD/bench/layout_stats" --out="$LAYOUT_OUT"

"$BUILD/bench/fuzz_overhead" --out="$FUZZ_OUT"

"$BUILD/bench/serve_throughput" --out="$SERVE_OUT"

"$BUILD/bench/farm_scaling" --out="$FARM_OUT"

# Guard the throughput trajectory: a fresh run that regressed any shared
# benchmark beyond the threshold fails the script. Skipped when the fresh
# output IS the committed baseline path (first-time generation).
if [[ "$OUT" != "$ROOT/BENCH_micro.json" && -f "$ROOT/BENCH_micro.json" ]]; then
  python3 "$ROOT/tools/perf_guard.py" "$OUT" \
    --baseline "$ROOT/BENCH_micro.json" --threshold "${PERF_THRESHOLD:-0.25}"
fi
if [[ "$FUZZ_OUT" != "$ROOT/BENCH_fuzz.json" && -f "$ROOT/BENCH_fuzz.json" ]]; then
  python3 "$ROOT/tools/perf_guard.py" --fuzz "$FUZZ_OUT" \
    --baseline "$ROOT/BENCH_fuzz.json" --threshold "${PERF_THRESHOLD:-0.25}"
fi
if [[ "$SERVE_OUT" != "$ROOT/BENCH_serve.json" && -f "$ROOT/BENCH_serve.json" ]]; then
  python3 "$ROOT/tools/perf_guard.py" --serve "$SERVE_OUT" \
    --baseline "$ROOT/BENCH_serve.json" --threshold "${PERF_THRESHOLD:-0.25}"
fi
if [[ "$FARM_OUT" != "$ROOT/BENCH_farm.json" && -f "$ROOT/BENCH_farm.json" ]]; then
  python3 "$ROOT/tools/perf_guard.py" --farm "$FARM_OUT" \
    --baseline "$ROOT/BENCH_farm.json" --threshold "${PERF_THRESHOLD:-0.25}"
fi
