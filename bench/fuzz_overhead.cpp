// Fuzzing-subsystem benchmark: what coverage instrumentation costs and
// what the persistent-mode executor buys, emitted as BENCH_fuzz.json so
// both are tracked PR over PR (tools/perf_guard.py --fuzz gates the
// regressions).
//
// Three measurements:
//   1. cov overhead across the 62-CB corpus -- file/exec/memory overhead
//      of "cov" and "cov-block" instrumentation next to the Null row, the
//      same protocol as the paper's Figs. 4-6;
//   2. fuzzing throughput + rediscovery -- the coverage-guided fuzzer runs
//      a fixed deterministic budget against each planted-bug CB from its
//      benign seed and must rediscover a crash that replays against the
//      uninstrumented original;
//   3. snapshot-restore vs full re-link -- per-run cost of the executor's
//      restore path against constructing a fresh VM per run (the paper-era
//      alternative), gated at >= 5x.
//
//   {
//     "bench": "fuzz_overhead",
//     "corpus_size": 62,
//     "configs": [
//       {"label": "zipr"|"zipr+cov"|"zipr+cov-block",
//        "mean_filesize_overhead": frac, "mean_exec_overhead": frac,
//        "mean_mem_overhead": frac, "functional": N,
//        -- instrumented configs additionally carry the selective-
//        -- instrumentation counters and their gate levels:
//        "max_exec_overhead": ceiling, "probes": N, "candidate_sites": N,
//        "prune_rate": frac, "min_prune_rate": floor,
//        "pruned_dominated": N, "collapsed_single_pred": N,
//        "split_critical_edges": N, "elided_flag_saves": N,
//        "elided_reg_saves": N}, ...
//     ],
//     "fuzz": {
//       "execs_per_sec": mean across targets,
//       "targets": [{"name", "execs", "execs_per_sec", "map_indices_hit",
//                    "unique_crashes", "rediscovered": bool}, ...],
//       "snapshot_restore_us_per_run": us, "full_relink_us_per_run": us,
//       "snapshot_speedup": ratio
//     }
//   }
//
// Usage: fuzz_overhead [--out=PATH]  (default: ./BENCH_fuzz.json)
#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "cgc/exploits.h"
#include "fuzz/fuzzer.h"

namespace {

using namespace zipr;
using namespace zipr::bench;

struct ConfigRow {
  std::string label;
  double file_ovh = 0;
  double exec_ovh = 0;
  double mem_ovh = 0;
  int functional = 0;
  transform::InstrumentationStats instr;  ///< summed across the corpus
};

ConfigRow measure_config(const Config& config) {
  auto metrics = evaluate(config, /*polls=*/2);
  ConfigRow row;
  row.label = config.label;
  row.functional = count_functional(metrics);
  row.file_ovh = cgc::mean_overhead(metrics, &cgc::CbMetrics::filesize_overhead);
  row.exec_ovh = cgc::mean_overhead(metrics, &cgc::CbMetrics::exec_overhead);
  row.mem_ovh = cgc::mean_overhead(metrics, &cgc::CbMetrics::mem_overhead);
  for (const auto& m : metrics) row.instr += m.instrumentation;
  return row;
}

struct TargetRow {
  std::string name;
  std::uint64_t execs = 0;
  double execs_per_sec = 0;
  std::size_t map_indices_hit = 0;
  std::size_t unique_crashes = 0;
  bool rediscovered = false;
};

zelf::Image instrument_cov(const zelf::Image& img, bool laf = false) {
  RewriteOptions opts;
  opts.transforms = laf ? std::vector<std::string>{"laf", "cov"} : std::vector<std::string>{"cov"};
  auto r = rewrite(img, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "cov instrumentation failed: %s\n", r.error().message.c_str());
    std::exit(1);
  }
  return std::move(r)->image;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Throughput floor for mean execs/sec: 4x the committed pre-decode-cache
// baseline (30762.7, BENCH_fuzz.json as of the parallel-batch PR). The
// predecoded-instruction VM core has to clear this on a quiet machine;
// perf_guard --fuzz re-checks fresh runs against the committed floor.
constexpr double kMinExecsPerSec = 4 * 30762.7;

// Execution-overhead ceilings for the instrumented configs, the headline
// numbers of the selective-instrumentation PR (dominator pruning +
// liveness-elided stubs brought edge mode from 180% to ~30% and block
// mode from 117% to ~15%). perf_guard --fuzz holds fresh runs to these.
constexpr double kMaxCovExecOverhead = 0.40;
constexpr double kMaxCovBlockExecOverhead = 0.30;

// Floor on the fraction of candidate probe sites the CFG analysis prunes
// or collapses; the measured corpus sits at ~29%. A regression below the
// floor means the dominator/derivability rules stopped firing.
constexpr double kMinPruneRate = 0.25;

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fuzz.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  // ---- 1. instrumentation overhead across the corpus ----
  std::printf("== Coverage-instrumentation overhead (62 CBs, vs original) ==\n\n");
  Config cov_cfg;
  cov_cfg.label = "zipr+cov";
  cov_cfg.rewrite.transforms = {"cov"};
  Config block_cfg;
  block_cfg.label = "zipr+cov-block";
  block_cfg.rewrite.transforms = {"cov-block"};

  std::vector<ConfigRow> configs;
  for (const auto& cfg : {baseline_config(), cov_cfg, block_cfg}) {
    configs.push_back(measure_config(cfg));
    const auto& r = configs.back();
    std::printf("  %-15s file %6.2f%%  exec %6.2f%%  mem %6.2f%%  functional %d/62\n",
                r.label.c_str(), r.file_ovh * 100, r.exec_ovh * 100, r.mem_ovh * 100,
                r.functional);
    const auto& in = r.instr;
    if (in.candidate_sites > 0)
      std::printf(
          "    %zu probes for %zu sites (%.0f%% pruned: %zu dominated + %zu collapsed; "
          "%zu edges split, %zu flag + %zu reg saves elided)\n",
          in.probes, in.candidate_sites, in.prune_rate() * 100, in.pruned_dominated,
          in.collapsed_single_pred, in.split_critical_edges, in.elided_flag_saves,
          in.elided_reg_saves);
  }

  // ---- 2. fuzzing throughput + planted-bug rediscovery ----
  std::printf("\n== Coverage-guided fuzzing (deterministic budget, benign seeds) ==\n\n");
  std::vector<TargetRow> targets;
  for (const auto& vuln : cgc::vulnerable_corpus()) {
    auto cov = instrument_cov(vuln.image, vuln.laf_gated);
    fuzz::FuzzOptions fopts;
    fopts.seed = 7;
    fopts.max_execs = 6000;
    auto result = fuzz::fuzz(cov, {vuln.benign_input}, fopts);
    if (!result.ok()) {
      std::fprintf(stderr, "fuzz failed on %s: %s\n", vuln.name.c_str(),
                   result.error().message.c_str());
      return 1;
    }
    TargetRow row;
    row.name = vuln.name;
    row.execs = result->stats.execs;
    row.execs_per_sec = result->stats.execs_per_sec;
    row.map_indices_hit = result->stats.map_indices_hit;
    row.unique_crashes = result->crashes.size();
    for (const auto& crash : result->crashes) {
      auto replay = vm::run_program(vuln.image, crash.input);
      row.rediscovered |= !replay.exited && replay.fault != vm::Fault::kGasExhausted;
    }
    targets.push_back(row);
    std::printf("  %-12s %6llu execs  %8.0f/sec  map %4zu/%zu  %4zu unique crash(es)  %s\n",
                row.name.c_str(), static_cast<unsigned long long>(row.execs),
                row.execs_per_sec, row.map_indices_hit, fuzz::kMapSize, row.unique_crashes,
                row.rediscovered ? "REDISCOVERED" : "not rediscovered");
  }
  double mean_eps = 0;
  for (const auto& t : targets) mean_eps += t.execs_per_sec;
  mean_eps /= static_cast<double>(targets.size());

  // ---- 3. snapshot-restore vs full re-link per run ----
  std::printf("\n== Persistent mode: snapshot restore vs full VM re-link ==\n\n");
  auto vulns = cgc::vulnerable_corpus();
  auto cov = instrument_cov(vulns[0].image);
  const Bytes& seed_input = vulns[0].benign_input;

  fuzz::Executor warm(cov);
  (void)warm.execute(seed_input);  // first run: no reset, excluded
  constexpr int kPersistentRuns = 2000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPersistentRuns; ++i) {
    auto r = warm.execute(seed_input);
    if (!r.ok() || r->crashed) {
      std::fprintf(stderr, "persistent run misbehaved\n");
      return 1;
    }
  }
  const double persistent_us = seconds_since(t0) * 1e6 / kPersistentRuns;

  constexpr int kRelinkRuns = 200;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRelinkRuns; ++i) {
    vm::Machine m(cov);
    m.set_input(seed_input);
    if (!m.run().exited) {
      std::fprintf(stderr, "re-link run misbehaved\n");
      return 1;
    }
  }
  const double relink_us = seconds_since(t0) * 1e6 / kRelinkRuns;
  const double speedup = persistent_us > 0 ? relink_us / persistent_us : 0;
  std::printf("  snapshot restore %8.1f us/run (%0.f resets/sec)\n", persistent_us,
              1e6 / persistent_us);
  std::printf("  full VM re-link  %8.1f us/run\n", relink_us);
  std::printf("  speedup          %8.1fx\n", speedup);

  // ---- emit JSON ----
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fuzz_overhead\",\n  \"corpus_size\": %zu,\n",
               cgc::cfe_corpus().size());
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& r = configs[i];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"mean_filesize_overhead\": %.6f,\n"
                 "     \"mean_exec_overhead\": %.6f, \"mean_mem_overhead\": %.6f,\n"
                 "     \"functional\": %d",
                 r.label.c_str(), r.file_ovh, r.exec_ovh, r.mem_ovh, r.functional);
    if (r.instr.candidate_sites > 0) {
      const double ceiling =
          r.label == "zipr+cov" ? kMaxCovExecOverhead : kMaxCovBlockExecOverhead;
      std::fprintf(f,
                   ",\n     \"max_exec_overhead\": %.2f, \"probes\": %zu,"
                   " \"candidate_sites\": %zu,\n"
                   "     \"prune_rate\": %.6f, \"min_prune_rate\": %.2f,\n"
                   "     \"pruned_dominated\": %zu, \"collapsed_single_pred\": %zu,\n"
                   "     \"split_critical_edges\": %zu, \"elided_flag_saves\": %zu,"
                   " \"elided_reg_saves\": %zu",
                   ceiling, r.instr.probes, r.instr.candidate_sites, r.instr.prune_rate(),
                   kMinPruneRate, r.instr.pruned_dominated, r.instr.collapsed_single_pred,
                   r.instr.split_critical_edges, r.instr.elided_flag_saves,
                   r.instr.elided_reg_saves);
    }
    std::fprintf(f, "}%s\n", i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fuzz\": {\n    \"execs_per_sec\": %.1f,\n", mean_eps);
  std::fprintf(f, "    \"min_execs_per_sec\": %.1f,\n", kMinExecsPerSec);
  std::fprintf(f, "    \"targets\": [\n");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& t = targets[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"execs\": %llu, \"execs_per_sec\": %.1f,\n"
                 "       \"map_indices_hit\": %zu, \"unique_crashes\": %zu, "
                 "\"rediscovered\": %s}%s\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.execs), t.execs_per_sec,
                 t.map_indices_hit, t.unique_crashes, t.rediscovered ? "true" : "false",
                 i + 1 < targets.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"snapshot_restore_us_per_run\": %.2f,\n"
               "    \"full_relink_us_per_run\": %.2f,\n    \"snapshot_speedup\": %.2f\n  }\n}\n",
               persistent_us, relink_us, speedup);
  std::fclose(f);
  std::printf("\nwrote %s\n\n", out_path.c_str());

  // ---- qualitative gates ----
  ClaimChecker claims;
  for (const auto& r : configs)
    claims.check(r.functional == static_cast<int>(cgc::cfe_corpus().size()),
                 r.label + ": corpus stays fully functional");
  claims.check(configs[1].exec_ovh > configs[0].exec_ovh,
               "cov instrumentation costs measurable execution overhead over Null");
  claims.check(configs[2].exec_ovh <= configs[1].exec_ovh + 1e-9,
               "cov-block is no slower than edge mode");
  claims.check(configs[1].exec_ovh < kMaxCovExecOverhead,
               "selective edge instrumentation stays under 40% exec overhead");
  claims.check(configs[2].exec_ovh < kMaxCovBlockExecOverhead,
               "selective block instrumentation stays under 30% exec overhead");
  for (std::size_t i = 1; i < configs.size(); ++i)
    claims.check(configs[i].instr.prune_rate() >= kMinPruneRate,
                 configs[i].label + ": CFG analysis prunes >= 25% of candidate sites");
  for (const auto& t : targets)
    claims.check(t.rediscovered,
                 t.name + ": planted bug rediscovered within the deterministic budget");
  for (const auto& t : targets)
    claims.check(t.map_indices_hit > 0, t.name + ": coverage map is live during fuzzing");
  claims.check(speedup >= 5.0, "snapshot restore is >= 5x faster than full VM re-link");
  claims.check(mean_eps >= kMinExecsPerSec,
               "fuzzing throughput clears 4x the pre-decode-cache baseline");
  return claims.finish();
}
