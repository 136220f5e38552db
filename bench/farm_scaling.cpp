// Farm-scaling benchmark: the multi-shard campaign orchestrator at 1, 2,
// 4, and 8 shards over the same (image, seeds, campaign seed), emitted as
// BENCH_farm.json (tools/perf_guard.py --farm gates it).
//
// Three claims measured:
//   1. scaling -- aggregate execs/sec per shard count, with parallel
//      efficiency normalized by min(shards, hardware_concurrency): adding
//      lanes beyond the physical cores cannot be penalized, but up to the
//      core count the farm must keep at least the efficiency floor (0.6
//      at 8 shards) of perfectly-linear throughput;
//   2. reproducibility -- a digest over the merged corpus (inputs + maps)
//      and the deduped crash set (keys + winner origins, shard field
//      excluded) must be IDENTICAL at every shard count. This is the
//      whole point of the design; a digest split means scheduling leaked
//      into results and is gated as a hard failure, not a regression;
//   3. laf rediscovery -- the magic-gated CB (a 4-byte equality gate that
//      plain coverage cannot solve in budget) is rediscovered by the farm
//      when the laf compare-splitting transform is stacked under cov.
//
//   {
//     "bench": "farm_scaling",
//     "hardware_concurrency": N,
//     "identical_results": bool, "min_efficiency_8": 0.6,
//     "rows": [{"shards": N, "jobs": N, "execs": N, "epochs": N,
//               "execs_per_sec": X, "efficiency": F,
//               "corpus": N, "unique_crashes": N, "duplicate_crashes": N,
//               "digest": "hex"}, ...],
//     "laf": {"shards": N, "unique_crashes": N, "duplicate_crashes": N,
//             "rediscovered": bool}
//   }
//
// Usage: farm_scaling [--out=PATH]  (default: ./BENCH_farm.json)
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cgc/exploits.h"
#include "farm/farm.h"
#include "zipr/zipr.h"

namespace {

using namespace zipr;

const cgc::VulnCb& find_cb(const std::vector<cgc::VulnCb>& vulns, const char* name) {
  for (const auto& v : vulns)
    if (v.name == name) return v;
  std::fprintf(stderr, "planted-bug corpus lost %s\n", name);
  std::exit(1);
}

zelf::Image instrument(const zelf::Image& img, std::vector<std::string> transforms) {
  RewriteOptions opts;
  opts.transforms = std::move(transforms);
  auto r = rewrite(img, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n", r.error().message.c_str());
    std::exit(1);
  }
  return std::move(r)->image;
}

// FNV-1a over everything shard-count-independent in a campaign result:
// corpus inputs/maps/stages in admission order, then crash keys, winner
// inputs, and (epoch, stream, ordinal) origin tuples -- `shard` and the
// per-lane accounting are reporting-only and deliberately excluded.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const Bytes& b) {
    for (Byte x : b) byte(x);
    byte(0xa5);  // length separator
  }
  void byte(std::uint8_t x) { h = (h ^ x) * 1099511628211ull; }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

std::uint64_t result_digest(const farm::FarmResult& res) {
  Digest d;
  for (const auto& e : res.corpus) {
    d.bytes(e.input);
    d.bytes(e.map);
    d.byte(static_cast<std::uint8_t>(e.stage));
  }
  for (const auto& c : res.crashes) {
    d.byte(static_cast<std::uint8_t>(c.crash.fault));
    d.u64(c.crash.fault_pc);
    d.u64(c.crash.path);
    d.bytes(c.crash.input);
    d.u64(c.origin.epoch);
    d.u64(c.origin.stream);
    d.u64(c.origin.ordinal);
    for (const auto& dup : c.duplicates) {
      d.u64(dup.epoch);
      d.u64(dup.stream);
      d.u64(dup.ordinal);
    }
  }
  return d.h;
}

struct Row {
  std::size_t shards = 0;
  int jobs = 0;
  std::uint64_t execs = 0;
  std::uint64_t epochs = 0;
  double eps = 0;
  double efficiency = 0;
  std::size_t corpus = 0;
  std::size_t unique_crashes = 0;
  std::uint64_t duplicate_crashes = 0;
  std::uint64_t digest = 0;
};

farm::FarmResult must_campaign(const zelf::Image& img, const Bytes& seed_input,
                               const farm::FarmOptions& opts) {
  auto res = farm::run_campaign(img, {seed_input}, opts);
  if (!res.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n", res.error().message.c_str());
    std::exit(1);
  }
  return std::move(*res);
}

// Efficiency floor at 8 shards: the farm may not burn more than 40% of
// ideal aggregate throughput on orchestration (sync epochs, snapshots,
// the lane threads). Ideal = eps(1 shard) x min(shards, cores).
constexpr double kMinEfficiency8 = 0.6;

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_farm.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;

  const auto vulns = cgc::vulnerable_corpus();
  const auto& fptr = find_cb(vulns, "vuln_fptr");
  const auto cov = instrument(fptr.image, {"cov"});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("== Farm scaling (campaign seed 7, %u core(s)) ==\n\n", hw);
  std::vector<Row> rows;
  double eps1 = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    farm::FarmOptions opts;
    opts.seed = 7;
    opts.shards = shards;
    opts.jobs = static_cast<int>(shards);
    opts.max_execs = 20000;
    auto res = must_campaign(cov, fptr.benign_input, opts);

    Row row;
    row.shards = shards;
    row.jobs = opts.jobs;
    row.execs = res.stats.execs;
    row.epochs = res.stats.epochs;
    row.eps = res.stats.execs_per_sec;
    if (shards == 1) eps1 = row.eps;
    const double ideal = eps1 * static_cast<double>(std::min<unsigned>(shards, hw));
    row.efficiency = ideal > 0 ? row.eps / ideal : 0;
    row.corpus = res.corpus.size();
    row.unique_crashes = res.crashes.size();
    row.duplicate_crashes = res.stats.duplicate_crashes;
    row.digest = result_digest(res);
    rows.push_back(row);
    std::printf(
        "  %zu shard(s): %8llu execs / %2llu epochs  %9.0f/sec  eff %4.2f  corpus %zu  "
        "%zu crash(es) (+%llu dup)  digest %016llx\n",
        shards, static_cast<unsigned long long>(row.execs),
        static_cast<unsigned long long>(row.epochs), row.eps, row.efficiency, row.corpus,
        row.unique_crashes, static_cast<unsigned long long>(row.duplicate_crashes),
        static_cast<unsigned long long>(row.digest));
  }

  bool identical = true;
  for (const auto& row : rows) identical &= row.digest == rows.front().digest;
  std::printf("\n  merged results %s across shard counts\n",
              identical ? "IDENTICAL" : "DIVERGED");

  // ---- laf rediscovery through the farm ----
  const auto& magic = find_cb(vulns, "vuln_magic");
  const auto laf_cov = instrument(magic.image, {"laf", "cov"});
  farm::FarmOptions lopts;
  lopts.seed = 7;
  lopts.shards = 4;
  lopts.max_execs = 8000;
  auto laf_res = must_campaign(laf_cov, magic.benign_input, lopts);
  bool rediscovered = false;
  for (const auto& c : laf_res.crashes) {
    auto replay = vm::run_program(magic.image, c.crash.input);
    rediscovered |= !replay.exited && replay.fault != vm::Fault::kGasExhausted;
  }
  std::printf("  laf magic gate: %zu crash(es) (+%llu dup) at 4 shards -- %s\n",
              laf_res.crashes.size(),
              static_cast<unsigned long long>(laf_res.stats.duplicate_crashes),
              rediscovered ? "REDISCOVERED" : "not rediscovered");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"farm_scaling\",\n  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"identical_results\": %s,\n  \"min_efficiency_8\": %.2f,\n",
               identical ? "true" : "false", kMinEfficiency8);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"jobs\": %d, \"execs\": %llu, \"epochs\": %llu,\n"
                 "     \"execs_per_sec\": %.1f, \"efficiency\": %.4f,\n"
                 "     \"corpus\": %zu, \"unique_crashes\": %zu, \"duplicate_crashes\": %llu,\n"
                 "     \"digest\": \"%016llx\"}%s\n",
                 r.shards, r.jobs, static_cast<unsigned long long>(r.execs),
                 static_cast<unsigned long long>(r.epochs), r.eps, r.efficiency, r.corpus,
                 r.unique_crashes, static_cast<unsigned long long>(r.duplicate_crashes),
                 static_cast<unsigned long long>(r.digest), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"laf\": {\"shards\": %zu, \"unique_crashes\": %zu, "
               "\"duplicate_crashes\": %llu, \"rediscovered\": %s}\n}\n",
               static_cast<std::size_t>(lopts.shards), laf_res.crashes.size(),
               static_cast<unsigned long long>(laf_res.stats.duplicate_crashes),
               rediscovered ? "true" : "false");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", out_path.c_str());
  return identical && rediscovered ? 0 : 1;
}
