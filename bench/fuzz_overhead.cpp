// Fuzzing-subsystem timing bench: fuzzer throughput on the planted-bug
// CBs, and what the persistent-mode executor buys over a full VM re-link
// per run. Exits nonzero when a timing gate below fails.
//
// The deterministic checks on the same workloads live in ctest: the cov
// overhead ceilings and prune-rate floor (cov_prune_test,
// CovOverhead.CorpusStaysFunctionalUnderTheCeilings) and planted-bug
// rediscovery with a live coverage map (fuzz_test,
// Fuzzer.RediscoversEveryPlantedBug).
//
// Usage: fuzz_overhead
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "cgc/exploits.h"
#include "fuzz/fuzzer.h"

namespace {

using namespace zipr;
using namespace zipr::bench;

// Mean execs/s over the four targets: 0.75 x the 238,778.1 recorded when
// the VM's per-instruction path was made cheap.
constexpr double kMinExecsPerSec = 179083.6;
// Snapshot restore against constructing a fresh VM per run.
constexpr double kMinSnapshotSpeedup = 5.0;

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

}  // namespace

int main() {
  // ---- fuzzing throughput (deterministic budget, benign seeds) ----
  std::printf("== Coverage-guided fuzzing throughput ==\n\n");
  const auto vulns = cgc::vulnerable_corpus();
  double mean_eps = 0;
  for (const auto& vuln : vulns) {
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
    mean_eps += result->stats.execs_per_sec;
    std::printf("  %-12s %6llu execs  %8.0f/sec  %4zu unique crash(es)\n", vuln.name.c_str(),
                static_cast<unsigned long long>(result->stats.execs),
                result->stats.execs_per_sec, result->crashes.size());
  }
  mean_eps /= static_cast<double>(vulns.size());
  std::printf("  mean %33.0f/sec\n", mean_eps);

  // ---- snapshot restore vs full re-link per run ----
  std::printf("\n== Persistent mode: snapshot restore vs full VM re-link ==\n\n");
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
  std::printf("  speedup          %8.1fx\n\n", speedup);

  ClaimChecker claims;
  claims.check(mean_eps >= kMinExecsPerSec, "mean execs/s >= 179083.6");
  claims.check(speedup >= kMinSnapshotSpeedup, "snapshot restore >= 5x faster than re-link");
  return claims.finish();
}
