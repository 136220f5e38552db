// Farm-scaling timing bench: the multi-shard campaign orchestrator at 1,
// 2, 4 and 8 shards over the same (image, seeds, campaign seed), one lane
// thread per shard. Parallel efficiency is normalized by min(shards,
// hardware_concurrency): lanes beyond the physical cores cannot be
// penalized, but up to the core count the farm must keep the efficiency
// floor of perfectly linear throughput. Exits nonzero when a gate fails.
//
// The deterministic checks on the same campaigns live in farm_test:
// identical merged results at every shard count
// (FarmInvariance.LongCampaignIsIdenticalAtOneToEightShards) and laf-gated
// rediscovery at 4 shards (FarmRediscovery.*).
//
// Usage: farm_scaling
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cgc/exploits.h"
#include "farm/farm.h"

namespace {

using namespace zipr;
using namespace zipr::bench;

// The farm may not burn more than 40% of ideal aggregate throughput on
// orchestration (sync epochs, snapshots, the lane threads) at 8 shards.
// Ideal = execs/s(1 shard) x min(shards, cores).
constexpr double kMinEfficiency8 = 0.6;
// 8-shard aggregate execs/s: 0.75 x the 13,996.7 recorded on one core.
constexpr double kMinExecsPerSec8 = 10497.5;

}  // namespace

int main() {
  const auto vulns = cgc::vulnerable_corpus();
  auto fptr = std::find_if(vulns.begin(), vulns.end(),
                           [](const cgc::VulnCb& v) { return v.name == "vuln_fptr"; });
  if (fptr == vulns.end()) {
    std::fprintf(stderr, "planted-bug corpus lost vuln_fptr\n");
    return 1;
  }
  RewriteOptions instrument;
  instrument.transforms = {"cov"};
  auto cov = rewrite(fptr->image, instrument);
  if (!cov.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n", cov.error().message.c_str());
    return 1;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("== Farm scaling (campaign seed 7, %u core(s)) ==\n\n", hw);
  double eps1 = 0;
  double eps8 = 0;
  double efficiency8 = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    farm::FarmOptions opts;
    opts.seed = 7;
    opts.shards = shards;
    opts.jobs = static_cast<int>(shards);
    opts.max_execs = 20000;
    auto res = farm::run_campaign(cov->image, {fptr->benign_input}, opts);
    if (!res.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n", res.error().message.c_str());
      return 1;
    }
    const double eps = res->stats.execs_per_sec;
    if (shards == 1) eps1 = eps;
    const double ideal = eps1 * static_cast<double>(std::min<unsigned>(shards, hw));
    const double efficiency = ideal > 0 ? eps / ideal : 0;
    if (shards == 8) {
      eps8 = eps;
      efficiency8 = efficiency;
    }
    std::printf("  %zu shard(s): %8llu execs / %2llu epochs  %9.0f/sec  eff %4.2f\n", shards,
                static_cast<unsigned long long>(res->stats.execs),
                static_cast<unsigned long long>(res->stats.epochs), eps, efficiency);
  }
  std::printf("\n");

  ClaimChecker claims;
  claims.check(efficiency8 >= kMinEfficiency8, "8-shard efficiency >= 0.6");
  claims.check(eps8 >= kMinExecsPerSec8, "8-shard execs/s >= 10497.5");
  return claims.finish();
}
