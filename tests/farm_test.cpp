// Tests for the multi-shard fuzz farm: the reproducibility contract
// (merged corpus / crash set / triage keys are invariant to shard count
// and worker count), cross-shard crash dedup with the deterministic
// winner rule, oversubscription clamping, and stats accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "cgc/exploits.h"
#include "farm/farm.h"
#include "testing_util.h"
#include "transform/api.h"

namespace zipr::farm {
namespace {

using ::zipr::testing::must_rewrite;

// The farm fuzzes the fptr CB: small, crashy (no magic gate), so short
// campaigns produce both corpus growth and repeat crash sightings.
const cgc::VulnCb& fptr_cb() {
  static const std::vector<cgc::VulnCb> corpus = cgc::vulnerable_corpus();
  auto it = std::find_if(corpus.begin(), corpus.end(),
                         [](const cgc::VulnCb& v) { return v.name == "vuln_fptr"; });
  EXPECT_NE(it, corpus.end());
  return *it;
}

const zelf::Image& instrumented_fptr() {
  static const zelf::Image img = [] {
    RewriteOptions opts;
    opts.transforms = {"cov"};
    return must_rewrite(fptr_cb().image, opts).image;
  }();
  return img;
}

FarmOptions small_campaign(std::size_t shards, int jobs = 0) {
  FarmOptions opts;
  opts.seed = 7;
  opts.shards = shards;
  opts.jobs = jobs;
  opts.max_execs = 2500;
  return opts;
}

FarmResult must_campaign(const FarmOptions& opts) {
  auto res = run_campaign(instrumented_fptr(), {fptr_cb().benign_input}, opts);
  EXPECT_TRUE(res.ok()) << (res.ok() ? "" : res.error().message);
  return std::move(*res);
}

// Everything shard-count-independent about a crash: identity + winning
// origin + dedup trail, with the reporting-only `shard` field masked out.
struct CrashView {
  vm::Fault fault;
  std::uint64_t fault_pc;
  std::uint64_t path;
  Bytes input;
  fuzz::MutationStage stage;
  std::uint64_t epoch;
  std::size_t stream;
  std::uint64_t ordinal;
  std::vector<std::tuple<std::uint64_t, std::size_t, std::uint64_t>> duplicates;

  bool operator==(const CrashView&) const = default;
};

CrashView view_of(const Crash& c) {
  CrashView v{c.crash.fault, c.crash.fault_pc, c.crash.path,  c.crash.input,
              c.crash.stage, c.origin.epoch,   c.origin.stream, c.origin.ordinal,
              {}};
  for (const auto& d : c.duplicates) v.duplicates.emplace_back(d.epoch, d.stream, d.ordinal);
  return v;
}

void expect_same_results(const FarmResult& a, const FarmResult& b, const char* what) {
  ASSERT_EQ(a.corpus.size(), b.corpus.size()) << what;
  for (std::size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(a.corpus[i].input, b.corpus[i].input) << what << " corpus entry " << i;
    EXPECT_EQ(a.corpus[i].map, b.corpus[i].map) << what << " corpus map " << i;
    EXPECT_EQ(a.corpus[i].stage, b.corpus[i].stage) << what << " corpus stage " << i;
  }
  ASSERT_EQ(a.crashes.size(), b.crashes.size()) << what;
  for (std::size_t i = 0; i < a.crashes.size(); ++i)
    EXPECT_TRUE(view_of(a.crashes[i]) == view_of(b.crashes[i])) << what << " crash " << i;
  EXPECT_EQ(a.stats.execs, b.stats.execs) << what;
  EXPECT_EQ(a.stats.epochs, b.stats.epochs) << what;
  EXPECT_EQ(a.stats.imported_entries, b.stats.imported_entries) << what;
  EXPECT_EQ(a.stats.rejected_duplicates, b.stats.rejected_duplicates) << what;
  EXPECT_EQ(a.stats.duplicate_crashes, b.stats.duplicate_crashes) << what;
  EXPECT_EQ(a.stats.map_indices_hit, b.stats.map_indices_hit) << what;
  EXPECT_EQ(a.stats.stages.admitted, b.stats.stages.admitted) << what;
  EXPECT_EQ(a.stats.stages.crashes, b.stats.stages.crashes) << what;
}

// ---- the headline differential: shard-count invariance ----

TEST(FarmInvariance, ShardCountDoesNotChangeResults) {
  const FarmResult one = must_campaign(small_campaign(1));
  const FarmResult two = must_campaign(small_campaign(2));
  const FarmResult eight = must_campaign(small_campaign(8));

  // The campaign must be non-trivial for the comparison to mean much.
  EXPECT_GE(one.corpus.size(), 2u);
  EXPECT_GE(one.crashes.size(), 1u);
  EXPECT_GE(one.stats.epochs, 1u);

  expect_same_results(one, two, "shards 1 vs 2");
  expect_same_results(one, eight, "shards 1 vs 8");
}

TEST(FarmInvariance, ShardFieldIsTheOnlyDifference) {
  // With 8 streams on 2 shards, stream s reports lane s % 2.
  const FarmResult two = must_campaign(small_campaign(2));
  for (const auto& c : two.crashes) {
    if (c.origin.epoch == 0) {
      EXPECT_EQ(c.origin.shard, 0u);  // seed phase runs on lane 0
    } else {
      EXPECT_EQ(c.origin.shard, c.origin.stream % 2);
    }
    for (const auto& d : c.duplicates) EXPECT_EQ(d.shard, d.stream % 2);
  }
}

TEST(FarmInvariance, WorkerCountDoesNotChangeResults) {
  // jobs undersubscribes lanes; jobs > shards clamps. All identical.
  const FarmResult serial = must_campaign(small_campaign(4, 1));
  const FarmResult matched = must_campaign(small_campaign(4, 4));
  const FarmResult oversub = must_campaign(small_campaign(4, 16));
  expect_same_results(serial, matched, "jobs 1 vs 4");
  expect_same_results(serial, oversub, "jobs 1 vs 16");
}

// The full-size campaign: 20,000 execs, one lane thread per shard.
TEST(FarmInvariance, LongCampaignIsIdenticalAtOneToEightShards) {
  auto campaign = [](std::size_t shards) {
    FarmOptions opts = small_campaign(shards, static_cast<int>(shards));
    opts.max_execs = 20000;
    return must_campaign(opts);
  };
  const FarmResult one = campaign(1);
  expect_same_results(one, campaign(2), "shards 1 vs 2");
  expect_same_results(one, campaign(4), "shards 1 vs 4");
  expect_same_results(one, campaign(8), "shards 1 vs 8");
}

// ---- cross-shard dedup ----

TEST(FarmDedup, DuplicateCrashesCarryDeterministicWinner) {
  const FarmResult res = must_campaign(small_campaign(8));

  // The fptr CB crashes readily: with 8 streams all mutating from the
  // same adopted corpus, at least one CrashKey must be sighted by more
  // than one stream.
  bool any_duplicates = false;
  for (const auto& c : res.crashes) {
    if (c.duplicates.empty()) continue;
    any_duplicates = true;
    const auto key = [](const CrashOrigin& o) {
      return std::tuple(o.epoch, o.stream, o.ordinal);
    };
    // Winner rule: the kept origin precedes every duplicate sighting,
    // and the trail itself is recorded in schedule order.
    for (const auto& d : c.duplicates) EXPECT_LT(key(c.origin), key(d));
    for (std::size_t i = 1; i < c.duplicates.size(); ++i)
      EXPECT_LE(key(c.duplicates[i - 1]), key(c.duplicates[i]));
  }
  EXPECT_TRUE(any_duplicates) << "campaign too short to exercise cross-shard dedup";
  EXPECT_GT(res.stats.duplicate_crashes, 0u);
}

TEST(FarmDedup, CrashesSortedByKeyAndReplayOnOriginal) {
  const FarmResult res = must_campaign(small_campaign(2));
  ASSERT_GE(res.crashes.size(), 1u);
  for (std::size_t i = 1; i < res.crashes.size(); ++i) {
    const auto key = [](const Crash& c) {
      return fuzz::CrashKey(c.crash.fault, c.crash.fault_pc, c.crash.path);
    };
    EXPECT_LT(key(res.crashes[i - 1]), key(res.crashes[i]));
  }
  // Same contract as the single-stream fuzzer: at least one deduped
  // winner input reproduces on the uninstrumented binary (a few triaged
  // keys are path variants only reachable with instrumentation applied).
  bool replays = false;
  for (const auto& c : res.crashes) {
    auto replay = vm::run_program(fptr_cb().image, c.crash.input);
    replays |= !replay.exited && replay.fault != vm::Fault::kGasExhausted;
  }
  EXPECT_TRUE(replays) << "no winner input reproduces on the original";
}

// The magic-gated CB through a 4-shard farm: laf's split compares carry
// the gradient that plain coverage lacks (see laf_test's differential).
TEST(FarmRediscovery, LafCovFindsTheMagicGatedBugAtFourShards) {
  const auto vulns = cgc::vulnerable_corpus();
  auto magic = std::find_if(vulns.begin(), vulns.end(),
                            [](const cgc::VulnCb& v) { return v.name == "vuln_magic"; });
  ASSERT_NE(magic, vulns.end());
  RewriteOptions instrument;
  instrument.transforms = {"laf", "cov"};
  FarmOptions opts;
  opts.seed = 7;
  opts.shards = 4;
  opts.max_execs = 8000;
  auto res = run_campaign(must_rewrite(magic->image, instrument).image,
                          {magic->benign_input}, opts);
  ASSERT_TRUE(res.ok()) << res.error().message;
  bool replays = false;
  for (const auto& c : res->crashes) {
    auto replay = vm::run_program(magic->image, c.crash.input);
    replays |= !replay.exited && replay.fault != vm::Fault::kGasExhausted;
  }
  EXPECT_TRUE(replays) << "laf+cov farm missed the magic-gated bug";
}

// ---- stats accounting ----

TEST(FarmStatsTest, AccountingAddsUp) {
  const FarmResult res = must_campaign(small_campaign(4));
  const FarmStats& st = res.stats;

  EXPECT_GE(st.execs, small_campaign(4).max_execs);
  EXPECT_GE(st.epochs, 1u);
  ASSERT_EQ(st.shards.size(), 4u);

  std::uint64_t shard_execs = 0, streams_run = 0;
  for (const auto& sh : st.shards) {
    shard_execs += sh.execs;
    streams_run += sh.streams_run;
  }
  EXPECT_EQ(shard_execs, st.execs);
  EXPECT_EQ(streams_run, st.epochs * 8u);  // kStreamsPerEpoch = 8

  std::uint64_t admitted = 0, stage_crashes = 0;
  for (std::size_t i = 0; i < fuzz::kStageCount; ++i) {
    admitted += st.stages.admitted[i];
    stage_crashes += st.stages.crashes[i];
  }
  EXPECT_EQ(admitted, res.corpus.size());
  EXPECT_EQ(stage_crashes, res.crashes.size());
  EXPECT_GT(st.map_indices_hit, 0u);
  EXPECT_GT(st.execs_per_sec, 0.0);
}

TEST(FarmStatsTest, RejectsDegenerateGeometry) {
  auto opts = small_campaign(1);
  opts.shards = 0;
  auto res = run_campaign(instrumented_fptr(), {fptr_cb().benign_input}, opts);
  EXPECT_FALSE(res.ok());
}

}  // namespace
}  // namespace zipr::farm
