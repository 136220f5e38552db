// Tests for CFG-aware selective coverage instrumentation: the pruned and
// conservative emission paths must preserve behaviour, the prune counters
// must reflect the shapes that earn them, and -- the headline guarantee --
// a pruned fuzzing campaign must find the same bugs as an unpruned one.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "cgc/exploits.h"
#include "cgc/metrics.h"
#include "fuzz/fuzzer.h"
#include "testing_util.h"

namespace zipr {
namespace {

using ::zipr::testing::expect_equivalent;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;

RewriteOptions cov_options(const char* transform, bool prune) {
  RewriteOptions opts;
  opts.transforms = {transform};
  opts.cov_prune = prune;
  return opts;
}

// A diamond over a compare: the join is post-dominance-equivalent to the
// top, so one of the two merged probe sites is pruned as dominated.
constexpr const char* kDiamond = R"(
  .entry main
  .text
  main:
    cmpi r0, 1
    jeq left
    movi r3, 101
    jmp join
  left:
    movi r3, 102
  join:
    addi r3, 1
    movi r0, 1
    movi r1, 0
    syscall
)";

// A chain of unconditionally-linked blocks: every jmp target is a probe
// site with a single predecessor inside its own equivalence class.
constexpr const char* kChain = R"(
  .entry main
  .text
  main:
    movi r3, 1
    jmp b
  b:
    addi r3, 1
    jmp c
  c:
    addi r3, 1
    jmp d
  d:
    movi r0, 1
    movi r1, 0
    syscall
)";

// A jcc whose target IS its fallthrough: both CFG edges connect the same
// block pair, so edge-mode coverage cannot tell them apart without
// splitting one through a trampoline.
constexpr const char* kDoubleEdge = R"(
  .entry main
  .text
  main:
    cmpi r0, 0
    jeq next
  next:
    movi r0, 1
    movi r1, 0
    syscall
)";

TEST(CovPrune, DiamondCountsDominatedSites) {
  auto img = must_assemble(kDiamond);
  auto r = must_rewrite(img, cov_options("cov", true));
  EXPECT_GE(r.instrumentation.pruned_dominated, 1u);
  EXPECT_LT(r.instrumentation.probes, r.instrumentation.candidate_sites);
  expect_equivalent(img, r.image);
}

TEST(CovPrune, ChainCountsCollapsedSites) {
  auto img = must_assemble(kChain);
  auto r = must_rewrite(img, cov_options("cov", true));
  EXPECT_GT(r.instrumentation.collapsed_single_pred, 0u);
  expect_equivalent(img, r.image);
}

TEST(CovPrune, DoubleEdgeJccSplitsOnce) {
  auto img = must_assemble(kDoubleEdge);
  auto r = must_rewrite(img, cov_options("cov", true));
  EXPECT_EQ(r.instrumentation.split_critical_edges, 1u);
  expect_equivalent(img, r.image);
}

TEST(CovPrune, BlockModeNeverSplitsEdges) {
  auto img = must_assemble(kDoubleEdge);
  auto r = must_rewrite(img, cov_options("cov-block", true));
  EXPECT_EQ(r.instrumentation.split_critical_edges, 0u);
  expect_equivalent(img, r.image);
}

TEST(CovPrune, DeadRegistersElideSaves) {
  // The programs above touch only r0/r1/r3, so liveness hands the stubs
  // free scratch registers and the push/pop pairs disappear.
  auto img = must_assemble(kChain);
  auto r = must_rewrite(img, cov_options("cov", true));
  EXPECT_GT(r.instrumentation.elided_reg_saves, 0u);
}

TEST(CovPrune, ConservativePathKeepsLegacyAccounting) {
  // With pruning off the transform reproduces the historical emission:
  // every candidate site is probed or flag-skipped, and no CFG-derived
  // counter may fire.
  for (const char* src : {kDiamond, kChain, kDoubleEdge}) {
    auto img = must_assemble(src);
    auto r = must_rewrite(img, cov_options("cov", false));
    const auto& in = r.instrumentation;
    EXPECT_EQ(in.probes + in.skipped_flags, in.candidate_sites);
    EXPECT_EQ(in.pruned_dominated, 0u);
    EXPECT_EQ(in.collapsed_single_pred, 0u);
    EXPECT_EQ(in.split_critical_edges, 0u);
    EXPECT_EQ(in.elided_flag_saves, 0u);
    EXPECT_EQ(in.elided_reg_saves, 0u);
    expect_equivalent(img, r.image);
  }
}

TEST(CovPrune, PrunedEmitsFewerProbesSameBehaviour) {
  for (const char* transform : {"cov", "cov-block"}) {
    for (const char* src : {kDiamond, kChain}) {
      auto img = must_assemble(src);
      auto on = must_rewrite(img, cov_options(transform, true));
      auto off = must_rewrite(img, cov_options(transform, false));
      EXPECT_LT(on.instrumentation.probes, off.instrumentation.probes)
          << transform << " pruning did not reduce probe count";
      expect_equivalent(img, on.image);
      expect_equivalent(img, off.image);
      expect_equivalent(img, on.image, /*input=*/{}, /*seed=*/99);
    }
  }
}

// ---- corpus overhead: null vs cov vs cov-block ----

// Execution-overhead ceilings over the 62-CB corpus (cycle counts, so
// deterministic). Edge mode measures 0.3007; its ceiling is that figure
// plus 25 %. Block mode measures 0.1507.
constexpr double kMaxCovExecOverhead = 0.37589;
constexpr double kMaxCovBlockExecOverhead = 0.30;
// The CFG analysis prunes or collapses about 29 % of candidate probe
// sites; below this floor the dominator rules stopped firing.
constexpr double kMinPruneRate = 0.25;

struct CorpusOverhead {
  std::size_t functional = 0;
  double exec = 0;
  transform::InstrumentationStats instr;  ///< summed over the corpus
};

CorpusOverhead corpus_overhead(std::vector<std::string> transforms) {
  cgc::EvalOptions opts;
  opts.rewrite.transforms = std::move(transforms);
  opts.polls = 2;
  auto metrics = cgc::evaluate_corpus(cgc::cfe_corpus(), opts);
  EXPECT_TRUE(metrics.ok()) << (metrics.ok() ? "" : metrics.error().message);
  CorpusOverhead o;
  if (!metrics.ok()) return o;
  o.exec = cgc::mean_overhead(*metrics, &cgc::CbMetrics::exec_overhead);
  for (const auto& m : *metrics) {
    o.functional += m.functional ? 1 : 0;
    o.instr += m.instrumentation;
  }
  return o;
}

TEST(CovOverhead, CorpusStaysFunctionalUnderTheCeilings) {
  const CorpusOverhead null = corpus_overhead({});
  const CorpusOverhead edge = corpus_overhead({"cov"});
  const CorpusOverhead block = corpus_overhead({"cov-block"});
  const std::size_t corpus = cgc::cfe_corpus().size();
  EXPECT_EQ(null.functional, corpus);
  EXPECT_EQ(edge.functional, corpus);
  EXPECT_EQ(block.functional, corpus);

  EXPECT_GT(edge.exec, null.exec) << "cov instrumentation costs nothing measurable";
  EXPECT_LE(block.exec, edge.exec + 1e-9) << "block mode is slower than edge mode";
  EXPECT_LE(edge.exec, kMaxCovExecOverhead);
  EXPECT_LT(block.exec, kMaxCovBlockExecOverhead);
  EXPECT_GE(edge.instr.prune_rate(), kMinPruneRate);
  EXPECT_GE(block.instr.prune_rate(), kMinPruneRate);
}

// ---- differential bug rediscovery ----

/// Fuzz an instrumented build of `vuln` and triage every crash by
/// replaying its input on the ORIGINAL image. The key is the replayed
/// fault class: unlike the fuzzer's own path-sensitive crash identity
/// (or the faulting pc, which mutation steers to arbitrary addresses
/// for the same planted out-of-bounds bug), the fault class survives a
/// change of instrumentation.
std::set<vm::Fault> triage_keys(const cgc::VulnCb& vuln, std::uint64_t seed, bool prune) {
  auto opts = cov_options("cov", prune);
  if (vuln.laf_gated) opts.transforms.insert(opts.transforms.begin(), "laf");
  auto rewritten = must_rewrite(vuln.image, opts);
  fuzz::FuzzOptions fopts;
  fopts.seed = seed;
  fopts.max_execs = 6000;
  auto result = fuzz::fuzz(rewritten.image, {vuln.benign_input}, fopts);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  if (!result.ok()) return {};
  std::set<vm::Fault> keys;
  for (const auto& crash : result->crashes) {
    auto replay = vm::run_program(vuln.image, crash.input);
    if (!replay.exited && replay.fault != vm::Fault::kGasExhausted)
      keys.insert(replay.fault);
  }
  return keys;
}

TEST(CovPruneDifferential, SameBugsWithAndWithoutPruning) {
  // The planted-bug corpus must be rediscovered identically whether or
  // not the instrumentation was pruned, across independent campaign
  // seeds: pruning may drop probes, never signal.
  for (const auto& vuln : cgc::vulnerable_corpus()) {
    for (std::uint64_t seed : {7ull, 11ull}) {
      auto pruned = triage_keys(vuln, seed, /*prune=*/true);
      auto full = triage_keys(vuln, seed, /*prune=*/false);
      EXPECT_FALSE(full.empty()) << vuln.name << " seed " << seed
                                 << ": unpruned campaign found nothing";
      EXPECT_EQ(pruned, full) << vuln.name << " seed " << seed
                              << ": pruning changed the set of rediscovered bugs";
    }
  }
}

}  // namespace
}  // namespace zipr
