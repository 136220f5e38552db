// Tests for the coverage-guided fuzzing subsystem: the "cov" transform
// (behaviour preservation + map recording), the persistent-mode executor
// (snapshot/restore determinism and isolation), the mutation engine, and
// the fuzzer core (planted-bug rediscovery, worker-count independence,
// trimming, crash triage).
#include <gtest/gtest.h>

#include <algorithm>

#include "cgc/exploits.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "testing_util.h"
#include "transform/api.h"
#include "transform/cov.h"

namespace zipr::fuzz {
namespace {

using ::zipr::testing::expect_equivalent;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;

// A program whose path depends on its input: branches, a loop, a call.
const char* kBranchy = R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, inbuf
      movi r3, 8
      syscall
      movi r6, inbuf
      load r1, [r6]
      cmpi r1, 100
      jlt small
      movi r2, 2
      jmp join
    small:
      movi r2, 1
    join:
      movi r3, 0
    loop:
      addi r3, 1
      cmp r3, r2
      jlt loop
      call emit
      movi r0, 1
      movi r1, 0
      syscall
    emit:
      movi r0, 2
      movi r1, 1
      movi r2, msg
      movi r3, 3
      syscall
      ret
    .rodata
    msg: .ascii "ok\n"
    .bss
    inbuf: .space 8
)";

zelf::Image instrument(const zelf::Image& img, const std::string& transform = "cov",
                       std::uint64_t seed = 1) {
  RewriteOptions opts;
  opts.transforms = {transform};
  opts.seed = seed;
  return must_rewrite(img, opts).image;
}

Bytes le64(std::uint64_t v) {
  Bytes b;
  put_u64(b, v);
  return b;
}

// ---- the "cov" transform ----

TEST(CovTransform, PreservesBehaviourAndRecordsCoverage) {
  auto img = must_assemble(kBranchy);
  auto cov = instrument(img);
  for (std::uint64_t v : {0ull, 50ull, 100ull, 200ull})
    expect_equivalent(img, cov, le64(v));

  Executor ex(cov);
  ASSERT_TRUE(ex.instrumented());
  auto res = ex.execute(le64(50));
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->run.exited);
  EXPECT_FALSE(res->crashed);
  EXPECT_GT(std::count_if(res->map.begin(), res->map.end(), [](Byte b) { return b != 0; }), 0);
}

TEST(CovTransform, BlockModeAlsoWorks) {
  auto img = must_assemble(kBranchy);
  auto cov = instrument(img, "cov-block");
  expect_equivalent(img, cov, le64(7));

  Executor ex(cov);
  ASSERT_TRUE(ex.instrumented());
  auto res = ex.execute(le64(7));
  ASSERT_TRUE(res.ok());
  EXPECT_GT(std::count_if(res->map.begin(), res->map.end(), [](Byte b) { return b != 0; }), 0);
}

TEST(CovTransform, DistinctPathsDistinctMaps) {
  auto cov = instrument(must_assemble(kBranchy));
  Executor ex(cov);
  auto a = ex.execute(le64(5));    // takes the `small` side
  auto b = ex.execute(le64(200));  // takes the other side + longer loop
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(path_hash(a->map), path_hash(b->map));
}

TEST(CovTransform, UninstrumentedImageReportsZeroMap) {
  auto img = must_assemble(kBranchy);
  Executor ex(img);
  EXPECT_FALSE(ex.instrumented());
  auto res = ex.execute(le64(5));
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->run.exited);
  EXPECT_EQ(std::count_if(res->map.begin(), res->map.end(), [](Byte b) { return b != 0; }), 0);
}

// Satellite (d): the coverage-map segment must survive every placement
// strategy x seed combination -- reassembly's final image validation would
// reject a text/overflow layout growing into the added segment, so a
// clean validate() + identical behaviour proves no silent overlap.
TEST(CovTransform, MapSegmentSurvivesAllPlacements) {
  auto img = must_assemble(kBranchy);
  const auto map_base = transform::cov_map_base(img.text().vaddr);
  for (auto placement : {rewriter::PlacementKind::kNearfit, rewriter::PlacementKind::kDiversity,
                         rewriter::PlacementKind::kPinPage}) {
    for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
      RewriteOptions opts;
      opts.transforms = {"cov"};
      opts.placement = placement;
      opts.seed = seed;
      auto cov = must_rewrite(img, opts).image;
      ASSERT_TRUE(cov.validate().ok()) << "placement " << static_cast<int>(placement)
                                       << " seed " << seed;
      const zelf::Segment* seg = cov.segment_containing(map_base);
      ASSERT_NE(seg, nullptr);
      EXPECT_EQ(seg->vaddr, map_base);
      EXPECT_GE(seg->memsize, transform::kCovSegBytes);
      expect_equivalent(img, cov, le64(123));
    }
  }
}

// ---- registry / context hardening (satellites b, c) ----

TEST(Registry, CovTransformsRegistered) {
  auto names = transform::registered_transforms();
  for (const char* want : {"cov", "cov-block"})
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
}

TEST(Registry, UnknownNameErrorListsRegistered) {
  auto t = transform::make_transform("definitely-not-registered");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.error().kind, Error::Kind::kNotFound);
  EXPECT_NE(t.error().message.find("registered:"), std::string::npos) << t.error().message;
  EXPECT_NE(t.error().message.find("cov"), std::string::npos) << t.error().message;
  EXPECT_NE(t.error().message.find("cfi"), std::string::npos) << t.error().message;
}

TEST(Context, AddSegmentOverlapErrorNamesBothRanges) {
  auto img = must_assemble(".entry m\n.text\nm: hlt\n");
  auto prog = analysis::build_ir(img);
  ASSERT_TRUE(prog.ok());
  transform::TransformContext ctx(*prog, 1);
  zelf::Segment seg;
  seg.kind = zelf::SegKind::kRodata;
  seg.vaddr = img.text().end() - 1;  // straddles the end of text
  seg.memsize = 32;
  seg.bytes = Bytes(32, 0);
  const std::uint64_t want_lo = seg.vaddr;
  const std::uint64_t want_hi = seg.vaddr + seg.memsize;
  Status s = ctx.add_segment(std::move(seg));
  ASSERT_FALSE(s.ok());
  // Both the requested range and the conflicting text range, as [lo, hi).
  EXPECT_NE(s.error().message.find(hex_addr(want_lo)), std::string::npos) << s.error().message;
  EXPECT_NE(s.error().message.find(hex_addr(want_hi)), std::string::npos) << s.error().message;
  EXPECT_NE(s.error().message.find(hex_addr(img.text().vaddr)), std::string::npos)
      << s.error().message;
  EXPECT_NE(s.error().message.find(hex_addr(img.text().end())), std::string::npos)
      << s.error().message;
}

// ---- the persistent-mode executor ----

TEST(Executor, RepeatedRunsAreIdentical) {
  auto cov = instrument(must_assemble(kBranchy));
  Executor ex(cov);
  auto a = ex.execute(le64(42), 7);
  auto b = ex.execute(le64(42), 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->run.output, b->run.output);
  EXPECT_EQ(a->run.stats.insns, b->run.stats.insns);
  EXPECT_EQ(a->map, b->map);
  EXPECT_EQ(ex.resets(), 1u);  // first run needs no reset
}

TEST(Executor, MatchesAFreshExecutor) {
  auto cov = instrument(must_assemble(kBranchy));
  Executor warm(cov);
  ASSERT_TRUE(warm.execute(le64(1)).ok());   // dirty the machine
  ASSERT_TRUE(warm.execute(le64(200)).ok());
  auto warm_res = warm.execute(le64(42));
  Executor fresh(cov);
  auto fresh_res = fresh.execute(le64(42));
  ASSERT_TRUE(warm_res.ok() && fresh_res.ok());
  EXPECT_EQ(warm_res->run.output, fresh_res->run.output);
  EXPECT_EQ(warm_res->map, fresh_res->map);
  EXPECT_EQ(warm_res->run.stats.insns, fresh_res->run.stats.insns);
}

TEST(Executor, CrashDoesNotLeakIntoNextRun) {
  auto vulns = cgc::vulnerable_corpus();
  const auto& fptr = vulns[0];
  auto cov = instrument(fptr.image);
  Executor ex(cov);
  // Hijack the fptr to an unmapped address: the run must fault...
  auto crash = ex.execute(le64(0xdead0000), 0);
  ASSERT_TRUE(crash.ok());
  EXPECT_TRUE(crash->crashed);
  // ...and the next benign run must be indistinguishable from a fresh VM.
  auto after = ex.execute(fptr.benign_input, 0);
  Executor fresh(cov);
  auto clean = fresh.execute(fptr.benign_input, 0);
  ASSERT_TRUE(after.ok() && clean.ok());
  EXPECT_FALSE(after->crashed);
  EXPECT_EQ(after->run.output, clean->run.output);
  EXPECT_EQ(after->map, clean->map);
}

// ---- the mutation engine ----

TEST(Mutator, DeterministicStagesArePureFunctions) {
  Bytes input{1, 2, 3, 4};
  const std::size_t n = det_count(input.size());
  ASSERT_GT(n, 0u);
  std::size_t noops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes a = det_mutate(input, i);
    Bytes b = det_mutate(input, i);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), input.size());
    if (a == input) ++noops;
  }
  // Only the interesting-constants sub-stage can be a no-op (when the
  // constant happens to equal the byte already there): at most one of the
  // nine constants per byte.
  EXPECT_LE(noops, input.size());
  // The first 8 mutations are single-bit flips of byte 0.
  EXPECT_EQ(det_mutate(input, 0)[0], 1 ^ 1);
  EXPECT_EQ(det_mutate(input, 3)[0], 1 ^ 8);
}

TEST(Mutator, HavocIsSeedDeterministicAndCanGrow) {
  Bytes input{'p', 'i', 'n', 'g'};
  Rng r1(99), r2(99);
  EXPECT_EQ(havoc_mutate(input, r1), havoc_mutate(input, r2));

  Rng rng(1);
  std::size_t biggest = 0;
  for (int i = 0; i < 200; ++i)
    biggest = std::max(biggest, havoc_mutate(input, rng).size());
  EXPECT_GT(biggest, 40u) << "havoc never grew a 4-byte input past a stack frame";
}

TEST(Mutator, SpliceCombinesBothParents) {
  Bytes a(16, 0xAA), b(16, 0xBB);
  Rng rng(5);
  // Across a few seeds the child should not always equal a pure havoc of `a`.
  bool saw_b_bytes = false;
  for (int i = 0; i < 20 && !saw_b_bytes; ++i) {
    Bytes child = splice_mutate(a, b, rng);
    saw_b_bytes = std::find(child.begin(), child.end(), 0xBB) != child.end();
  }
  EXPECT_TRUE(saw_b_bytes);
}

// ---- the fuzzer core ----

FuzzOptions smoke_opts(std::uint64_t max_execs) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.max_execs = max_execs;
  return opts;
}

// The headline smoke gate: a tiny deterministic budget rediscovers the
// planted function-pointer bug from its benign seed alone.
TEST(FuzzSmoke, RediscoversPlantedFptrBug) {
  auto vulns = cgc::vulnerable_corpus();
  const auto& fptr = vulns[0];
  auto cov = instrument(fptr.image);
  auto result = fuzz(cov, {fptr.benign_input}, smoke_opts(1200));
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->crashes.size(), 1u);
  // The crashing input must also take down the ORIGINAL binary.
  auto replay = vm::run_program(fptr.image, result->crashes[0].input);
  EXPECT_FALSE(replay.exited);
  EXPECT_NE(replay.fault, vm::Fault::kGasExhausted);
}

TEST(Fuzzer, RediscoversEveryPlantedBug) {
  for (const auto& vuln : cgc::vulnerable_corpus()) {
    // Magic-gated CBs are hopeless for plain coverage (see the laf_test
    // differential); stack compare-splitting under the coverage pass.
    RewriteOptions opts;
    opts.transforms = vuln.laf_gated ? std::vector<std::string>{"laf", "cov"}
                                     : std::vector<std::string>{"cov"};
    auto cov = must_rewrite(vuln.image, opts).image;
    auto result = fuzz(cov, {vuln.benign_input}, smoke_opts(6000));
    ASSERT_TRUE(result.ok()) << vuln.name;
    ASSERT_GE(result->crashes.size(), 1u) << vuln.name << ": no crash within budget";
    bool replays = false;
    for (const auto& crash : result->crashes) {
      auto replay = vm::run_program(vuln.image, crash.input);
      replays |= !replay.exited && replay.fault != vm::Fault::kGasExhausted;
    }
    EXPECT_TRUE(replays) << vuln.name << ": no crash replays on the uninstrumented binary";
    EXPECT_GT(result->stats.map_indices_hit, 0u) << vuln.name << ": coverage map stayed dead";
    // Satellite visibility: every admission/crash is attributed to a
    // stage, and the seed stage accounts for exactly the seed entries.
    const auto& st = result->stats.stages;
    std::uint64_t admitted = 0, crashed = 0;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      admitted += st.admitted[i];
      crashed += st.crashes[i];
    }
    EXPECT_EQ(admitted, result->corpus.size()) << vuln.name;
    EXPECT_EQ(crashed, result->crashes.size()) << vuln.name;
    EXPECT_GE(st.admitted[static_cast<std::size_t>(MutationStage::kSeed)], 1u) << vuln.name;
  }
}

TEST(Fuzzer, SameSpecSameCampaign) {
  auto cov = instrument(must_assemble(kBranchy));
  auto a = fuzz(cov, {le64(5)}, smoke_opts(800));
  auto b = fuzz(cov, {le64(5)}, smoke_opts(800));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stats.execs, b->stats.execs);
  ASSERT_EQ(a->corpus.size(), b->corpus.size());
  for (std::size_t i = 0; i < a->corpus.size(); ++i)
    EXPECT_EQ(a->corpus[i].input, b->corpus[i].input);
}

TEST(Fuzzer, TrimsUnreadTailOffSeeds) {
  // kBranchy reads exactly 8 bytes; a 64-byte seed is admitted as its 8
  // consumed bytes, and the cut costs no run beyond the seed's own.
  auto cov = instrument(must_assemble(kBranchy));
  Bytes fat(64, 9);
  auto result = fuzz(cov, {fat}, smoke_opts(1));
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->corpus.size(), 1u);
  EXPECT_EQ(result->corpus[0].input.size(), 8u);
  EXPECT_EQ(result->stats.execs, 1u);
}

// Why a trimmed admission needs no proof run: receive() returns
// min(count, available), so a run that left input unread got every byte it
// asked for, and the same run on the input cut to input_bytes_consumed
// receives the same bytes. admit() trims only non-crashing runs with
// consumed < size; wherever that rule trims a planted CB's benign input
// plus a tail, the cut input must reproduce the full run exactly.
TEST(Fuzzer, TrimmedInputReplaysTheFullRun) {
  std::size_t trimmed = 0;
  for (const auto& vuln : cgc::vulnerable_corpus()) {
    RewriteOptions opts;
    opts.transforms = vuln.laf_gated ? std::vector<std::string>{"laf", "cov"}
                                     : std::vector<std::string>{"cov"};
    Executor ex(must_rewrite(vuln.image, opts).image);
    Bytes input = vuln.benign_input;
    input.insert(input.end(), 64, 0xa5);

    auto full = ex.execute(input, 7);
    ASSERT_TRUE(full.ok()) << vuln.name;
    const std::size_t consumed = full->run.input_bytes_consumed;
    if (full->crashed || consumed == input.size()) continue;  // admit() keeps it whole
    ++trimmed;

    auto cut = ex.execute(ByteView(input.data(), consumed), 7);
    ASSERT_TRUE(cut.ok()) << vuln.name;
    const vm::RunResult& a = full->run;
    const vm::RunResult& b = cut->run;
    EXPECT_EQ(a.exited, b.exited) << vuln.name;
    EXPECT_EQ(a.exit_status, b.exit_status) << vuln.name;
    EXPECT_EQ(a.fault, b.fault) << vuln.name;
    EXPECT_EQ(a.fault_pc, b.fault_pc) << vuln.name;
    EXPECT_EQ(a.stats.insns, b.stats.insns) << vuln.name;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << vuln.name;
    EXPECT_EQ(a.stats.syscalls, b.stats.syscalls) << vuln.name;
    EXPECT_EQ(a.stats.max_rss_pages, b.stats.max_rss_pages) << vuln.name;
    EXPECT_EQ(a.output, b.output) << vuln.name;
    EXPECT_EQ(b.input_bytes_consumed, consumed) << vuln.name;
    EXPECT_EQ(full->map, cut->map) << vuln.name;
  }
  // vuln_stack reads up to 256 bytes into a 32-byte frame, so the tail
  // crashes it; the other three leave the tail unread.
  EXPECT_EQ(trimmed, 3u);
}

// The same guarantee at campaign scale: after ten rounds on each planted
// CB (laf+cov, seed 11, as the golden digests run), every corpus entry
// replayed on a fresh executor reads all of its (cut) input and reproduces
// the coverage map and instruction count the fuzzer stored for it. These
// campaigns seldom admit an input with unread bytes, so a second seed
// carries a 64-byte tail that admission must cut (vuln_stack crashes on it).
TEST(Fuzzer, CorpusEntriesReplayTheirStoredRun) {
  RewriteOptions laf_cov;
  laf_cov.transforms = {"laf", "cov"};
  FuzzOptions opts;
  opts.seed = 11;
  const auto vulns = cgc::vulnerable_corpus();
  std::size_t mutants = 0;
  for (const auto& vuln : vulns) {
    const zelf::Image image = must_rewrite(vuln.image, laf_cov).image;
    Fuzzer fz(image, opts);
    Executor ex(image, opts.limits);
    Bytes tailed = vuln.benign_input;
    tailed.insert(tailed.end(), 64, 0xa5);
    ASSERT_TRUE(fz.seed_corpus({vuln.benign_input, tailed}, ex).ok()) << vuln.name;
    for (int round = 0; round < 10; ++round) {
      std::vector<Fuzzer::Task> tasks = fz.plan_round();
      ASSERT_TRUE(fz.execute_serial(tasks, ex).ok()) << vuln.name;
      ASSERT_TRUE(fz.merge_round(tasks, ex).ok()) << vuln.name;
    }
    mutants += fz.corpus().size() - fz.stats().stages.admit(MutationStage::kSeed);

    Executor fresh(image, opts.limits);
    for (std::size_t i = 0; i < fz.corpus().size(); ++i) {
      const CorpusEntry& entry = fz.corpus()[i];
      auto replay = fresh.execute(entry.input, fz.guest_seed());
      ASSERT_TRUE(replay.ok()) << vuln.name << " entry " << i;
      EXPECT_FALSE(replay->crashed) << vuln.name << " entry " << i;
      EXPECT_EQ(replay->run.input_bytes_consumed, entry.input.size())
          << vuln.name << " entry " << i;
      EXPECT_EQ(replay->map, entry.map) << vuln.name << " entry " << i;
      EXPECT_EQ(replay->run.stats.insns, entry.exec_insns) << vuln.name << " entry " << i;
    }
  }
  EXPECT_GT(mutants, 0u) << "the campaigns admitted nothing beyond their seeds";
}

TEST(Fuzzer, CrashTriageDeduplicates) {
  auto vulns = cgc::vulnerable_corpus();
  const auto& fptr = vulns[0];
  auto cov = instrument(fptr.image);
  auto result = fuzz(cov, {fptr.benign_input}, smoke_opts(3000));
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->crashes.size(), 1u);
  // Triage keys are unique and sorted.
  for (std::size_t i = 1; i < result->crashes.size(); ++i) {
    auto key = [](const Crash& c) { return std::tuple(c.fault, c.fault_pc, c.path); };
    EXPECT_LT(key(result->crashes[i - 1]), key(result->crashes[i]));
  }
  // Far fewer unique crashes than crashing executions: thousands of
  // mutants fault, the triage buckets them by (fault, normalized pc,
  // path) -- wild attacker-chosen targets collapse to one pc.
  EXPECT_GE(result->stats.crashing_execs, result->crashes.size());
  EXPECT_LT(result->crashes.size() * 5, result->stats.crashing_execs);
}

}  // namespace
}  // namespace zipr::fuzz
