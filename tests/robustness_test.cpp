// Stress and property tests across the whole pipeline: rewriting a
// rewritten binary, malformed-input handling, the profile transform's
// counters, disassembler accuracy against ground truth, and full
// defense-stack sweeps.
#include <gtest/gtest.h>

#include "analysis/disasm.h"
#include "cgc/generator.h"
#include "cgc/poller.h"
#include "testing_util.h"
#include "transform/profile.h"
#include "zelf/io.h"

namespace zipr {
namespace {

using ::zipr::testing::behaviour_of;
using ::zipr::testing::expect_equivalent;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;

// ---- Zipr eats its own output ----

TEST(DoubleRewrite, RewrittenBinaryRewritesAgain) {
  // The output of a rewrite is itself a valid, metadata-free binary; a
  // second rewrite (even with a different strategy) must preserve
  // behaviour. This exercises analysis of machine-generated layouts:
  // reference jumps at pins, relocated dollops, overflow code.
  cgc::CbSpec spec;
  spec.name = "double-subject";
  spec.seed = 99;
  spec.handlers = 3;
  spec.filler_funcs = 6;
  spec.filler_ops = 10;
  auto cb = cgc::generate_cb(spec);
  ASSERT_TRUE(cb.ok());

  RewriteOptions first;
  first.placement = rewriter::PlacementKind::kNearfit;
  auto once = must_rewrite(cb->image, first);

  RewriteOptions second;
  second.placement = rewriter::PlacementKind::kDiversity;
  second.seed = 5;
  auto twice = must_rewrite(once.image, second);

  for (const auto& poll : cgc::make_polls(*cb, 5, 321)) {
    auto a = vm::run_program(cb->image, poll.input, poll.vm_seed);
    auto c = vm::run_program(twice.image, poll.input, poll.vm_seed);
    EXPECT_EQ(a.exited, c.exited);
    EXPECT_EQ(a.exit_status, c.exit_status);
    EXPECT_EQ(a.output, c.output) << "double rewrite diverged";
  }
}

TEST(DoubleRewrite, TripleNullRewriteConverges) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      movi r2, 0
    loop:
      addi r2, 3
      cmpi r2, 30
      jlt loop
      call f
      movi r0, 1
      mov r1, r2
      syscall
    f:
      addi r2, 100
      ret
  )");
  zelf::Image current = original;
  for (int round = 0; round < 3; ++round) {
    RewriteOptions opts;
    opts.seed = static_cast<std::uint64_t>(round + 1);
    current = must_rewrite(current, opts).image;
    expect_equivalent(original, current);
  }
}

// ---- malformed inputs must error, never crash ----

TEST(Fuzz, TruncatedImagesRejectedCleanly) {
  zelf::Image img = must_assemble(".entry m\n.text\nm: movi r0, 1\nmovi r1, 0\nsyscall\n");
  Bytes wire = zelf::write_image(img);
  for (std::size_t cut = 0; cut < wire.size(); cut += 3) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    auto r = zelf::read_image(truncated);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST(Fuzz, BitflippedImagesNeverCrashTheRewriter) {
  zelf::Image img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r1, f
      callr r1
      movi r0, 1
      movi r1, 0
      syscall
    f:
      movi r1, 1
      ret
  )");
  Bytes wire = zelf::write_image(img);
  Rng rng(2024);
  int parsed = 0, rewritten_count = 0;
  for (int iter = 0; iter < 300; ++iter) {
    Bytes mutated = wire;
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      std::size_t at = rng.below(mutated.size());
      mutated[at] ^= static_cast<Byte>(1u << rng.below(8));
    }
    auto loaded = zelf::read_image(mutated);
    if (!loaded.ok()) continue;  // rejected at parse: fine
    ++parsed;
    auto r = rewrite(*loaded, {});
    // Either a clean error or a successful rewrite; both acceptable.
    if (r.ok()) ++rewritten_count;
  }
  // Many mutations only touch code bytes, which still parse.
  EXPECT_GT(parsed, 10);
  EXPECT_GT(rewritten_count, 0);
}

TEST(Fuzz, RandomTextSegmentsNeverCrashTheRewriter) {
  Rng rng(77);
  int ok_count = 0;
  for (int iter = 0; iter < 100; ++iter) {
    zelf::Image img;
    zelf::Segment text;
    text.kind = zelf::SegKind::kText;
    text.vaddr = zelf::layout::kTextBase;
    std::size_t n = 16 + rng.below(256);
    for (std::size_t i = 0; i < n; ++i)
      text.bytes.push_back(static_cast<Byte>(rng.below(256)));
    text.memsize = text.bytes.size();
    img.segments.push_back(std::move(text));
    img.entry = zelf::layout::kTextBase;
    auto r = rewrite(img, {});
    if (r.ok()) ++ok_count;  // conservative handling may well succeed
  }
  // No crash is the property; most random programs should still rewrite
  // (everything unprovable stays verbatim).
  EXPECT_GT(ok_count, 50);
}

// ---- the profile transform ----

TEST(Profile, CountersMatchCallCounts) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      movi r2, 0
    again:
      call twice_called
      addi r2, 1
      cmpi r2, 2
      jlt again
      call once_called
      movi r0, 1
      movi r1, 0
      syscall
    twice_called:
      call nested        ; nested runs once per call -> twice total
      ret
    nested:
      ret
    once_called:
      ret
  )");
  RewriteOptions opts;
  opts.transforms = {"profile"};
  auto r = must_rewrite(original, opts);
  expect_equivalent(original, r.image);

  // Function ids are assigned in entry-address order during IR
  // construction: main, twice_called, nested, once_called.
  vm::Machine m(r.image);
  auto run = m.run();
  ASSERT_TRUE(run.exited);
  auto counter = [&](std::size_t index) {
    auto v = m.memory().read_u64(
        transform::profile_counter_addr(zelf::layout::kTextBase, index));
    EXPECT_TRUE(v.has_value());
    return v.value_or(0);
  };
  EXPECT_EQ(counter(0), 1u);  // main
  EXPECT_EQ(counter(1), 2u);  // twice_called
  EXPECT_EQ(counter(2), 2u);  // nested
  EXPECT_EQ(counter(3), 1u);  // once_called
}

TEST(Profile, ComposesWithSecurityTransforms) {
  auto corpus = cgc::cfe_corpus();
  auto cb = cgc::generate_cb(corpus[4]);
  ASSERT_TRUE(cb.ok());
  RewriteOptions opts;
  opts.transforms = {"profile", "cfi", "canary"};
  auto r = must_rewrite(cb->image, opts);
  for (const auto& poll : cgc::make_polls(*cb, 3, 9))
    EXPECT_TRUE(cgc::run_poll(cb->image, r.image, poll).functional);
}

// ---- disassembler accuracy against ground truth ----

TEST(Accuracy, TraversalFindsAllGroundTruthFunctions) {
  // Assemble WITH symbols, analyze WITHOUT, compare function entries.
  cgc::CbSpec spec;
  spec.name = "accuracy-subject";
  spec.seed = 31337;
  spec.handlers = 4;
  spec.filler_funcs = 8;
  spec.filler_ops = 10;
  spec.recursion = true;
  std::vector<int> payload_len;
  auto src = cgc::generate_cb_source(spec, &payload_len);
  ASSERT_TRUE(src.ok());
  auto with_symbols = assembler::assemble(*src);  // symbols on
  ASSERT_TRUE(with_symbols.ok());

  auto rec = analysis::recursive_traversal(*with_symbols);
  std::size_t truth = 0, reachable = 0, found = 0;
  for (const auto& sym : with_symbols->symbols) {
    if (sym.kind != zelf::Symbol::Kind::kFunc) continue;
    ++truth;
    // Some generated fillers are dead code (never called, never
    // address-taken); only reachable functions can be discovered.
    if (!rec.dis.insns.count(sym.addr)) continue;
    ++reachable;
    found += rec.function_entries.count(sym.addr) ? 1 : 0;
  }
  ASSERT_GT(truth, 5u);
  ASSERT_GE(reachable, 7u);
  // Every reachable ground-truth function must be recognized as one.
  EXPECT_EQ(found, reachable);
  // And no entry may be invented inside data.
  for (std::uint64_t entry : rec.function_entries)
    EXPECT_TRUE(rec.dis.insns.count(entry)) << hex_addr(entry);
}

TEST(Accuracy, LinearSweepOverclaimsOnDataInText) {
  cgc::CbSpec spec;
  spec.name = "overclaim-subject";
  spec.seed = 4242;
  spec.handlers = 2;
  spec.filler_funcs = 2;
  spec.data_in_text = true;
  std::vector<int> payload_len;
  auto src = cgc::generate_cb_source(spec, &payload_len);
  ASSERT_TRUE(src.ok());
  auto img = assembler::assemble(*src);
  ASSERT_TRUE(img.ok());

  auto linear = analysis::linear_sweep(img->text());
  auto rec = analysis::recursive_traversal(*img);
  // Linear sweep claims at least as many bytes as conclusive traversal;
  // the difference is exactly what the aggregator treats as ambiguous.
  EXPECT_GE(linear.code.total_size(), rec.dis.code.total_size());
  auto agg = analysis::aggregate(img->text(), linear, rec);
  EXPECT_FALSE(agg.ambiguous.empty());
}

// ---- full defense stack across a corpus slice ----

class DefenseStackTest : public ::testing::TestWithParam<int> {};

TEST_P(DefenseStackTest, AllTransformsTogetherPreserveBehaviour) {
  auto corpus = cgc::cfe_corpus();
  std::size_t idx = static_cast<std::size_t>(GetParam()) * 9 + 2;
  ASSERT_LT(idx, corpus.size());
  auto cb = cgc::generate_cb(corpus[idx]);
  ASSERT_TRUE(cb.ok()) << corpus[idx].name;

  RewriteOptions opts;
  opts.transforms = {"cfi", "stackpad", "canary", "profile"};
  opts.seed = 1234;
  auto r = must_rewrite(cb->image, opts);
  for (const auto& poll : cgc::make_polls(*cb, 3, 55)) {
    EXPECT_TRUE(cgc::run_poll(cb->image, r.image, poll).functional)
        << corpus[idx].name << " under the full stack";
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, DefenseStackTest, ::testing::Range(0, 6));

// ---- reference chaining under pin pressure ----

TEST(Chains, NaivePinningForcesChainsAndStaysCorrect) {
  // Saturated pin sets squeeze some references to 2 bytes with far
  // targets: those must resolve through chained trampolines (Sec. II-C3)
  // without behavioural change.
  auto corpus = cgc::cfe_corpus();
  auto cb = cgc::generate_cb(corpus[10]);
  ASSERT_TRUE(cb.ok());
  RewriteOptions opts;
  opts.analysis.pinning.naive_pin_all = true;
  auto r = must_rewrite(cb->image, opts);
  EXPECT_GE(r.reassembly.chains, 1u);
  for (const auto& poll : cgc::make_polls(*cb, 3, 17))
    EXPECT_TRUE(cgc::run_poll(cb->image, r.image, poll).functional);
}

// ---- rewritten binaries stay structurally valid ----

TEST(Validity, RewrittenImagesSerializeAndReload) {
  auto corpus = cgc::cfe_corpus();
  for (std::size_t i = 0; i < corpus.size(); i += 13) {
    auto cb = cgc::generate_cb(corpus[i]);
    ASSERT_TRUE(cb.ok());
    auto r = must_rewrite(cb->image, {});
    Bytes wire = zelf::write_image(r.image);
    auto back = zelf::read_image(wire);
    ASSERT_TRUE(back.ok()) << corpus[i].name;
    EXPECT_TRUE(back->validate().ok());
    // The reloaded image runs identically.
    auto poll = cgc::make_polls(*cb, 1, 3).front();
    EXPECT_TRUE(cgc::run_poll(r.image, *back, poll).functional);
  }
}

}  // namespace
}  // namespace zipr
