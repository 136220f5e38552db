// Tests for fallthrough dollop coalescing (paper Sec. III): elision must be
// invisible to execution (same behaviour, same non-jump trace), visible in
// the stats, and dead overflow pads (unused frontier trampolines) must be
// reclaimed.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/ir_builder.h"
#include "cgc/generator.h"
#include "cgc/metrics.h"
#include "cgc/poller.h"
#include "testing_util.h"
#include "vm/machine.h"
#include "zipr/reassembler.h"
#include "zipr/zipr.h"

namespace zipr {
namespace rewriter {

/// Friend of Reassembler: drives private pieces (reference-width policy,
/// pin resolution, the memory space) directly for regression tests.
class ReassemblerTestPeer {
 public:
  static MemorySpace& space(Reassembler& r) { return r.space_; }

  static isa::BranchWidth ref_width(const Reassembler& r, std::uint64_t site,
                                    std::uint64_t target, bool can_short, bool glue) {
    return r.ref_width(site, target, can_short, glue);
  }

  static Status resolve_squeezed_pin(Reassembler& r, std::uint64_t addr, irdb::InsnId target,
                                     std::uint64_t trampoline, bool trampoline_in_overflow) {
    Reassembler::PinSite pin;
    pin.addr = addr;
    pin.reserved = 2;
    pin.target = target;
    pin.trampoline = trampoline;
    pin.trampoline_in_overflow = trampoline_in_overflow;
    return r.resolve_pin(pin);
  }
};

// Test names carry the printed parameter; print a kind by name so the
// names are the same in every run.
void PrintTo(PlacementKind kind, std::ostream* os) { *os << placement_kind_name(kind); }

}  // namespace rewriter

namespace {

using cgc::cfe_corpus;
using cgc::generate_cb;
using cgc::make_polls;
using cgc::run_poll;
using rewriter::PlacementKind;
using rewriter::ReassemblerTestPeer;
using ::zipr::testing::Behaviour;
using ::zipr::testing::behaviour_of;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;

// A function-pointer-driven program: the pinned entry points give pin-site
// coalescing something to elide, and the loop exercises the rewritten
// control flow.
constexpr const char* kPinnedFuncsSrc = R"(
  .entry main
  .text
  main:
    movi r2, 0
    movi r3, 3
  loop:
    movi r1, accum1
    callr r1
    movi r1, accum2
    callr r1
    subi r3, 1
    cmpi r3, 0
    jne loop
    movi r1, obuf
    store8 [r1], r2
    movi r0, 2
    mov r2, r1
    movi r3, 1
    syscall
    movi r0, 1
    movi r1, 0
    syscall
  accum1:
    addi r2, 1
    ret
  accum2:
    addi r2, 2
    ret
  .data
  obuf:
    .byte 0x00
)";

// ---- regression: elision fires and is observable in the stats ----

TEST(CoalesceRegression, ElidesJumpsOnPinnedFunctions) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);

  RewriteOptions on, off;
  on.coalesce = true;
  off.coalesce = false;
  RewriteResult a = must_rewrite(original, on);
  RewriteResult b = must_rewrite(original, off);

  // With coalescing the pinned functions are emitted at their pinned
  // addresses: reference jumps are elided and the stats say so.
  EXPECT_GT(a.reassembly.jumps_elided, 0u);
  EXPECT_GT(a.reassembly.pins_in_place, 0u);
  EXPECT_GT(a.reassembly.bytes_saved, 0u);
  EXPECT_EQ(b.reassembly.jumps_elided, 0u);
  EXPECT_GT(a.reassembly.elision_rate(), 0.0);

  // Elision pays for itself: the coalesced layout may differ by rel8/rel32
  // glue noise on a binary this small, but never by more than one long jump.
  EXPECT_LE(a.reassembly.overflow_bytes, b.reassembly.overflow_bytes + isa::kJmp32Len);
  EXPECT_LE(a.image.file_size(), b.image.file_size() + isa::kJmp32Len);

  // And it is invisible to execution.
  Behaviour orig = behaviour_of(original);
  EXPECT_EQ(orig, behaviour_of(a.image));
  EXPECT_EQ(orig, behaviour_of(b.image));
}

TEST(CoalesceRegression, RespectsNoCoalesceOption) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  RewriteOptions off;
  off.coalesce = false;
  RewriteResult r = must_rewrite(original, off);
  EXPECT_EQ(r.reassembly.jumps_elided, 0u);
  EXPECT_EQ(r.reassembly.dollops_coalesced, 0u);
  EXPECT_EQ(r.reassembly.elision_rate(), 0.0);
}

TEST(CoalesceRegression, DiversityDefaultsCoalesceOff) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  RewriteOptions opts;
  opts.placement = PlacementKind::kDiversity;
  RewriteResult r = must_rewrite(original, opts);
  // Diversity placement must not correlate successor layout with
  // predecessor layout unless explicitly asked to.
  EXPECT_EQ(r.reassembly.jumps_elided, 0u);
}

// ---- differential execution: trace identical modulo unconditional jumps ----

// Retired-op trace with unconditional jumps filtered out: elision and
// chaining only ever add or remove `jmp`, so everything else must match
// the original program exactly, in order.
std::vector<std::uint8_t> op_trace(const zelf::Image& img, std::uint64_t seed) {
  vm::Machine m(img);
  m.set_random_seed(seed);
  std::vector<std::uint8_t> ops;
  m.set_trace([&ops](std::uint64_t, const isa::Insn& in) {
    if (in.op != isa::Op::kJmp) ops.push_back(static_cast<std::uint8_t>(in.op));
  });
  vm::RunResult r = m.run();
  EXPECT_TRUE(r.exited) << "trace run faulted: " << vm::fault_name(r.fault);
  return ops;
}

struct DiffCase {
  const char* name;
  PlacementKind placement;
};

// Print a case by name, not as the bytes of its name pointer, so the
// listed test names are the same in every run.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

const DiffCase kStrategyCases[] = {{"nearfit", PlacementKind::kNearfit},
                                   {"diversity", PlacementKind::kDiversity},
                                   {"pinpage", PlacementKind::kPinPage}};

std::string strategy_name(const ::testing::TestParamInfo<DiffCase>& info) {
  return info.param.name;
}

class CoalesceDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CoalesceDifferentialTest, TraceAndBehaviourMatchAcrossSeeds) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  std::vector<std::uint8_t> orig_trace = op_trace(original, 0);

  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RewriteOptions on, off;
    on.placement = off.placement = GetParam().placement;
    on.seed = off.seed = seed;
    on.coalesce = true;
    off.coalesce = false;
    RewriteResult a = must_rewrite(original, on);
    RewriteResult b = must_rewrite(original, off);

    EXPECT_EQ(behaviour_of(a.image), behaviour_of(b.image)) << "seed " << seed;
    EXPECT_EQ(op_trace(a.image, 0), orig_trace) << "coalesced, seed " << seed;
    EXPECT_EQ(op_trace(b.image, 0), orig_trace) << "non-coalesced, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, CoalesceDifferentialTest,
                         ::testing::ValuesIn(kStrategyCases), strategy_name);

// ---- corpus differential: all 62 CBs, coalesce on vs off ----

// Sliced like CorpusFunctionalTest: slice k covers CBs k, k+8, k+16, ...
class CoalesceCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(CoalesceCorpusTest, Slice) {
  auto corpus = cfe_corpus();
  for (std::size_t i = static_cast<std::size_t>(GetParam()); i < corpus.size(); i += 8) {
    auto cb = generate_cb(corpus[i]);
    ASSERT_TRUE(cb.ok()) << cb.error().message;

    RewriteOptions on, off;
    on.coalesce = true;
    off.coalesce = false;
    RewriteResult a = must_rewrite(cb->image, on);
    RewriteResult b = must_rewrite(cb->image, off);

    EXPECT_LE(a.reassembly.overflow_bytes, b.reassembly.overflow_bytes) << corpus[i].name;

    for (const auto& poll : make_polls(*cb, 3, 0xC0A1)) {
      EXPECT_TRUE(run_poll(cb->image, a.image, poll).functional)
          << corpus[i].name << ": coalesced output diverges";
      EXPECT_TRUE(run_poll(cb->image, b.image, poll).functional)
          << corpus[i].name << ": non-coalesced output diverges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, CoalesceCorpusTest, ::testing::Range(0, 8));

// ---- corpus layout totals per strategy, coalesce on vs off ----

struct LayoutTotals {
  std::size_t functional = 0;
  std::size_t jumps_elided = 0;
  std::uint64_t overflow_bytes = 0;
  double mean_filesize_overhead = 0;
};

LayoutTotals layout_totals(PlacementKind placement, bool coalesce) {
  cgc::EvalOptions opts;
  opts.rewrite.placement = placement;
  opts.rewrite.coalesce = coalesce;
  opts.polls = 2;
  auto metrics = cgc::evaluate_corpus(cfe_corpus(), opts);
  EXPECT_TRUE(metrics.ok()) << (metrics.ok() ? "" : metrics.error().message);
  LayoutTotals t;
  if (!metrics.ok()) return t;
  t.mean_filesize_overhead = cgc::mean_overhead(*metrics, &cgc::CbMetrics::filesize_overhead);
  for (const auto& m : *metrics) {
    t.functional += m.functional ? 1 : 0;
    t.jumps_elided += m.rewrite_stats.jumps_elided;
    t.overflow_bytes += m.rewrite_stats.overflow_bytes;
  }
  return t;
}

// Coalescing fires wherever it is on, elides nothing where it is off, and
// never costs overflow area or file size over the whole corpus.
class CoalesceLayoutTest : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(CoalesceLayoutTest, CorpusTotals) {
  const LayoutTotals on = layout_totals(GetParam(), true);
  const LayoutTotals off = layout_totals(GetParam(), false);
  EXPECT_EQ(on.functional, cfe_corpus().size());
  EXPECT_EQ(off.functional, cfe_corpus().size());
  EXPECT_GT(on.jumps_elided, 0u);
  EXPECT_EQ(off.jumps_elided, 0u);
  EXPECT_LE(on.overflow_bytes, off.overflow_bytes);
  EXPECT_LE(on.mean_filesize_overhead, off.mean_filesize_overhead + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CoalesceLayoutTest,
    ::testing::Values(PlacementKind::kNearfit, PlacementKind::kDiversity, PlacementKind::kPinPage),
    [](const ::testing::TestParamInfo<PlacementKind>& info) {
      return std::string(rewriter::placement_kind_name(info.param));
    });

// ---- shared reference-width policy (pins, continuations, emit paths) ----

TEST(RefWidth, GlueTakesRel8WheneverItReaches) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  auto prog = analysis::build_ir(original, {});
  ASSERT_TRUE(prog.ok()) << prog.error().message;

  rewriter::ReassemblyOptions opts;
  opts.prefer_short_refs = false;  // the diversity default
  rewriter::Reassembler r(*prog, opts);

  std::uint64_t site = prog->original.text().vaddr + 64;
  // Glue sites (squeezed pins, continuation jumps) take rel8 whenever it
  // reaches, regardless of prefer_short_refs...
  EXPECT_EQ(ReassemblerTestPeer::ref_width(r, site, site + 10, true, /*glue=*/true),
            isa::BranchWidth::kRel8);
  // ...true reference sites respect the option...
  EXPECT_EQ(ReassemblerTestPeer::ref_width(r, site, site + 10, true, /*glue=*/false),
            isa::BranchWidth::kRel32);
  // ...and out-of-reach targets are always rel32.
  EXPECT_EQ(ReassemblerTestPeer::ref_width(r, site, site + 4096, true, /*glue=*/true),
            isa::BranchWidth::kRel32);
  // A site that cannot take the short form never gets it.
  EXPECT_EQ(ReassemblerTestPeer::ref_width(r, site, site + 10, false, /*glue=*/true),
            isa::BranchWidth::kRel32);
}

TEST(RefWidth, PreferShortRefsEnablesRel8AtReferenceSites) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  auto prog = analysis::build_ir(original, {});
  ASSERT_TRUE(prog.ok()) << prog.error().message;

  rewriter::ReassemblyOptions opts;
  opts.prefer_short_refs = true;
  rewriter::Reassembler r(*prog, opts);

  std::uint64_t site = prog->original.text().vaddr + 64;
  EXPECT_EQ(ReassemblerTestPeer::ref_width(r, site, site + 10, true, /*glue=*/false),
            isa::BranchWidth::kRel8);
}

// ---- satellite: unused overflow trampolines are reclaimed ----

TEST(TrampolineReclaim, FrontierPadIsReturnedToTheAllocator) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  auto prog = analysis::build_ir(original, {});
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  ASSERT_FALSE(prog->db.pins().empty());
  irdb::InsnId target = prog->db.pins().begin()->second;

  rewriter::ReassemblyOptions opts;
  rewriter::Reassembler r(*prog, opts);
  rewriter::MemorySpace& space = ReassemblerTestPeer::space(r);

  // A squeezed pin whose trampoline was parked at the overflow frontier.
  std::uint64_t pin_addr = prog->original.text().vaddr;
  ASSERT_TRUE(space.reserve(pin_addr, 2).ok());
  std::uint64_t tramp = space.allocate_overflow(5);
  ASSERT_EQ(space.overflow_used(), 5u);

  // The target places right next to the pin (nearfit anchors on it), the
  // reference takes the rel8 form, and the unused frontier trampoline is
  // handed back: the rewrite ends with an empty overflow area.
  ASSERT_TRUE(ReassemblerTestPeer::resolve_squeezed_pin(r, pin_addr, target, tramp, true).ok());
  EXPECT_EQ(space.overflow_used(), 0u);
}

TEST(TrampolineReclaim, BuriedPadStaysAsFiller) {
  zelf::Image original = must_assemble(kPinnedFuncsSrc);
  auto prog = analysis::build_ir(original, {});
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  ASSERT_FALSE(prog->db.pins().empty());
  irdb::InsnId target = prog->db.pins().begin()->second;

  rewriter::ReassemblyOptions opts;
  rewriter::Reassembler r(*prog, opts);
  rewriter::MemorySpace& space = ReassemblerTestPeer::space(r);

  std::uint64_t pin_addr = prog->original.text().vaddr;
  ASSERT_TRUE(space.reserve(pin_addr, 2).ok());
  std::uint64_t tramp = space.allocate_overflow(5);
  space.allocate_overflow(5);  // a later allocation buries the trampoline
  ASSERT_EQ(space.overflow_used(), 10u);

  ASSERT_TRUE(ReassemblerTestPeer::resolve_squeezed_pin(r, pin_addr, target, tramp, true).ok());
  // Not at the frontier: the pad cannot be reclaimed and stays as filler.
  EXPECT_EQ(space.overflow_used(), 10u);
}

}  // namespace
}  // namespace zipr
