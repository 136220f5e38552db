// Tests for the CFG analysis layer: basic-block discovery, dominator and
// post-dominator trees, backward register+flag liveness, and its agreement
// with the historical conservative flag walk the coverage transform used.
#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/ir_builder.h"
#include "analysis/liveness.h"
#include "testing_util.h"

namespace zipr::analysis {
namespace {

using ::zipr::testing::must_assemble;

struct CfgFixture {
  IrProgram prog;
  Cfg cfg;

  explicit CfgFixture(std::string_view src) {
    auto p = build_ir(must_assemble(src));
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error().message);
    if (!p.ok()) std::abort();
    prog = std::move(p).value();
    cfg = Cfg::build(prog);
  }

  /// Block containing a `movi rN, imm` with this immediate -- the tests
  /// plant distinctive immediates instead of hand-computing addresses.
  BlockId block_with_imm(std::int64_t imm) const {
    for (BlockId b = 0; b < cfg.size(); ++b)
      for (irdb::InsnId id : cfg.block(b).insns) {
        const auto& in = prog.db.insn(id).decoded;
        if ((in.op == isa::Op::kMovI || in.op == isa::Op::kMovI64) && in.imm == imm) return b;
      }
    return kNoBlock;
  }

  std::uint64_t text_end() const {
    const zelf::Segment& text = prog.original.text();
    return text.vaddr + text.bytes.size();
  }

  BlockId entry_block() const { return cfg.block_of(prog.db.pinned_at(prog.original.entry)); }
};

// ---- dominators ----

TEST(Dominators, Diamond) {
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r3, 100
      cmpi r0, 1
      jeq left
      movi r3, 101     ; right arm (fallthrough)
      jmp join
    left:
      movi r3, 102
    join:
      movi r3, 103
      movi r0, 1
      movi r1, 0
      syscall
  )");
  BlockId top = f.block_with_imm(100), right = f.block_with_imm(101);
  BlockId left = f.block_with_imm(102), join = f.block_with_imm(103);
  ASSERT_NE(top, kNoBlock);
  ASSERT_NE(right, kNoBlock);
  ASSERT_NE(left, kNoBlock);
  ASSERT_NE(join, kNoBlock);
  EXPECT_EQ(f.cfg.idom()[left], top);
  EXPECT_EQ(f.cfg.idom()[right], top);
  EXPECT_EQ(f.cfg.idom()[join], top);  // neither arm dominates the join
  EXPECT_TRUE(f.cfg.dominates(top, join));
  EXPECT_FALSE(f.cfg.dominates(left, join));
  EXPECT_FALSE(f.cfg.dominates(right, join));
  // Post-dominance mirrors: the join post-dominates everything above it.
  EXPECT_TRUE(f.cfg.postdominates(join, top));
  EXPECT_TRUE(f.cfg.postdominates(join, left));
  EXPECT_TRUE(f.cfg.postdominates(join, right));
  EXPECT_FALSE(f.cfg.postdominates(left, top));
}

TEST(Dominators, LoopWithSelfEdge) {
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r2, 100
    loop:
      movi r3, 101
      addi r2, 1
      cmpi r2, 3
      jlt loop
      movi r3, 102
      movi r0, 1
      movi r1, 0
      syscall
  )");
  BlockId pre = f.block_with_imm(100), loop = f.block_with_imm(101);
  BlockId after = f.block_with_imm(102);
  ASSERT_NE(pre, kNoBlock);
  ASSERT_NE(loop, kNoBlock);
  ASSERT_NE(after, kNoBlock);
  EXPECT_EQ(f.cfg.idom()[loop], pre);
  EXPECT_EQ(f.cfg.idom()[after], loop);
  // The back edge is a self-edge: loop is its own successor and
  // (reflexively) dominates the source of the back edge.
  bool self_edge = false;
  for (BlockId s : f.cfg.block(loop).succs) self_edge |= s == loop;
  EXPECT_TRUE(self_edge);
  EXPECT_TRUE(f.cfg.dominates(loop, loop));
  EXPECT_TRUE(f.cfg.postdominates(after, loop));
}

TEST(Dominators, CriticalEdge) {
  // main has two successors and join has two predecessors, so the
  // main->join edge is critical: neither endpoint can carry an
  // edge-specific probe without splitting.
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r3, 100
      cmpi r0, 0
      jeq join
      movi r3, 101
    join:
      movi r3, 102
      movi r0, 1
      movi r1, 0
      syscall
  )");
  BlockId top = f.block_with_imm(100), mid = f.block_with_imm(101);
  BlockId join = f.block_with_imm(102);
  ASSERT_NE(top, kNoBlock);
  ASSERT_NE(mid, kNoBlock);
  ASSERT_NE(join, kNoBlock);
  EXPECT_EQ(f.cfg.block(top).succs.size(), 2u);
  EXPECT_EQ(f.cfg.block(join).preds.size(), 2u);
  EXPECT_EQ(f.cfg.idom()[join], top);
  EXPECT_TRUE(f.cfg.postdominates(join, top));
  EXPECT_FALSE(f.cfg.postdominates(mid, top));
}

TEST(Dominators, ComputedJumpFallsBackToUnknown) {
  // Jump-table targets are pinned, and pinned blocks keep an UNKNOWN
  // predecessor whenever indirect flow exists -- the conservative
  // fallback that keeps the instrumentation pruner honest about
  // computed jumps.
  CfgFixture f(R"(
    .entry main
    .text
    main:
      jmpt r0, table
    case0:
      movi r3, 100
      movi r0, 1
      movi r1, 0
      syscall
    case1:
      movi r3, 101
      movi r0, 1
      movi r1, 0
      syscall
    .rodata
    table: .quad case0, case1
           .quad 0
  )");
  for (std::int64_t imm : {100, 101}) {
    BlockId c = f.block_with_imm(imm);
    ASSERT_NE(c, kNoBlock);
    EXPECT_TRUE(f.cfg.block(c).pinned);
    bool unknown_pred = false;
    for (BlockId p : f.cfg.block(c).preds) unknown_pred |= p == Cfg::kUnknown;
    EXPECT_TRUE(unknown_pred) << "case block lost its conservative UNKNOWN edge";
  }
}

TEST(Dominators, CallEdgesAreInterprocedural) {
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r3, 100
      call helper
      movi r3, 101     ; continuation
      movi r0, 1
      movi r1, 0
      syscall
    helper:
      movi r3, 102
      ret
  )");
  BlockId caller = f.block_with_imm(100), cont = f.block_with_imm(101);
  BlockId callee = f.block_with_imm(102);
  ASSERT_NE(caller, kNoBlock);
  ASSERT_NE(cont, kNoBlock);
  ASSERT_NE(callee, kNoBlock);
  // call -> callee entry, callee ret -> continuation: the continuation's
  // coverage is derivable from the callee, not from an opaque edge.
  bool call_edge = false;
  for (BlockId s : f.cfg.block(caller).succs) call_edge |= s == callee;
  EXPECT_TRUE(call_edge);
  bool ret_edge = false;
  for (BlockId p : f.cfg.block(cont).preds) ret_edge |= p == callee;
  EXPECT_TRUE(ret_edge);
  EXPECT_TRUE(f.cfg.dominates(caller, callee));
  EXPECT_TRUE(f.cfg.dominates(callee, cont));
}

// ---- liveness ----

TEST(LivenessTest, FlagsLiveBetweenCompareAndBranch) {
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r1, 5
      cmpi r1, 3
      jeq out
      movi r3, 100
    out:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  auto lv = Liveness::compute(f.prog, f.cfg);
  BlockId b = f.entry_block();
  ASSERT_NE(b, kNoBlock);
  const auto& insns = f.cfg.block(b).insns;
  ASSERT_EQ(insns.size(), 3u);  // movi, cmpi, jeq
  EXPECT_FALSE(flags_live(lv.live_before(b, 0)));  // cmpi redefines first
  EXPECT_FALSE(flags_live(lv.live_before(b, 1)));
  EXPECT_TRUE(flags_live(lv.live_before(b, 2)));  // jeq reads them
  // r1 is dead before its own definition, live before the cmpi that
  // reads it.
  EXPECT_FALSE(reg_live(lv.live_before(b, 0), 1));
  EXPECT_TRUE(reg_live(lv.live_before(b, 1), 1));
}

TEST(LivenessTest, PreciseNeverClaimsDeadWhereLegacySaysDead) {
  // The legacy forward walk is the conservative baseline: wherever it
  // reports flags DEAD, the backward dataflow must agree (the reverse
  // may differ -- that differential is the whole point of the pass).
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r2, 0
    loop:
      addi r2, 1
      cmpi r2, 5
      jlt loop
      cmpi r2, 9
      jeq odd
      movi r3, 100
      jmp done
    odd:
      movi r3, 101
    done:
      movi r0, 1
      mov r1, r3
      syscall
  )");
  auto lv = Liveness::compute(f.prog, f.cfg);
  for (BlockId b = 3; b < f.cfg.size(); ++b) {
    const auto& blk = f.cfg.block(b);
    if (blk.insns.empty() || blk.opaque) continue;
    if (!flags_live_at(f.prog.db, blk.leader, f.text_end())) {
      EXPECT_FALSE(flags_live(lv.live_in(b)))
          << "precise analysis claims flags live where the conservative "
             "walk already proved them dead (block " << b << ")";
    }
  }
}

TEST(LivenessTest, RescuesFlagsAcrossLongFlagFreeCall) {
  // The legacy walk explodes past its 256-row budget inside the long
  // callee and gives up as "live"; the backward dataflow sees the cmpi
  // after the return redefine the flags before the jeq reads them. This
  // is exactly the conservatism the precise pass exists to shed.
  std::string src = R"(
    .entry main
    .text
    main:
      call longfunc
      cmpi r2, 1
      jeq out
      movi r3, 100
    out:
      movi r0, 1
      movi r1, 0
      syscall
    longfunc:
)";
  for (int i = 0; i < 300; ++i) src += "      nop\n";
  src += "      ret\n";
  CfgFixture f(src);
  auto lv = Liveness::compute(f.prog, f.cfg);
  irdb::InsnId entry_row = f.prog.db.pinned_at(f.prog.original.entry);
  ASSERT_NE(entry_row, irdb::kNullInsn);
  BlockId entry_block = f.cfg.block_of(entry_row);
  ASSERT_NE(entry_block, kNoBlock);
  EXPECT_TRUE(flags_live_at(f.prog.db, entry_row, f.text_end()));
  EXPECT_FALSE(flags_live(lv.live_in(entry_block)));
}

TEST(LivenessTest, UnknownAndOpaqueDemandEverything) {
  // A callr makes the continuation reachable only through UNKNOWN: the
  // pass must treat everything as live on that path rather than eliding
  // saves around state it cannot see.
  CfgFixture f(R"(
    .entry main
    .text
    main:
      movi r4, helper
      callr r4
      movi r3, 100
      movi r0, 1
      movi r1, 0
      syscall
    helper:
      movi r3, 101
      ret
  )");
  auto lv = Liveness::compute(f.prog, f.cfg);
  EXPECT_EQ(lv.live_in(Cfg::kUnknown), kAllLive);
  BlockId cont = f.block_with_imm(100);
  ASSERT_NE(cont, kNoBlock);
  bool unknown_pred = false;
  for (BlockId p : f.cfg.block(cont).preds) unknown_pred |= p == Cfg::kUnknown;
  EXPECT_TRUE(unknown_pred);
}

}  // namespace
}  // namespace zipr::analysis
