// Tests for the Zipr core: memory space, dollop management, placement
// strategies, sleds/chaining, and full-pipeline Null-rewrite equivalence.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "analysis/ir_builder.h"
#include "cgc/generator.h"
#include "isa/opcodes.h"
#include "support/rng.h"
#include "testing_util.h"
#include "transform/api.h"
#include "zelf/io.h"
#include "zipr/dollop.h"
#include "zipr/memory_space.h"
#include "zipr/placement.h"
#include "zipr/reassembler.h"
#include "zipr/zipr.h"

namespace zipr {
namespace rewriter {

/// Friend of Reassembler: exposes checked-invariant internals to tests.
class ReassemblerTestPeer {
 public:
  static Status write_bytes(Reassembler& r, std::uint64_t addr, ByteView bytes) {
    return r.write_bytes(addr, bytes);
  }
};

}  // namespace rewriter

namespace {

using rewriter::Dollop;
using rewriter::DollopManager;
using rewriter::MemorySpace;
using rewriter::PlacementKind;
using ::zipr::testing::behaviour_of;
using ::zipr::testing::cold_rewrite_bytes;
using ::zipr::testing::expect_equivalent;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;
using ::zipr::testing::on_fresh_thread;
using zelf::layout::kTextBase;

// ---- MemorySpace ----

TEST(MemorySpace, ReserveAllocateRelease) {
  MemorySpace s({0x1000, 0x2000});
  EXPECT_EQ(s.free_bytes(), 0x1000u);
  ASSERT_TRUE(s.reserve(0x1000, 0x10).ok());
  EXPECT_FALSE(s.is_free(0x1000, 1));
  EXPECT_FALSE(s.reserve(0x1008, 0x10).ok());  // overlaps

  auto a = s.allocate(0x20);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0x1010u);
  s.release(*a, 0x20);
  EXPECT_TRUE(s.is_free(0x1010, 0x20));
}

TEST(MemorySpace, AllocateFailsWhenFull) {
  MemorySpace s({0x1000, 0x1010});
  ASSERT_TRUE(s.reserve(0x1000, 0x10).ok());
  EXPECT_FALSE(s.allocate(1).has_value());
  EXPECT_EQ(s.largest_free(), 0u);
}

TEST(MemorySpace, OverflowBumpAndShrink) {
  MemorySpace s({0x1000, 0x2000});
  EXPECT_EQ(s.overflow_begin(), 0x2000u);
  auto b = s.allocate_overflow(100);
  EXPECT_EQ(b, 0x2000u);
  EXPECT_EQ(s.overflow_used(), 100u);
  ASSERT_TRUE(s.shrink_overflow(0x2040).ok());
  EXPECT_EQ(s.overflow_used(), 0x40u);
  EXPECT_EQ(s.allocate_overflow(8), 0x2040u);
}

TEST(MemorySpace, ShrinkOverflowBelowBaseIsRejected) {
  // Rolling the bump pointer below the overflow base would silently donate
  // main-span bytes to the bump allocator; formerly an assert (a no-op
  // under NDEBUG), now a checked error that leaves the frontier untouched.
  MemorySpace s({0x1000, 0x2000});
  s.allocate_overflow(0x80);
  Status bad = s.shrink_overflow(0x1fff);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, Error::Kind::kInvalidArgument);
  EXPECT_EQ(s.overflow_used(), 0x80u);
  // At/past the frontier is an explicit no-op, not an error.
  ASSERT_TRUE(s.shrink_overflow(0x2100).ok());
  EXPECT_EQ(s.overflow_used(), 0x80u);
}

TEST(MemorySpace, AllocateInWindowPrefersNearest) {
  MemorySpace s({0x1000, 0x2000});
  ASSERT_TRUE(s.reserve(0x1000, 0x800).ok());  // free space is [0x1800, 0x2000)
  auto b = s.allocate_in_window(5, 0x1700, 0x1900, 0x1750);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 0x1800u);  // nearest in-window free base
  auto c = s.allocate_in_window(5, 0x1000, 0x10ff, 0x1000);
  EXPECT_FALSE(c.has_value());  // window fully reserved
}

TEST(MemorySpace, AllocateInWindowRespectsSize) {
  MemorySpace s({0x1000, 0x2000});
  ASSERT_TRUE(s.reserve(0x1004, 0xff0).ok());  // free: [0x1000,0x1004) + tail
  EXPECT_FALSE(s.allocate_in_window(5, 0x1000, 0x1003, 0x1000).has_value());
  EXPECT_TRUE(s.allocate_in_window(4, 0x1000, 0x1003, 0x1000).has_value());
}

TEST(MemorySpace, AllocateInWindowHiIsInclusive) {
  // reserve_pin_sites/chain_pin pass [addr-126, addr+129] expecting both
  // bounds to be valid bases; a half-open hi would silently lose the last
  // reachable trampoline slot.
  MemorySpace s({0x1000, 0x2000});
  // Free space is exactly one 5-byte slot at 0x1800.
  ASSERT_TRUE(s.reserve(0x1000, 0x800).ok());
  ASSERT_TRUE(s.reserve(0x1805, 0x7fb).ok());
  EXPECT_FALSE(s.allocate_in_window(5, 0x1700, 0x17ff, 0x1700).has_value());
  auto at_hi = s.allocate_in_window(5, 0x1700, 0x1800, 0x1700);
  ASSERT_TRUE(at_hi.has_value());
  EXPECT_EQ(*at_hi, 0x1800u);
}

TEST(MemorySpace, Rel8WindowLowEdgeIsReachable) {
  // A trampoline allocated at exactly addr-126 (the window's low bound)
  // must be reachable by the 2-byte jump at addr: disp = -128 = kRel8Min.
  const std::uint64_t addr = 0x1800;
  MemorySpace s({0x1000, 0x2000});
  ASSERT_TRUE(s.reserve(0x1000, (addr - 126) - 0x1000).ok());
  ASSERT_TRUE(s.reserve(addr - 126 + 5, 0x2000 - (addr - 126 + 5)).ok());
  auto slot = s.allocate_in_window(5, addr - 126, addr + 129, addr);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, addr - 126);
  std::int64_t disp = static_cast<std::int64_t>(*slot) - static_cast<std::int64_t>(addr + 2);
  EXPECT_EQ(disp, isa::kRel8Min);
}

TEST(MemorySpace, Rel8WindowHighEdgeIsReachable) {
  // Same at the high bound addr+129: disp = +127 = kRel8Max. One byte
  // further and the window must reject it.
  const std::uint64_t addr = 0x1800;
  MemorySpace s({0x1000, 0x2000});
  ASSERT_TRUE(s.reserve(0x1000, (addr + 129) - 0x1000).ok());
  ASSERT_TRUE(s.reserve(addr + 129 + 5, 0x2000 - (addr + 129 + 5)).ok());
  auto slot = s.allocate_in_window(5, addr - 126, addr + 129, addr);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, addr + 129);
  std::int64_t disp = static_cast<std::int64_t>(*slot) - static_cast<std::int64_t>(addr + 2);
  EXPECT_EQ(disp, isa::kRel8Max);

  // Shift the free slot one byte past the window: no allocation.
  MemorySpace s2({0x1000, 0x2000});
  ASSERT_TRUE(s2.reserve(0x1000, (addr + 130) - 0x1000).ok());
  ASSERT_TRUE(s2.reserve(addr + 130 + 5, 0x2000 - (addr + 130 + 5)).ok());
  EXPECT_FALSE(s2.allocate_in_window(5, addr - 126, addr + 129, addr).has_value());
}

// ---- DollopManager ----

struct DollopFixture {
  irdb::Database db;
  std::vector<irdb::InsnId> chain;

  explicit DollopFixture(int n) {
    for (int i = 0; i < n; ++i) chain.push_back(db.add_new(isa::make_nop()));
    for (int i = 0; i + 1 < n; ++i) db.insn(chain[i]).fallthrough = chain[i + 1];
  }
};

TEST(DollopManager, ConstructsFallthroughChain) {
  DollopFixture f(4);
  DollopManager dm(f.db);
  auto never_placed = [](irdb::InsnId) { return false; };
  Dollop* d = dm.dollop_starting_at(f.chain[0], never_placed);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(dm.insns(*d).size(), 4u);
  EXPECT_EQ(d->continuation, irdb::kNullInsn);
  EXPECT_EQ(d->size_estimate, 4u);  // four 1-byte nops
}

TEST(DollopManager, MidChainRequestSplits) {
  DollopFixture f(4);
  DollopManager dm(f.db);
  auto never_placed = [](irdb::InsnId) { return false; };
  Dollop* whole = dm.dollop_starting_at(f.chain[0], never_placed);
  ASSERT_EQ(dm.insns(*whole).size(), 4u);
  // Request a dollop starting at instruction 2: the original splits.
  Dollop* tail = dm.dollop_starting_at(f.chain[2], never_placed);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(dm.insns(*tail).size(), 2u);
  EXPECT_EQ(dm.insns(*tail).front(), f.chain[2]);
  EXPECT_EQ(dm.insns(*whole).size(), 2u);
  EXPECT_EQ(whole->continuation, f.chain[2]);
  // Split adds a trailing jump to the head's size.
  EXPECT_EQ(whole->size_estimate, 2u + 5u);
  EXPECT_EQ(dm.total_splits(), 1u);
}

TEST(DollopManager, ConstructionStopsAtPlacedCode) {
  DollopFixture f(4);
  DollopManager dm(f.db);
  auto placed_at_2 = [&](irdb::InsnId id) { return id == f.chain[2]; };
  Dollop* d = dm.dollop_starting_at(f.chain[0], placed_at_2);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(dm.insns(*d).size(), 2u);
  EXPECT_EQ(d->continuation, f.chain[2]);
}

TEST(DollopManager, SplitToFitRespectsBudget) {
  DollopFixture f(10);  // 10 bytes of nops
  DollopManager dm(f.db);
  auto never_placed = [](irdb::InsnId) { return false; };
  Dollop* d = dm.dollop_starting_at(f.chain[0], never_placed);
  // Budget 8: head must hold at most 3 nops + 5-byte jump.
  Dollop* tail = dm.split_to_fit(d, 8);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(dm.insns(*d).size(), 3u);
  EXPECT_LE(d->size_estimate, 8u);
  EXPECT_EQ(dm.insns(*tail).size(), 7u);
}

TEST(DollopManager, RetireOfUnownedDollopIsRejected) {
  // retire() used to assert on an unknown dollop and silently return on a
  // stale slot; under NDEBUG a stale retire could erase another dollop's
  // where_ entries. Now both are one checked error path that leaves the
  // manager untouched.
  DollopFixture f(4);
  DollopManager dm(f.db);
  auto never_placed = [](irdb::InsnId) { return false; };
  Dollop* d = dm.dollop_starting_at(f.chain[0], never_placed);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(dm.unplaced_count(), 1u);

  // Slot out of range (the shape a double retire leaves behind once the
  // list has shrunk).
  Dollop stray;
  stray.slot = 99;
  Status bad = dm.retire(&stray);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, Error::Kind::kInternal);
  EXPECT_EQ(dm.unplaced_count(), 1u);

  // Slot in range but owned by a different dollop: pointer identity must
  // catch it and not disturb the real occupant.
  Dollop alias;
  alias.slot = d->slot;
  alias.first = d->first;  // even a matching window must not fool it
  alias.last = d->last;
  EXPECT_FALSE(dm.retire(&alias).ok());
  EXPECT_EQ(dm.unplaced_count(), 1u);

  // The legitimate owner still retires cleanly afterwards.
  EXPECT_TRUE(dm.retire(d).ok());
  EXPECT_EQ(dm.unplaced_count(), 0u);
}

TEST(DollopManager, SplitToFitFailsWhenFirstInsnTooBig) {
  irdb::Database db;
  isa::Insn big;
  big.op = isa::Op::kMovI64;
  big.ra = 0;
  irdb::InsnId a = db.add_new(big);  // 10 bytes
  irdb::InsnId b = db.add_new(isa::make_ret());
  db.insn(a).fallthrough = b;
  DollopManager dm(db);
  auto never_placed = [](irdb::InsnId) { return false; };
  Dollop* d = dm.dollop_starting_at(a, never_placed);
  EXPECT_EQ(dm.split_to_fit(d, 12), nullptr);  // 10 + 5 > 12
}

// Copy-based reference for DollopManager: each dollop owns its row vector,
// a split copies the tail and re-indexes it, sizes are re-summed row by
// row, and retire clears the index.
class DollopModel {
 public:
  struct Part {
    std::vector<irdb::InsnId> insns;
    irdb::InsnId continuation = irdb::kNullInsn;
  };

  explicit DollopModel(const irdb::Database& db) : db_(db) {}

  /// Part index of the dollop starting at `insn`, or -1 when it is placed.
  int starting_at(irdb::InsnId insn, const std::set<irdb::InsnId>& placed) {
    if (placed.count(insn)) return -1;
    if (auto it = owner_.find(insn); it != owner_.end()) {
      auto [p, index] = it->second;
      return index == 0 ? p : split(p, index);
    }
    Part part;
    irdb::InsnId cur = insn;
    while (cur != irdb::kNullInsn) {
      if (placed.count(cur) || owner_.count(cur)) {
        part.continuation = cur;
        break;
      }
      part.insns.push_back(cur);
      cur = db_.insn(cur).fallthrough;
    }
    parts.push_back(std::move(part));
    index(static_cast<int>(parts.size()) - 1);
    return static_cast<int>(parts.size()) - 1;
  }

  int split_to_fit(int p, std::uint64_t max_bytes) {
    if (parts[p].insns.size() < 2) return -1;
    std::uint64_t used = 0;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < parts[p].insns.size(); ++i) {
      std::uint64_t len = rewriter::estimated_size(db_.insn(parts[p].insns[i]));
      if (used + len + isa::kJmp32Len > max_bytes) break;
      used += len;
      pos = i + 1;
    }
    if (pos == 0 || pos >= parts[p].insns.size()) return -1;
    return split(p, pos);
  }

  void retire(int p) {
    for (irdb::InsnId id : parts[p].insns) owner_.erase(id);
  }

  std::uint64_t size(int p) const {
    std::uint64_t size = 0;
    for (irdb::InsnId id : parts[p].insns) size += rewriter::estimated_size(db_.insn(id));
    return size + (parts[p].continuation != irdb::kNullInsn ? isa::kJmp32Len : 0);
  }

  std::vector<Part> parts;
  std::size_t splits = 0;

 private:
  int split(int p, std::size_t pos) {
    Part tail;
    tail.insns.assign(parts[p].insns.begin() + static_cast<std::ptrdiff_t>(pos),
                      parts[p].insns.end());
    tail.continuation = parts[p].continuation;
    parts[p].insns.resize(pos);
    parts[p].continuation = tail.insns.front();
    parts.push_back(std::move(tail));
    index(static_cast<int>(parts.size()) - 1);
    ++splits;
    return static_cast<int>(parts.size()) - 1;
  }

  void index(int p) {
    for (std::size_t i = 0; i < parts[p].insns.size(); ++i) owner_[parts[p].insns[i]] = {p, i};
  }

  const irdb::Database& db_;
  std::map<irdb::InsnId, std::pair<int, std::size_t>> owner_;
};

TEST(DollopManager, MatchesCopyingReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Rows of 1-10 estimated bytes in fallthrough chains that end, or fall
    // into a later row of another chain (shared code); never a cycle.
    irdb::Database db;
    auto add_row = [&] {
      isa::Insn insn = isa::make_nop();
      switch (rng.below(4)) {
        case 0: insn.op = isa::Op::kMovI64; break;
        case 1: insn = isa::make_jcc(isa::Cond::kEq, 0, isa::BranchWidth::kRel8); break;
        case 2: insn = isa::make_push_imm(7); break;
        default: break;
      }
      return db.add_new(insn);
    };
    std::size_t n = rng.range(20, 200);
    for (std::size_t i = 0; i < n; ++i) add_row();
    for (irdb::InsnId id = 1; id < n; ++id) {
      if (rng.chance(1, 12)) continue;
      db.insn(id).fallthrough =
          rng.chance(1, 10) ? static_cast<irdb::InsnId>(rng.range(id + 1, n)) : id + 1;
    }

    DollopManager dm(db);
    DollopModel model(db);
    std::set<irdb::InsnId> placed;
    auto is_placed = [&](irdb::InsnId id) { return placed.count(id) != 0; };
    std::vector<std::pair<Dollop*, int>> live;  // manager dollop <-> model part
    auto track = [&](Dollop* d, int p) {
      ASSERT_EQ(d == nullptr, p < 0);
      if (d == nullptr) return;
      for (const auto& [ld, lp] : live)
        if (ld == d) {
          ASSERT_EQ(lp, p);
          return;
        }
      live.emplace_back(d, p);
    };

    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::uint64_t op = rng.below(11);
      if (op < 4 || live.empty()) {
        // construct, mid-chain request, or a placed row
        auto id = static_cast<irdb::InsnId>(rng.range(1, n));
        track(dm.dollop_starting_at(id, is_placed), model.starting_at(id, placed));
      } else if (op < 7) {
        auto [d, p] = live[rng.below(live.size())];
        std::uint64_t budget = rng.below(d->size_estimate + 8);
        track(dm.split_to_fit(d, budget), model.split_to_fit(p, budget));
      } else if (op < 9) {
        // retire after "emitting": every row of the dollop becomes placed
        std::size_t k = rng.below(live.size());
        auto [d, p] = live[k];
        for (irdb::InsnId id : dm.insns(*d)) placed.insert(id);
        ASSERT_TRUE(dm.retire(d).ok());
        model.retire(p);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (op < 10) {
        // a row placed elsewhere (a pin, say): construction must stop there
        auto id = static_cast<irdb::InsnId>(rng.range(1, n));
        bool owned = false;
        for (const auto& [d, p] : live) owned |= std::ranges::count(dm.insns(*d), id) != 0;
        if (!owned) placed.insert(id);
      } else {
        // a chain added after the manager exists, as sled dispatch code is:
        // its rows lie past the manager's index, and it may end by falling
        // into an older row
        irdb::InsnId prev = add_row();
        for (std::uint64_t k = rng.below(6); k > 0; --k) {
          irdb::InsnId id = add_row();
          db.insn(prev).fallthrough = id;
          prev = id;
        }
        if (rng.chance(1, 2))
          db.insn(prev).fallthrough = static_cast<irdb::InsnId>(rng.range(1, n));
        n = db.insn_count();
      }
      if (::testing::Test::HasFatalFailure()) return;

      ASSERT_EQ(dm.total_splits(), model.splits);
      ASSERT_EQ(dm.unplaced_count(), live.size());
      for (const auto& [d, p] : live) {
        const auto rows = dm.insns(*d);
        ASSERT_EQ(std::vector<irdb::InsnId>(rows.begin(), rows.end()), model.parts[p].insns);
        ASSERT_EQ(d->continuation, model.parts[p].continuation);
        ASSERT_EQ(d->size_estimate, model.size(p));
      }
    }
  }
}

// ---- end-to-end: Null rewrite preserves behaviour ----

// Programs exercising every rewriting hazard; each runs against a set of
// inputs under original and rewritten binaries.
struct E2eCase {
  const char* name;
  const char* src;
  std::vector<Bytes> inputs;
};

std::vector<E2eCase> e2e_cases() {
  std::vector<E2eCase> cases;

  cases.push_back({"Minimal", R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 41
      syscall
  )",
                   {{}}});

  cases.push_back({"LoopAndBranches", R"(
    .entry main
    .text
    main:
      movi r2, 0
      movi r3, 0
    loop:
      addi r3, 3
      addi r2, 1
      cmpi r2, 10
      jlt loop
      movi r0, 1
      mov r1, r3
      syscall
  )",
                   {{}}});

  cases.push_back({"CallsAndReturns", R"(
    .entry main
    .text
    main:
      movi r1, 5
      call square
      call square        ; 625
      movi r0, 1
      syscall
    square:
      mov r2, r1
      mul r1, r2
      ret
  )",
                   {{}}});

  cases.push_back({"IndirectCallViaImmediate", R"(
    .entry main
    .text
    main:
      movi r4, adder
      movi r1, 3
      callr r4
      callr r4
      movi r0, 1
      syscall
    adder:
      addi r1, 10
      ret
  )",
                   {{}}});

  cases.push_back({"FunctionPointerTable", R"(
    .entry main
    .text
    main:
      movi r0, 3          ; receive selector
      movi r1, 0
      movi r2, buf
      movi r3, 1
      syscall
      load8 r4, [r2]
      shli r4, 3
      movi r5, ftab
      add r5, r4
      load r5, [r5]
      movi r1, 7
      callr r5
      movi r0, 1
      syscall
    double:
      add r1, r1
      ret
    triple:
      mov r2, r1
      add r1, r2
      add r1, r2
      ret
    .rodata
    ftab: .quad double, triple
    .bss
    buf: .space 8
  )",
                   {Bytes{0}, Bytes{1}}});

  cases.push_back({"JumpTableSwitch", R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 1
      syscall
      load8 r0, [r2]
      jmpt r0, table
    c0: movi r1, 100
        jmp done
    c1: movi r1, 200
        jmp done
    c2: movi r1, 300
        jmp done
    c3: movi r1, 400
    done:
      movi r0, 1
      syscall
    .rodata
    table: .quad c0, c1, c2, c3
           .quad 0
    .bss
    buf: .space 8
  )",
                   {Bytes{0}, Bytes{1}, Bytes{2}, Bytes{3}}});

  cases.push_back({"DataInText", R"(
    .entry main
    .text
    main:
      jmp start
    key:
      .byte 0x13, 0x37, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00
    start:
      loadpc r2, key       ; read embedded data through a pc-relative load
      movi r0, 1
      mov r1, r2
      syscall
  )",
                   {{}}});

  cases.push_back({"PcRelativeLea", R"(
    .entry main
    .text
    main:
      lea r2, msg
      movi r0, 2
      movi r1, 1
      mov r3, r2       ; keep address
      mov r2, r3
      movi r3, 5
      syscall
      movi r0, 1
      movi r1, 0
      syscall
    .rodata
    msg: .ascii "lea!\n"
  )",
                   {{}}});

  cases.push_back({"EchoService", R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 64
      syscall
      test r0, r0
      jeq quit
      mov r3, r0
      movi r0, 2
      movi r1, 1
      movi r2, buf
      syscall
      jmp main
    quit:
      movi r0, 1
      movi r1, 0
      syscall
    .bss
    buf: .space 64
  )",
                   {Bytes{'h', 'i'}, Bytes{}, Bytes(64, 'x')}});

  cases.push_back({"RecursionFibonacci", R"(
    .entry main
    .text
    main:
      movi r1, 12
      call fib
      movi r0, 1
      syscall
    fib:
      cmpi r1, 2
      jlt base
      push r1
      subi r1, 1
      call fib
      pop r2          ; n
      push r1         ; fib(n-1)
      mov r1, r2
      subi r1, 2
      call fib
      pop r2
      add r1, r2
      ret
    base:
      ret
  )",
                   {{}}});

  cases.push_back({"RandomSyscall", R"(
    .entry main
    .text
    main:
      movi r0, 7
      movi r1, buf
      movi r2, 16
      syscall
      movi r0, 2
      movi r1, 1
      movi r2, buf
      movi r3, 16
      syscall
      movi r0, 1
      movi r1, 0
      syscall
    .bss
    buf: .space 16
  )",
                   {{}}});

  cases.push_back({"SharedCodeTailJump", R"(
    .entry main
    .text
    main:
      movi r1, 1
      call f1
      call f2
      movi r0, 1
      syscall
    f1:
      addi r1, 10
      jmp shared
    f2:
      addi r1, 100
    shared:
      addi r1, 1000
      ret
  )",
                   {{}}});

  return cases;
}

class NullRewriteTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, PlacementKind>> {};

TEST_P(NullRewriteTest, PreservesBehaviour) {
  auto cases = e2e_cases();
  auto [idx, placement] = GetParam();
  ASSERT_LT(idx, cases.size());
  const E2eCase& c = cases[idx];
  SCOPED_TRACE(c.name);

  zelf::Image original = must_assemble(c.src);
  RewriteOptions opts;
  opts.placement = placement;
  opts.seed = 42;
  RewriteResult rewritten = must_rewrite(original, opts);

  for (const auto& input : c.inputs) {
    expect_equivalent(original, rewritten.image, input, /*seed=*/7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCasesAllStrategies, NullRewriteTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 12),
                       ::testing::Values(PlacementKind::kNearfit, PlacementKind::kDiversity,
                                         PlacementKind::kPinPage)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, PlacementKind>>& info) {
      auto cases = e2e_cases();
      return std::string(cases[std::get<0>(info.param)].name) + "_" +
             rewriter::placement_kind_name(std::get<1>(info.param));
    });

TEST(NullRewrite, CaseCountMatchesRange) { EXPECT_EQ(e2e_cases().size(), 12u); }

// ---- checked invariants in the reassembler ----

TEST(Reassembler, WriteBelowOutputSpanIsRejected) {
  // write_bytes used to assert(addr >= main.begin); with NDEBUG the offset
  // subtraction underflowed into a wild out-of-bounds write. It is now a
  // checked error on every build.
  zelf::Image img =
      must_assemble(".entry main\n.text\nmain: movi r0, 1\nmovi r1, 0\nsyscall\n");
  auto prog = analysis::build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  rewriter::Reassembler reasm(*prog, rewriter::ReassemblyOptions{});

  const std::uint64_t base = prog->original.text().vaddr;
  Bytes nop{0x90};
  Status bad = rewriter::ReassemblerTestPeer::write_bytes(reasm, base - 1, nop);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, Error::Kind::kInternal);

  // The span base itself, and the overflow area past main.end, stay valid.
  EXPECT_TRUE(rewriter::ReassemblerTestPeer::write_bytes(reasm, base, nop).ok());
  const std::uint64_t end = base + prog->original.text().bytes.size();
  EXPECT_TRUE(rewriter::ReassemblerTestPeer::write_bytes(reasm, end + 16, nop).ok());

  // Empty writes are a no-op regardless of address.
  EXPECT_TRUE(rewriter::ReassemblerTestPeer::write_bytes(reasm, 0, Bytes{}).ok());
}

// ---- structural properties of the rewritten binary ----

TEST(Rewrite, NoCopyOfOriginalCodeRemains) {
  // The defining property vs. prior static rewriters: the output must NOT
  // contain the original text as a contiguous blob.
  std::string src = ".entry main\n.text\nmain:\n";
  for (int i = 0; i < 50; ++i) src += " addi r2, " + std::to_string(i) + "\n";
  src += " movi r0, 1\n mov r1, r2\n syscall\n";
  zelf::Image original = must_assemble(src);
  RewriteResult r = must_rewrite(original);

  const Bytes& orig_text = original.text().bytes;
  const Bytes& new_text = r.image.text().bytes;
  auto it = std::search(new_text.begin(), new_text.end(), orig_text.begin(), orig_text.end());
  EXPECT_EQ(it, new_text.end()) << "rewritten text contains a full copy of the original";
  expect_equivalent(original, r.image);
}

TEST(Rewrite, FileSizeOverheadIsOverflowOnly) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 3
      syscall
  )");
  RewriteResult r = must_rewrite(original);
  std::size_t orig_size = zelf::write_image(original).size();
  // The original image carries ground-truth symbols; the rewritten one has
  // none, so compare against a stripped original.
  zelf::Image stripped = original;
  stripped.symbols.clear();
  orig_size = zelf::write_image(stripped).size();
  std::size_t new_size = zelf::write_image(r.image).size();
  EXPECT_EQ(new_size, orig_size + r.reassembly.overflow_bytes);
}

TEST(Rewrite, EntryAddressUnchanged) {
  zelf::Image original = must_assemble(".entry main\n.text\nmain: movi r0, 1\nmovi r1, 0\nsyscall\n");
  RewriteResult r = must_rewrite(original);
  EXPECT_EQ(r.image.entry, original.entry);
}

TEST(Rewrite, DataSegmentsCopiedVerbatim) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
    .rodata
    r: .quad 0x1122334455667788
    .data
    d: .byte 1, 2, 3
    .bss
    b: .space 128
  )");
  RewriteResult r = must_rewrite(original);
  EXPECT_EQ(r.image.segment_of(zelf::SegKind::kRodata)->bytes,
            original.segment_of(zelf::SegKind::kRodata)->bytes);
  EXPECT_EQ(r.image.segment_of(zelf::SegKind::kData)->bytes,
            original.segment_of(zelf::SegKind::kData)->bytes);
  EXPECT_EQ(r.image.segment_of(zelf::SegKind::kBss)->memsize, 128u);
}

TEST(Rewrite, DiversitySeedsChangeLayoutNotBehaviour) {
  // Enough separate functions that the random placement has real choices.
  std::string src = R"(
    .entry main
    .text
    main:
      movi r2, 0
    loop:
      addi r2, 7
      cmpi r2, 70
      jlt loop
)";
  for (int i = 0; i < 8; ++i) src += "      call f" + std::to_string(i) + "\n";
  src += R"(
      movi r0, 1
      mov r1, r2
      syscall
)";
  for (int i = 0; i < 8; ++i)
    src += "    f" + std::to_string(i) + ":\n      addi r2, " + std::to_string(i + 1) +
           "\n      xori r2, " + std::to_string(17 * (i + 3)) + "\n      ret\n";
  zelf::Image original = must_assemble(src);
  RewriteOptions a, b;
  a.placement = b.placement = PlacementKind::kDiversity;
  a.seed = 1;
  b.seed = 2;
  auto ra = must_rewrite(original, a);
  auto rb = must_rewrite(original, b);
  EXPECT_NE(ra.image.text().bytes, rb.image.text().bytes) << "layouts identical across seeds";
  expect_equivalent(original, ra.image);
  expect_equivalent(original, rb.image);
  expect_equivalent(ra.image, rb.image);
}

TEST(Rewrite, SameSeedIsDeterministic) {
  zelf::Image original = must_assemble(
      ".entry main\n.text\nmain: call f\nmovi r0, 1\nsyscall\nf: movi r1, 2\nret\n");
  RewriteOptions opts;
  opts.placement = PlacementKind::kDiversity;
  opts.seed = 99;
  auto a = must_rewrite(original, opts);
  auto b = must_rewrite(original, opts);
  EXPECT_EQ(a.image.text().bytes, b.image.text().bytes);
}

TEST(Rewrite, UnreachableCodeIsNotLifted) {
  // Code behind an unconditional jump that nothing references is never
  // reached by conclusive traversal; it stays as verbatim bytes at its
  // original address instead of being lifted into relocatable dollops.
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      jmp finish
    dead:                 ; never referenced: must not be lifted
      movi r2, 1
      movi r3, 2
      add r2, r3
      jmp dead
    finish:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  RewriteResult r = must_rewrite(original);
  // Lifted instructions: jmp + the three in finish (+ a possible synthetic
  // jump for the syscall's fallthrough); the four dead ones stay verbatim.
  EXPECT_LE(r.reassembly.insns_placed, 5u);
  EXPECT_GE(r.analysis.verbatim_ranges, 1u);
  expect_equivalent(original, r.image);
}

TEST(Rewrite, VerbatimBytesStayAtOriginalAddresses) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      jmp start
    blob:
      .byte 0xde, 0xad, 0xbe, 0xef
    start:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  RewriteResult r = must_rewrite(original);
  const Bytes& text = r.image.text().bytes;
  EXPECT_EQ(text[5], 0xde);
  EXPECT_EQ(text[6], 0xad);
  EXPECT_EQ(text[7], 0xbe);
  EXPECT_EQ(text[8], 0xef);
}

TEST(Rewrite, PinnedAddressHoldsReferenceToRelocatedCode) {
  zelf::Image original = must_assemble(R"(
    .entry main
    .text
    main:
      movi r1, target
      jmpr r1
    target:
      movi r0, 1
      movi r1, 55
      syscall
  )");
  RewriteResult r = must_rewrite(original);
  // `target` (0x400008) is pinned; the byte there must now be a jump
  // opcode (2- or 5-byte form), not the original movi opcode.
  std::uint64_t target_off = 6 + 2;
  Byte op = r.image.text().bytes[target_off];
  EXPECT_TRUE(op == 0xEB || op == 0xE9) << "expected jmp at pinned address, got " << int(op);
  auto res = behaviour_of(r.image);
  EXPECT_EQ(res.exit_status, 55);
}

TEST(Rewrite, GrowingTransformSpillsToOverflowNotBreakage) {
  // A program whose text is almost fully pinned leaves little free space;
  // relocated code must spill to the overflow area and still work.
  std::string src = ".entry main\n.text\nmain:\n";
  for (int i = 0; i < 40; ++i) src += " call f" + std::to_string(i) + "\n";
  src += " movi r0, 1\n mov r1, r2\n syscall\n";
  for (int i = 0; i < 40; ++i)
    src += "f" + std::to_string(i) + ":\n addi r2, " + std::to_string(i) + "\n ret\n";
  zelf::Image original = must_assemble(src);
  RewriteOptions opts;
  opts.analysis.pinning.naive_pin_all = true;  // worst case: pin everything
  RewriteResult r = must_rewrite(original, opts);
  EXPECT_GT(r.reassembly.overflow_bytes, 0u);
  expect_equivalent(original, r.image);
}

TEST(Rewrite, NaivePinningCostsMoreFileSize) {
  std::string src = ".entry main\n.text\nmain:\n";
  for (int i = 0; i < 100; ++i) src += " addi r2, 1\n";
  src += " movi r0, 1\n mov r1, r2\n syscall\n";
  zelf::Image original = must_assemble(src);

  RewriteOptions smart;
  RewriteResult a = must_rewrite(original, smart);
  RewriteOptions naive;
  naive.analysis.pinning.naive_pin_all = true;
  RewriteResult b = must_rewrite(original, naive);

  EXPECT_GT(b.reassembly.overflow_bytes, a.reassembly.overflow_bytes);
  expect_equivalent(original, a.image);
  expect_equivalent(original, b.image);
}

// ---- sleds (dense pins) ----

TEST(Sled, AdjacentPinnedTargetsDispatchCorrectly) {
  // Two jump-table slots one byte apart force a sled: there is no 1-byte
  // control transfer (paper Sec. II-C2).
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 1
      syscall
      load8 r0, [r2]
      jmpt r0, table
    t0: nop                ; 1 byte -- the next slot is 1 byte away
    t1: movi r1, 111
        jmp done
    done:
      movi r0, 1
      syscall
    .rodata
    table: .quad t0, t1
           .quad 0
    .bss
    buf: .space 8
  )";
  zelf::Image original = must_assemble(src);
  RewriteResult r = must_rewrite(original);
  EXPECT_GE(r.reassembly.sleds, 1u);
  for (Byte sel : {Byte{0}, Byte{1}}) {
    expect_equivalent(original, r.image, Bytes{sel});
  }
}

TEST(Sled, FourAdjacentPins) {
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 1
      syscall
      load8 r0, [r2]
      mov r6, sp
      jmpt r0, table
    t0: push r1
    t1: push r1
    t2: push r1
    t3: push r1
        mov r5, r6
        sub r5, sp
        shri r5, 3          ; observable landing depth: 4 - index
        mov sp, r6
        movi r0, 1
        mov r1, r5
        syscall
    .rodata
    table: .quad t0, t1, t2, t3
           .quad 0
    .bss
    buf: .space 8
  )";
  zelf::Image original = must_assemble(src);
  RewriteResult r = must_rewrite(original);
  EXPECT_GE(r.reassembly.sleds, 1u);
  EXPECT_GE(r.reassembly.sled_entries, 4u);
  for (Byte sel : {Byte{0}, Byte{1}, Byte{2}, Byte{3}}) {
    auto a = behaviour_of(original, Bytes{sel});
    auto b = behaviour_of(r.image, Bytes{sel});
    EXPECT_EQ(a.exit_status, 4 - sel);
    EXPECT_EQ(a, b) << "selector " << int(sel);
  }
}

TEST(Sled, DenseRunBeyondCapacityFailsLoudly) {
  // Six pins one byte apart exceed the single-push sled's capacity; the
  // rewrite must fail with a clear unsupported error, never mis-rewrite.
  std::string src = R"(
    .entry main
    .text
    main:
      jmpt r0, table
  )";
  for (int i = 0; i < 6; ++i) src += "    t" + std::to_string(i) + ": push r1\n";
  src += R"(
      hlt
    .rodata
    table: .quad t0, t1, t2, t3, t4, t5
           .quad 0
  )";
  zelf::Image original = must_assemble(src);
  auto r = rewrite(original, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, Error::Kind::kUnsupported);
  EXPECT_NE(r.error().message.find("sled"), std::string::npos) << r.error().message;
}

TEST(Pins, OneByteTerminatorSqueezedAgainstDataEmitsInPlace) {
  // The pinned `ret` has a verbatim blob right after it: no room for even
  // a 2-byte reference, so the 1-byte instruction itself is materialized
  // at its pin.
  const char* src = R"(
    .entry main
    .text
    main:
      movi r1, quickret
      callr r1
      movi r0, 1
      movi r1, 0
      syscall
    quickret:
      ret
    blob:
      .byte 0x00, 0x00, 0x00, 0x00
  )";
  zelf::Image original = must_assemble(src);
  RewriteResult r = must_rewrite(original);
  // At least the squeezed terminator is in place; pin-site coalescing may
  // keep other pinned dollops at their original addresses too.
  EXPECT_GE(r.reassembly.pins_in_place, 1u);
  // The byte at the pin is the original ret, not a jump.
  std::uint64_t off = 6 + 2 + 6 + 6 + 2;  // movi,callr,movi,movi,syscall
  EXPECT_EQ(r.image.text().bytes[off], 0xC3);
  expect_equivalent(original, r.image);
}

TEST(Sled, ThreeAdjacentPins) {
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 1
      syscall
      load8 r0, [r2]
      jmpt r0, table
    t0: nop
    t1: nop
    t2: movi r1, 5
        addi r1, 10
    done:
      movi r0, 1
      syscall
    .rodata
    table: .quad t0, t1, t2
           .quad 0
    .bss
    buf: .space 8
  )";
  zelf::Image original = must_assemble(src);
  RewriteResult r = must_rewrite(original);
  EXPECT_GE(r.reassembly.sleds, 1u);
  EXPECT_GE(r.reassembly.sled_entries, 3u);
  for (Byte sel : {Byte{0}, Byte{1}, Byte{2}}) {
    expect_equivalent(original, r.image, Bytes{sel});
  }
}

// ---- repeated rewrites on one thread (nothing is kept between calls) ----

// A straight-line program whose size scales linearly with `n`, for driving
// the reassembler's dollops and placement map to chosen demands.
std::string straightline_program(int n) {
  std::string src = ".entry main\n.text\nmain:\n";
  for (int i = 0; i < n; ++i) src += "  addi r2, " + std::to_string(i % 7) + "\n";
  src += "  movi r0, 1\n  mov r1, r2\n  syscall\n";
  return src;
}

TEST(RepeatedRewrite, SameInputOnOneThreadKeepsItsBytes) {
  zelf::Image img = must_assemble(straightline_program(400));
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  Bytes reference = cold_rewrite_bytes(img, opts);

  on_fresh_thread([&] {
    for (int pass = 0; pass < 3; ++pass) {
      auto r = rewrite(img, opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(zelf::write_image(r->image), reference)
          << "repeated rewrite drifted on pass " << pass;
    }
  });
}

TEST(RepeatedRewrite, DifferentImagesOnOneThreadMatchFreshRewrites) {
  zelf::Image a = must_assemble(straightline_program(300));
  zelf::Image b = must_assemble(straightline_program(37));
  Bytes ref_a = cold_rewrite_bytes(a);
  Bytes ref_b = cold_rewrite_bytes(b);

  // Big then small then big again on ONE thread: an earlier rewrite of a
  // differently-sized input must never leak into bytes.
  on_fresh_thread([&] {
    for (const auto* want : {&ref_a, &ref_b, &ref_a}) {
      const zelf::Image& img = (want == &ref_a) ? a : b;
      auto r = rewrite(img);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(zelf::write_image(r->image), *want);
    }
  });
}

TEST(RepeatedRewrite, TwoLiveReassemblersOnOneThreadMatchRewrite) {
  // Each Reassembler owns its memory, so two may be live on one thread at
  // once. Both are built before either runs, and they run in reverse order
  // of construction; each must still produce rewrite()'s bytes.
  auto corpus = cgc::cfe_corpus();
  std::vector<zelf::Image> images;
  for (std::size_t i : {0u, 1u}) {
    auto cb = cgc::generate_cb(corpus[i]);
    ASSERT_TRUE(cb.ok()) << corpus[i].name << ": " << cb.error().message;
    images.push_back(std::move(cb->image));
  }
  RewriteOptions opts;
  std::vector<analysis::IrProgram> progs;
  for (const auto& image : images) {
    auto prog = analysis::build_ir(image, opts.analysis);
    ASSERT_TRUE(prog.ok()) << prog.error().message;
    ASSERT_TRUE(apply_transforms(*prog, opts).ok());
    progs.push_back(std::move(prog).value());
  }
  // The reassembly options rewrite() derives from default RewriteOptions.
  rewriter::ReassemblyOptions ropts;
  ropts.seed = derive_seed(opts.seed, 0);
  rewriter::Reassembler first(progs[0], ropts);
  rewriter::Reassembler second(progs[1], ropts);

  auto second_out = second.run();
  ASSERT_TRUE(second_out.ok()) << second_out.error().message;
  auto first_out = first.run();
  ASSERT_TRUE(first_out.ok()) << first_out.error().message;
  EXPECT_EQ(zelf::write_image(*first_out), zelf::write_image(must_rewrite(images[0]).image));
  EXPECT_EQ(zelf::write_image(*second_out), zelf::write_image(must_rewrite(images[1]).image));
}

TEST(RepeatedRewrite, FailedRewriteLeavesTheThreadUsable) {
  // A failed rewrite -- before or after IR construction -- must not affect
  // the next rewrite on the same thread.
  zelf::Image good = must_assemble(straightline_program(300));
  zelf::Image invalid = good;
  invalid.entry = 0x10;  // outside every segment: fails validate()
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  RewriteOptions unknown = opts;
  unknown.transforms = {"cfi", "no-such-transform"};

  on_fresh_thread([&] {
    auto first = rewrite(good, opts);
    ASSERT_TRUE(first.ok()) << first.error().message;

    auto after_ir = rewrite(good, unknown);  // fails after build_ir
    ASSERT_FALSE(after_ir.ok());
    EXPECT_NE(after_ir.error().message.find("no-such-transform"), std::string::npos)
        << after_ir.error().message;

    auto bad_image = rewrite(invalid, opts);
    ASSERT_FALSE(bad_image.ok());
    EXPECT_EQ(bad_image.error().kind, Error::Kind::kInvalidArgument);

    auto again = rewrite(good, opts);
    ASSERT_TRUE(again.ok()) << again.error().message;
    EXPECT_EQ(zelf::write_image(again->image), zelf::write_image(first->image));
  });
}

// ---- the pipeline restated through its public layers ----

TEST(Pipeline, LayeredPathMatchesRewrite) {
  // rewrite() spelled out layer by layer, the way perfbench's traced replay
  // runs it: build_ir, the mandatory checks around the transforms, and a
  // directly constructed Reassembler. Both paths must produce the same
  // bytes.
  auto layered = [](const zelf::Image& input, const RewriteOptions& options) -> Result<Bytes> {
    ZIPR_ASSIGN_OR_RETURN(analysis::IrProgram prog,
                          analysis::build_ir(input, options.analysis));
    ZIPR_TRY(transform::verify_mandatory(prog));
    std::vector<std::string> names = options.transforms;
    if (names.empty()) names.push_back("null");
    std::uint64_t stream = 1;
    transform::TransformConfig tconfig;
    tconfig.cov_prune = options.cov_prune;
    for (const auto& name : names) {
      ZIPR_ASSIGN_OR_RETURN(auto t, transform::make_transform(name));
      transform::TransformContext ctx(prog, derive_seed(options.seed, stream++), tconfig);
      ZIPR_TRY(t->apply(ctx));
    }
    ZIPR_TRY(transform::verify_mandatory(prog));
    rewriter::ReassemblyOptions ropts;
    ropts.placement = options.placement;
    ropts.seed = derive_seed(options.seed, 0);
    ropts.prefer_short_refs = options.prefer_short_refs.value_or(
        options.placement != PlacementKind::kDiversity);
    ropts.coalesce =
        options.coalesce.value_or(options.placement != PlacementKind::kDiversity);
    rewriter::Reassembler reassembler(prog, ropts);
    ZIPR_ASSIGN_OR_RETURN(zelf::Image out, reassembler.run());
    return zelf::write_image(out);
  };

  const auto corpus = cgc::cfe_corpus();
  for (std::size_t i : {std::size_t{0}, std::size_t{23}, corpus.size() - 1}) {
    auto cb = cgc::generate_cb(corpus[i]);
    ASSERT_TRUE(cb.ok()) << corpus[i].name << ": " << cb.error().message;
    for (auto kind : {PlacementKind::kNearfit, PlacementKind::kDiversity,
                      PlacementKind::kPinPage}) {
      RewriteOptions opts;
      opts.placement = kind;
      opts.transforms = {"cfi"};
      auto direct = rewrite(cb->image, opts);
      ASSERT_TRUE(direct.ok()) << corpus[i].name << ": " << direct.error().message;
      auto replayed = layered(cb->image, opts);
      ASSERT_TRUE(replayed.ok()) << corpus[i].name << ": " << replayed.error().message;
      EXPECT_EQ(*replayed, zelf::write_image(direct->image))
          << corpus[i].name << " under placement " << static_cast<int>(kind);
    }
  }
}

TEST(Pipeline, ApplyTransformsIsRewritesPhaseTwo) {
  // A registered transform that leaves a branch without a target link
  // breaks the mandatory invariants: apply_transforms() must refuse it
  // with the same error rewrite() gives.
  class UnlinkedBranch final : public transform::Transform {
   public:
    std::string name() const override { return "test-unlinked-branch"; }
    Status apply(transform::TransformContext& ctx) override {
      ctx.db().add_new(isa::make_jmp(0, isa::BranchWidth::kRel32));
      return Status::success();
    }
  };
  transform::register_transform("test-unlinked-branch",
                                [] { return std::make_unique<UnlinkedBranch>(); });
  auto img = must_assemble(".entry m\n.text\nm: movi r0, 1\nmovi r1, 0\nsyscall\n");
  RewriteOptions broken;
  broken.transforms = {"test-unlinked-branch"};
  auto prog = analysis::build_ir(img, broken.analysis);
  ASSERT_TRUE(prog.ok()) << prog.error().message;
  auto applied = apply_transforms(*prog, broken);
  ASSERT_FALSE(applied.ok());
  auto rewritten = rewrite(img, broken);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(applied.error().kind, rewritten.error().kind);
  EXPECT_EQ(applied.error().message, rewritten.error().message);

  // A well-formed stack reports what rewrite() reports.
  auto cb = cgc::generate_cb(cgc::cfe_corpus()[0]);
  ASSERT_TRUE(cb.ok()) << cb.error().message;
  RewriteOptions cov;
  cov.transforms = {"laf", "cov"};
  cov.seed = 5;
  auto cb_prog = analysis::build_ir(cb->image, cov.analysis);
  ASSERT_TRUE(cb_prog.ok()) << cb_prog.error().message;
  auto stats = apply_transforms(*cb_prog, cov);
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  auto direct = rewrite(cb->image, cov);
  ASSERT_TRUE(direct.ok()) << direct.error().message;
  EXPECT_GT(stats->probes, 0u);
  EXPECT_EQ(stats->probes, direct->instrumentation.probes);
  EXPECT_EQ(stats->candidate_sites, direct->instrumentation.candidate_sites);
}

}  // namespace
}  // namespace zipr
