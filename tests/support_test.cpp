// Unit tests for the support module: Result/Status, byte codecs,
// IntervalSet, and the deterministic RNG.
#include <gtest/gtest.h>

#include <set>

#include "support/bytes.h"
#include "support/interval.h"
#include "support/rng.h"
#include "support/status.h"

namespace zipr {
namespace {

// ---- Result / Status ----

Result<int> parse_positive(int v) {
  if (v <= 0) return Error::invalid_argument("not positive");
  return v;
}

TEST(Result, HoldsValue) {
  auto r = parse_positive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(Result, HoldsError) {
  auto r = parse_positive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, Error::Kind::kInvalidArgument);
  EXPECT_EQ(r.error().message, "not positive");
}

TEST(Result, ValueOr) {
  EXPECT_EQ(parse_positive(3).value_or(7), 3);
  EXPECT_EQ(parse_positive(-3).value_or(7), 7);
}

TEST(Status, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s = Error::parse("boom");
  ASSERT_FALSE(s.ok());
  EXPECT_STREQ(s.error().kind_name(), "parse");
}

Status passthrough(bool fail) {
  ZIPR_TRY([&]() -> Status {
    if (fail) return Error::decode("inner");
    return Status::success();
  }());
  return Status::success();
}

TEST(Status, TryPropagates) {
  EXPECT_TRUE(passthrough(false).ok());
  auto s = passthrough(true);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message, "inner");
}

// ---- byte codecs ----

TEST(Bytes, RoundTripAllWidths) {
  Bytes b;
  put_u8(b, 0xab);
  put_u16(b, 0x1234);
  put_u32(b, 0xdeadbeef);
  put_u64(b, 0x1122334455667788ULL);
  put_i8(b, -5);
  put_i32(b, -100000);
  ByteReader r(b);
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i8().value(), -5);
  EXPECT_EQ(r.i32().value(), -100000);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, LittleEndianLayout) {
  Bytes b;
  put_u32(b, 0x11223344);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x44);
  EXPECT_EQ(b[3], 0x11);
}

TEST(Bytes, ReaderPastEndFails) {
  Bytes b{1, 2};
  ByteReader r(b);
  EXPECT_FALSE(r.u32().ok());
  // A failed read must not consume bytes.
  EXPECT_EQ(r.u16().value(), 0x0201);
}

TEST(Bytes, PatchInPlace) {
  Bytes b(8, 0);
  patch_u32(b, 2, 0xcafebabe);
  EXPECT_EQ(get_u32(b, 2), 0xcafebabeu);
  patch_i8(b, 0, -1);
  EXPECT_EQ(get_i8(b, 0), -1);
}

TEST(Bytes, HexDump) {
  Bytes b{0x68, 0x90, 0x0f};
  EXPECT_EQ(hex_dump(b), "68 90 0f");
  EXPECT_EQ(hex_addr(0x400000), "0x400000");
}

// ---- IntervalSet ----

TEST(IntervalSet, InsertAndQuery) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(19));
  EXPECT_FALSE(s.contains(20));
  EXPECT_FALSE(s.contains(9));
  EXPECT_EQ(s.total_size(), 10u);
}

TEST(IntervalSet, CoalescesAdjacent) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(20, 30);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.contains_range(10, 30));
}

TEST(IntervalSet, CoalescesOverlapping) {
  IntervalSet s;
  s.insert(10, 25);
  s.insert(20, 40);
  s.insert(5, 12);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.intervals()[0], (Interval{5, 40}));
}

TEST(IntervalSet, InsertBridgingManyIntervals) {
  IntervalSet s;
  s.insert(0, 5);
  s.insert(10, 15);
  s.insert(20, 25);
  s.insert(3, 22);  // bridges all three
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.intervals()[0], (Interval{0, 25}));
}

TEST(IntervalSet, EraseSplits) {
  IntervalSet s;
  s.insert(0, 100);
  s.erase(40, 60);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains_range(0, 40));
  EXPECT_TRUE(s.contains_range(60, 100));
  EXPECT_FALSE(s.contains(40));
  EXPECT_FALSE(s.contains(59));
}

TEST(IntervalSet, EraseAcrossBoundaries) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.erase(5, 25);
  auto ivs = s.intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{0, 5}));
  EXPECT_EQ(ivs[1], (Interval{25, 30}));
}

TEST(IntervalSet, EraseEverything) {
  IntervalSet s;
  s.insert(10, 20);
  s.erase(0, 100);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet s;
  s.insert(5, 5);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, Overlaps) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_TRUE(s.overlaps(15, 25));
  EXPECT_TRUE(s.overlaps(5, 11));
  EXPECT_FALSE(s.overlaps(20, 30));
  EXPECT_FALSE(s.overlaps(0, 10));
}

TEST(IntervalSet, NextAtOrAfter) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  auto n = s.next_at_or_after(21);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->begin, 30u);
  EXPECT_FALSE(s.next_at_or_after(41).has_value());
}

TEST(IntervalSet, IteratorsWalkInAddressOrder) {
  IntervalSet s;
  s.insert(30, 40);
  s.insert(10, 20);
  std::vector<Interval> seen(s.begin(), s.end());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (Interval{10, 20}));
  EXPECT_EQ(seen[1], (Interval{30, 40}));
}

TEST(IntervalSet, ForEachInVisitsOverlapsOnly) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(40, 50);
  std::vector<Interval> seen;
  s.for_each_in(5, 41, [&](const Interval& iv) { seen.push_back(iv); });
  ASSERT_EQ(seen.size(), 3u);
  seen.clear();
  s.for_each_in(10, 20, [&](const Interval& iv) { seen.push_back(iv); });
  EXPECT_TRUE(seen.empty());  // half-open: touching intervals don't overlap
  // Early exit on a false return.
  int visits = 0;
  s.for_each_in(0, 50, [&](const Interval&) {
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 1);
}

TEST(IntervalSet, FitQueries) {
  IntervalSet s;
  s.insert(100, 110);  // size 10
  s.insert(200, 264);  // size 64
  s.insert(300, 310);  // size 10
  auto best = s.best_fit(8);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->begin, 100u);  // smallest fitting, lowest begin on tie
  auto first = s.first_fit(11);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->begin, 200u);
  auto big = s.largest();
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->size(), 64u);
  EXPECT_FALSE(s.best_fit(65).has_value());
  EXPECT_FALSE(s.first_fit(65).has_value());

  // The size index tracks coalescing: joining the two 10-byte ranges with
  // the 64-byte one produces a single 210-byte interval.
  s.insert(110, 300);
  ASSERT_TRUE(s.best_fit(65).has_value());
  EXPECT_EQ(s.largest()->size(), 210u);
  EXPECT_EQ(s.total_size(), 210u);
}

TEST(IntervalSet, ForEachFittingSmallestFirst) {
  IntervalSet s;
  s.insert(0, 64);     // size 64
  s.insert(100, 110);  // size 10
  s.insert(200, 232);  // size 32
  std::vector<std::uint64_t> sizes;
  s.for_each_fitting(11, [&](const Interval& iv) { sizes.push_back(iv.size()); });
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{32, 64}));
  sizes.clear();
  s.for_each_sized_between(10, 64, [&](const Interval& iv) { sizes.push_back(iv.size()); });
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{10, 32}));
}

// Property-style sweep: IntervalSet must agree with a bitmap model.
class IntervalSetModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetModelTest, MatchesBitmapModel) {
  Rng rng(GetParam());
  constexpr std::uint64_t kSpace = 512;
  IntervalSet s;
  std::vector<bool> model(kSpace, false);
  for (int step = 0; step < 200; ++step) {
    std::uint64_t a = rng.below(kSpace);
    std::uint64_t b = rng.below(kSpace);
    if (a > b) std::swap(a, b);
    if (rng.chance(1, 2)) {
      s.insert(a, b);
      for (std::uint64_t i = a; i < b; ++i) model[i] = true;
    } else {
      s.erase(a, b);
      for (std::uint64_t i = a; i < b; ++i) model[i] = false;
    }
  }
  std::uint64_t model_total = 0;
  for (std::uint64_t i = 0; i < kSpace; ++i) {
    EXPECT_EQ(s.contains(i), model[i]) << "at address " << i;
    model_total += model[i] ? 1 : 0;
  }
  EXPECT_EQ(s.total_size(), model_total);
  // Invariant: intervals are sorted, disjoint, non-adjacent.
  auto ivs = s.intervals();
  for (std::size_t i = 1; i < ivs.size(); ++i) EXPECT_LT(ivs[i - 1].end, ivs[i].begin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1337, 9999));

// ---- RNG ----

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIndependent) {
  Rng a(5);
  Rng child = a.fork();
  // Child stream should not equal the parent's continuation.
  Rng b(5);
  b.next();  // consume the value fork() consumed
  EXPECT_NE(child.next(), b.next());
}

TEST(Rng, DeriveSeedDistinctAcrossStreams) {
  // Per-stage seeds inside one rewrite must be decorrelated: formerly the
  // pipeline handed out seed, seed+1, ... and reused the base for
  // placement, so nearby user seeds collided across stages. The mixer must
  // give every (base, stream) pair its own seed with no cheap collisions.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 64; ++base)
    for (std::uint64_t stream = 0; stream < 8; ++stream)
      seen.insert(derive_seed(base, stream));
  EXPECT_EQ(seen.size(), 64u * 8u);

  // The classic trap: derive(seed, k) colliding with derive(seed+1, k-1)
  // (what plain seed+stream addition would do).
  for (std::uint64_t base = 0; base < 32; ++base)
    for (std::uint64_t stream = 1; stream < 8; ++stream)
      EXPECT_NE(derive_seed(base, stream), derive_seed(base + 1, stream - 1))
          << "base " << base << " stream " << stream;
}

TEST(Rng, DeriveSeedDeterministic) {
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
  EXPECT_NE(derive_seed(42, 3), derive_seed(42, 4));
  EXPECT_NE(derive_seed(42, 3), derive_seed(43, 3));
  // Streams of a zero base must still be distinct (zero-seed degeneracy).
  EXPECT_NE(derive_seed(0, 0), derive_seed(0, 1));
}

}  // namespace
}  // namespace zipr
