// Heap footprint of one warm rewrite of the synthetic large binary: how
// many allocations it makes and how far the live heap rises above its
// starting level. Both are counts, not times, so the ceilings below hold
// on any host. This binary replaces the global operator new and delete to
// count, which is why it is an executable of its own.
//
// Each measurement runs on a fresh thread: one uncounted rewrite settles
// one-time state such as the transform registry, then one counted rewrite
// measures what a serve or batch worker pays per request. A rewrite keeps
// nothing between calls, so the counted one allocates all of its own
// reassembly memory.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cgc/generator.h"
#include "testing_util.h"

namespace {

// Live bytes are tracked with malloc_usable_size, so a free can subtract
// without a size tag; the peak is a CAS-max over the live count.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

}  // namespace

// The two base operators are never inlined, so GCC never sees std::free
// applied to a pointer that operator new returned in the same function.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t usable = malloc_usable_size(p);
  const std::uint64_t live = g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace zipr {
namespace {

using ::zipr::testing::must_rewrite;
using ::zipr::testing::on_fresh_thread;

// Ceilings on the warm x1 rewrite: about 710 allocations and 3.2 MB peak
// when they were set, so a per-row or per-instruction allocation (x1 lifts
// about 20k rows) fails them.
constexpr std::uint64_t kMaxAllocsX1 = 2'000;
constexpr std::uint64_t kMaxPeakHeapX1 = 6 * 1024 * 1024;
// x50's peak heap may be at most this factor of the linear extrapolation
// from x1: a superlinear table shows here.
constexpr double kScalingSlack = 1.5;

struct Footprint {
  std::uint64_t allocs = 0;
  std::uint64_t peak_heap = 0;  ///< bytes above the live level at the start
};

Footprint warm_rewrite_footprint(int scale) {
  auto cb = cgc::generate_wide_cb(cgc::synthetic_large_spec(scale));
  EXPECT_TRUE(cb.ok()) << (cb.ok() ? "" : cb.error().message);
  if (!cb.ok()) return {};
  Footprint f;
  on_fresh_thread([&] {
    (void)must_rewrite(cb->image);
    const std::uint64_t allocs0 = g_allocs.load();
    const std::uint64_t live0 = g_live.load();
    g_peak.store(live0);
    (void)must_rewrite(cb->image);
    f.allocs = g_allocs.load() - allocs0;
    f.peak_heap = g_peak.load() - live0;
  });
  std::printf("x%d warm rewrite: %llu allocations, %llu B peak heap\n", scale,
              static_cast<unsigned long long>(f.allocs),
              static_cast<unsigned long long>(f.peak_heap));
  return f;
}

TEST(Footprint, WarmX1RewriteStaysUnderAllocationAndPeakHeapCeilings) {
  const Footprint x1 = warm_rewrite_footprint(1);
  EXPECT_GT(x1.allocs, 0u);
  EXPECT_LE(x1.allocs, kMaxAllocsX1);
  EXPECT_GT(x1.peak_heap, 0u);
  EXPECT_LE(x1.peak_heap, kMaxPeakHeapX1);
}

TEST(Footprint, WarmX50PeakHeapStaysNearLinearInX1) {
  const Footprint x1 = warm_rewrite_footprint(1);
  const Footprint x50 = warm_rewrite_footprint(50);
  EXPECT_LE(static_cast<double>(x50.peak_heap),
            kScalingSlack * 50 * static_cast<double>(x1.peak_heap));
}

}  // namespace
}  // namespace zipr
