// Half-open address intervals and an ordered, coalescing interval set.
//
// Used by analysis (code/data range classification) and by the reassembler's
// free-space manager (zipr::MemorySpace builds on IntervalSet).
//
// IntervalSet maintains two indexes over the same disjoint intervals:
//
//   * an address-ordered std::map (begin -> end), supporting point/range
//     queries and the coalescing insert/erase;
//   * a size-ordered std::multiset of {size, begin} keys, supporting
//     best_fit()/largest() in O(log n) without touching intervals that
//     cannot satisfy a request.
//
// A running byte total makes total_size() O(1). Allocation-style callers
// (MemorySpace, the placement strategies) must use the iterators, the
// for_each* visitors, or the fit queries -- intervals() materializes a
// fresh vector and exists only for stats, debugging, and tests.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

namespace zipr {

/// Half-open interval [begin, end) over 64-bit addresses.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive

  std::uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
  bool contains(std::uint64_t a) const { return a >= begin && a < end; }
  bool contains(const Interval& o) const { return o.begin >= begin && o.end <= end; }
  bool overlaps(const Interval& o) const { return begin < o.end && o.begin < end; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// An ordered set of disjoint intervals with automatic coalescing on insert.
///
/// insert() merges adjacent/overlapping intervals; erase() splits as needed.
/// All operations are O(log n) amortized.
class IntervalSet {
  using Map = std::map<std::uint64_t, std::uint64_t>;

 public:
  /// Copy-free forward iteration over the intervals in address order.
  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Interval;
    using difference_type = std::ptrdiff_t;
    using pointer = const Interval*;
    using reference = Interval;

    const_iterator() = default;
    Interval operator*() const { return {it_->first, it_->second}; }
    const_iterator& operator++() { ++it_; return *this; }
    const_iterator operator++(int) { auto t = *this; ++it_; return t; }
    const_iterator& operator--() { --it_; return *this; }
    const_iterator operator--(int) { auto t = *this; --it_; return t; }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    friend class IntervalSet;
    explicit const_iterator(Map::const_iterator it) : it_(it) {}
    Map::const_iterator it_;
  };

  const_iterator begin() const { return const_iterator(ivs_.begin()); }
  const_iterator end() const { return const_iterator(ivs_.end()); }

  /// Add [begin,end), merging with neighbours. Empty intervals are ignored.
  void insert(std::uint64_t begin, std::uint64_t end);
  void insert(const Interval& iv) { insert(iv.begin, iv.end); }

  /// Remove [begin,end) from the set, splitting containing intervals.
  void erase(std::uint64_t begin, std::uint64_t end);

  /// True if `a` is covered by some interval.
  bool contains(std::uint64_t a) const;

  /// True if all of [begin,end) is covered by a single interval.
  bool contains_range(std::uint64_t begin, std::uint64_t end) const;

  /// True if [begin,end) overlaps any interval.
  bool overlaps(std::uint64_t begin, std::uint64_t end) const;

  /// The interval covering `a`, if any.
  std::optional<Interval> interval_containing(std::uint64_t a) const;

  /// First interval with begin >= a, if any.
  std::optional<Interval> next_at_or_after(std::uint64_t a) const;

  /// Iterator to the last interval whose begin is <= a (the interval that
  /// covers or precedes a), or end() when none exists. O(log n).
  const_iterator at_or_before(std::uint64_t a) const;

  /// Iterator to the first interval whose begin is >= a. O(log n).
  const_iterator at_or_after(std::uint64_t a) const;

  /// Visit every interval overlapping [lo, hi) in address order without
  /// copying. O(log n + k) for k overlapping intervals. The visitor may
  /// return void, or bool where returning false stops the walk early.
  template <typename Fn>
  void for_each_in(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    auto it = ivs_.lower_bound(lo);
    if (it != ivs_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > lo) it = prev;
    }
    for (; it != ivs_.end() && it->first < hi; ++it)
      if (!visit(fn, Interval{it->first, it->second})) return;
  }

  /// Visit every interval with size() >= min_size, smallest first (ties by
  /// begin). O(log n + k) for k fitting intervals -- intervals too small to
  /// fit are never touched. Early-exit as in for_each_in.
  template <typename Fn>
  void for_each_fitting(std::uint64_t min_size, Fn&& fn) const {
    for (auto it = by_size_.lower_bound({min_size, 0}); it != by_size_.end(); ++it)
      if (!visit(fn, Interval{it->second, it->second + it->first})) return;
  }

  /// Visit every interval with size() in [min_size, max_size_excl), smallest
  /// first. Used for "viable fragment" scans that must skip both dust and
  /// whole-fit ranges. Early-exit as in for_each_in.
  template <typename Fn>
  void for_each_sized_between(std::uint64_t min_size, std::uint64_t max_size_excl,
                              Fn&& fn) const {
    auto it = by_size_.lower_bound({min_size, 0});
    auto stop = by_size_.lower_bound({max_size_excl, 0});
    for (; it != stop; ++it)
      if (!visit(fn, Interval{it->second, it->second + it->first})) return;
  }

  /// Smallest interval with size() >= min_size (ties broken by lowest
  /// begin), if any. O(log n).
  std::optional<Interval> best_fit(std::uint64_t min_size) const;

  /// Lowest-address interval with size() >= min_size, if any.
  /// O(log n + f) where f is the number of intervals that fit; prefer
  /// best_fit() on hot paths.
  std::optional<Interval> first_fit(std::uint64_t min_size) const;

  /// The largest interval (ties broken by highest begin), if any. O(1).
  std::optional<Interval> largest() const;

  bool empty() const { return ivs_.empty(); }
  std::size_t count() const { return ivs_.size(); }

  /// Total number of addresses covered. O(1).
  std::uint64_t total_size() const { return total_; }

  /// All intervals in ascending order. Materializes a fresh vector --
  /// stats/debug/test use only; never call on an allocation path.
  std::vector<Interval> intervals() const;

 private:
  template <typename Fn>
  static bool visit(Fn&& fn, const Interval& iv) {
    if constexpr (std::is_convertible_v<decltype(fn(iv)), bool>) {
      return static_cast<bool>(fn(iv));
    } else {
      fn(iv);
      return true;
    }
  }

  // Map-mutation helpers that keep the size index and byte total in sync.
  Map::iterator map_erase(Map::iterator it);
  void map_emplace(std::uint64_t begin, std::uint64_t end);

  // Keyed by begin; values are exclusive ends. Invariant: disjoint and
  // non-adjacent (adjacent runs are coalesced).
  Map ivs_;
  // Secondary index: one {size, begin} key per interval in ivs_.
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_size_;
  // Running sum of interval sizes.
  std::uint64_t total_ = 0;
};

}  // namespace zipr
