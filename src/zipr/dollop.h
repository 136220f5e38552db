// Dollops: linear sequences of instructions linked by fallthroughs
// (paper Sec. II-C1), and their manager.
//
// The DollopManager owns every not-yet-placed dollop, supports retrieving
// the dollop containing an instruction (splitting when the instruction is
// mid-dollop, as happens with shared code and jumps into loop bodies), and
// supports size-driven splitting so large dollops can fill small free
// blocks (Sec. II-C4).
//
// Storage is flat. Every construction walk appends its rows to one row
// vector with a running sum of their estimated sizes, and a dollop is a
// [first, last) window of positions in it. Rows are not edited during
// reassembly (sled rows are new rows), so the sums stay exact and every
// operation after construction is cheap: a split narrows one window and
// inserts another, a size estimate is a subtraction, split_to_fit is a
// binary search over the sums, and retire is a swap-erase. The windows of
// all dollops, retired ones included, partition the row vector, so a row's
// owner is a binary search over the windows ordered by start.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "irdb/ir.h"

namespace zipr::rewriter {

/// Conservative (rel32-width) encoded size of one row when relocated.
std::uint64_t estimated_size(irdb::ConstRowRef row);

struct Dollop {
  /// The rows in fallthrough order: positions [first, last) of the
  /// manager's row vector (DollopManager::insns reads them).
  std::uint32_t first = 0;
  std::uint32_t last = 0;

  /// If set, execution continues at this instruction after the last row:
  /// the dollop was truncated (by a split or by flowing into code that is
  /// already placed elsewhere) and a trailing jump must be emitted.
  irdb::InsnId continuation = irdb::kNullInsn;

  /// Conservative byte size if emitted now (instructions at rel32 widths
  /// plus a 5-byte continuation jump when present).
  std::uint64_t size_estimate = 0;

  /// Position in the owning DollopManager's list (maintained by the
  /// manager; lets retire() swap-erase in O(1)).
  std::size_t slot = 0;
};

class DollopManager {
 public:
  explicit DollopManager(const irdb::Database& db) : db_(db) {
    // Nearly every row passes through the index once; size it up front so
    // the construction walk never grows it (sled dispatch rows added later
    // extend it on demand, but they are few).
    where_.resize(db.insn_count());
  }

  /// The unplaced dollop that STARTS at `insn`, constructing or splitting
  /// as needed. Returns nullptr if `insn` is already placed (per
  /// `is_placed`) -- callers resolve against the placement map instead.
  ///
  /// Construction walks fallthrough links, stopping when an instruction is
  /// already placed or already owned by another dollop (the new dollop
  /// gains a continuation to it).
  template <typename IsPlacedFn>
  Dollop* dollop_starting_at(irdb::InsnId insn, IsPlacedFn&& is_placed) {
    // is_placed comes first: rows of retired dollops keep their index
    // entries, and every one of them is placed.
    if (is_placed(insn)) return nullptr;
    if (std::uint32_t where = lookup(insn); where != 0) {
      const std::uint32_t at = where - 1;
      Dollop* d = *(after(at) - 1);
      return at == d->first ? d : split(d, at);
    }
    return construct(insn, is_placed);
  }

  /// The rows of `d` in fallthrough order. The view is valid until the
  /// next construction, which may grow the row vector.
  std::span<const irdb::InsnId> insns(const Dollop& d) const {
    return {rows_.data() + d.first, d.last - d.first};
  }

  /// Split `d` so that its first part is at most `max_bytes` long
  /// (including the 5-byte continuation jump the split adds). Returns the
  /// new dollop holding the tail, or nullptr if no viable split point
  /// exists (the first instruction + jump already exceed `max_bytes`).
  Dollop* split_to_fit(Dollop* d, std::uint64_t max_bytes);

  /// Remove a dollop that has been fully emitted: every one of its rows
  /// must already be placed (its index entries stay, and lookups check
  /// placement first). O(1): swap-erase through the dollop's stored slot;
  /// the node itself stays allocated until the manager dies.
  /// Retiring a dollop the manager does not own -- including a double
  /// retire -- is an internal error and leaves the manager untouched.
  Status retire(Dollop* d);

  std::size_t unplaced_count() const { return dollops_.size(); }
  std::size_t total_splits() const { return splits_; }

 private:
  /// 1 + the row's position in rows_; 0 when the row was never owned. Ids
  /// past the index's extent (rows added to the database after
  /// construction) simply read as unowned.
  std::uint32_t lookup(irdb::InsnId id) const {
    if (id == irdb::kNullInsn || id > where_.size()) return 0;
    return where_[id - 1];
  }

  /// The first window that starts after position `at`; the one before it
  /// holds `at`.
  std::vector<Dollop*>::iterator after(std::uint32_t at) {
    return std::upper_bound(parts_.begin(), parts_.end(), at,
                            [](std::uint32_t pos, const Dollop* d) { return pos < d->first; });
  }

  template <typename IsPlacedFn>
  Dollop* construct(irdb::InsnId start, IsPlacedFn&& is_placed) {
    Dollop& d = nodes_.emplace_back();
    d.first = static_cast<std::uint32_t>(rows_.size());
    irdb::InsnId cur = start;
    while (cur != irdb::kNullInsn) {
      if (is_placed(cur) || lookup(cur) != 0) {
        d.continuation = cur;
        break;
      }
      irdb::ConstRowRef row = db_.insn(cur);
      if (cur > where_.size())
        where_.resize(std::max<std::size_t>(cur, db_.insn_count()));
      rows_.push_back(cur);
      where_[cur - 1] = static_cast<std::uint32_t>(rows_.size());
      prefix_.push_back(prefix_.back() + estimated_size(row));
      cur = row.fallthrough;
    }
    d.last = static_cast<std::uint32_t>(rows_.size());
    recompute(d);
    parts_.push_back(&d);
    adopt(&d);
    return &d;
  }

  /// Split `d` at row position `at` (the tail begins there).
  Dollop* split(Dollop* d, std::uint32_t at);

  /// Record a dollop's list slot.
  void adopt(Dollop* d) {
    d->slot = dollops_.size();
    dollops_.push_back(d);
  }

  void recompute(Dollop& d);

  const irdb::Database& db_;
  std::vector<irdb::InsnId> rows_;          ///< every constructed chain, back to back
  std::vector<std::uint64_t> prefix_{0};    ///< prefix_[i]: estimated bytes of rows_[0, i)
  std::vector<Dollop*> parts_;              ///< every dollop, ordered by window start
  std::vector<std::uint32_t> where_;        ///< row id-1 -> 1 + position in rows_
  std::deque<Dollop> nodes_;                ///< owns every dollop; pointers stay stable
  std::vector<Dollop*> dollops_;            ///< live (unplaced) dollops
  std::size_t splits_ = 0;
};

}  // namespace zipr::rewriter
