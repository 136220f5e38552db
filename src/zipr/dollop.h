// Dollops: linear sequences of instructions linked by fallthroughs
// (paper Sec. II-C1), and their manager.
//
// The DollopManager owns every not-yet-placed dollop, supports retrieving
// the dollop containing an instruction (splitting when the instruction is
// mid-dollop, as happens with shared code and jumps into loop bodies), and
// supports size-driven splitting so large dollops can fill small free
// blocks (Sec. II-C4).
//
// Each construction walk gathers its rows into one chain buffer with a
// prefix sum of their estimated sizes; a dollop is a [first, end) window
// onto its chain. Rows are not edited during reassembly (sled rows are new
// rows), so the sums stay exact and every operation after construction is
// cheap: a split narrows two windows, a size estimate is a subtraction,
// split_to_fit is a binary search over the sums, and retire is a
// swap-erase. Chains, dollop nodes and their boundary lists live in the
// manager's own MonotonicArena, so they die with the manager (one rewrite),
// and the instruction->dollop index is a flat array of {chain, position}
// over row ids rather than a hash map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "irdb/ir.h"
#include "support/arena.h"

namespace zipr::rewriter {

/// Conservative (rel32-width) encoded size of one row when relocated.
std::uint64_t estimated_size(irdb::ConstRowRef row);

struct DollopChain;

struct Dollop {
  /// The rows in fallthrough order: a window onto the construction chain's
  /// row buffer (splits narrow windows, they never copy rows).
  std::span<const irdb::InsnId> insns;

  /// The chain `insns` views (null = unmanaged).
  DollopChain* chain = nullptr;

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

/// The rows one construction walk gathered, in fallthrough order.
struct DollopChain {
  const irdb::InsnId* rows = nullptr;
  /// prefix[i] = summed estimated_size of rows [0, i); one entry per row
  /// plus one.
  const std::uint64_t* prefix = nullptr;
  /// The chain's dollops in row order, retired ones included: their
  /// windows partition the chain.
  ArenaVector<Dollop*> parts;
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
    if (Location loc = lookup(insn); loc.chain != 0) {
      const DollopChain& chain = *chains_[loc.chain - 1];
      const irdb::InsnId* row = chain.rows + loc.pos;
      Dollop* d = owner(chain, row);
      if (row == d->insns.data()) return d;
      return split(d, static_cast<std::size_t>(row - d->insns.data()));
    }
    return construct(insn, is_placed);
  }

  /// Split `d` so that its first part is at most `max_bytes` long
  /// (including the 5-byte continuation jump the split adds). Returns the
  /// new dollop holding the tail, or nullptr if no viable split point
  /// exists (the first instruction + jump already exceed `max_bytes`).
  Dollop* split_to_fit(Dollop* d, std::uint64_t max_bytes);

  /// Remove a dollop that has been fully emitted: every one of its rows
  /// must already be placed (its index entries stay, and lookups check
  /// placement first). O(1): swap-erase through the dollop's stored slot;
  /// the node's arena bytes stay allocated until the manager dies.
  /// Retiring a dollop the manager does not own -- including a double
  /// retire -- is an internal error and leaves the manager untouched.
  Status retire(Dollop* d);

  std::size_t unplaced_count() const { return dollops_.size(); }
  std::size_t total_splits() const { return splits_; }

 private:
  struct Location {
    std::uint32_t chain = 0;  ///< 1-based chain id; 0: row never owned
    std::uint32_t pos = 0;    ///< row's position in the chain
  };

  /// Index entry for a row. chain == 0 when unowned; ids past the index's
  /// extent (rows added to the database after construction) simply read
  /// as unowned.
  Location lookup(irdb::InsnId id) const {
    if (id == irdb::kNullInsn || id > where_.size()) return {};
    return where_[id - 1];
  }

  void set(irdb::InsnId id, Location loc) {
    if (id > where_.size())
      where_.resize(std::max<std::size_t>(id, db_.insn_count()));
    where_[id - 1] = loc;
  }

  /// The dollop of `chain` whose window holds `row`.
  static Dollop* owner(const DollopChain& chain, const irdb::InsnId* row) {
    auto it = std::upper_bound(chain.parts.begin(), chain.parts.end(), row,
                               [](const irdb::InsnId* r, const Dollop* d) {
                                 return r < d->insns.data();
                               });
    return *(it - 1);
  }

  template <typename IsPlacedFn>
  Dollop* construct(irdb::InsnId start, IsPlacedFn&& is_placed) {
    const auto chain_id = static_cast<std::uint32_t>(chains_.size() + 1);
    ArenaVector<irdb::InsnId> rows(&arena_);
    ArenaVector<std::uint64_t> prefix(&arena_);
    prefix.push_back(0);
    irdb::InsnId cur = start;
    irdb::InsnId continuation = irdb::kNullInsn;
    while (cur != irdb::kNullInsn) {
      if (is_placed(cur) || lookup(cur).chain != 0) {
        continuation = cur;
        break;
      }
      irdb::ConstRowRef row = db_.insn(cur);
      set(cur, {chain_id, static_cast<std::uint32_t>(rows.size())});
      rows.push_back(cur);
      prefix.push_back(prefix.back() + estimated_size(row));
      cur = row.fallthrough;
    }
    DollopChain* chain = arena_.create<DollopChain>();
    chain->rows = rows.begin();
    chain->prefix = prefix.begin();
    chain->parts = ArenaVector<Dollop*>(&arena_);
    chains_.push_back(chain);

    Dollop* d = arena_.create<Dollop>();
    d->insns = {rows.begin(), rows.size()};
    d->chain = chain;
    d->continuation = continuation;
    recompute(d);
    chain->parts.push_back(d);
    adopt(d);
    return d;
  }

  /// Split `d` at instruction index `pos` (tail begins at pos).
  Dollop* split(Dollop* d, std::size_t pos);

  /// Record a dollop's list slot.
  void adopt(Dollop* d) {
    d->slot = dollops_.size();
    dollops_.push_back(d);
  }

  void recompute(Dollop* d);

  const irdb::Database& db_;
  MonotonicArena arena_;  ///< owns every chain and dollop node
  std::vector<Dollop*> dollops_;      ///< live (unplaced) dollops; arena-owned
  std::vector<DollopChain*> chains_;  ///< every chain, by id-1; arena-owned
  std::vector<Location> where_;       ///< row id-1 -> owning chain + position
  std::size_t splits_ = 0;
};

}  // namespace zipr::rewriter
