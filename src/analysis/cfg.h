// Basic-block CFG, dominator/post-dominator trees over the IRDB.
//
// Shared infrastructure for CFG-aware transforms (selective coverage
// instrumentation today; CFI precision and compare-splitting later).
// Blocks are discovered from the IRDB's logical links with the same
// leader rule the coverage transform uses -- static branch targets, jcc
// fallthroughs, function entries and pinned addresses -- plus call
// continuations, so calls can carry interprocedural edges.
//
// The graph is a conservative over-approximation of runtime control
// flow. Three virtual nodes close it:
//
//   * ENTRY precedes the program entry point;
//   * EXIT succeeds halts, run-off-text jumps and possibly-terminating
//     syscalls (a `movi r0, K` peephole right before a syscall resolves
//     the number; only terminate -- or an unknown number -- gets an
//     EXIT edge);
//   * UNKNOWN absorbs indirect transfers we cannot resolve (jmpr,
//     callr, jmpt without table metadata, rets of address-taken
//     functions, branches into verbatim bytes) and fans back out to
//     every pinned block and every call continuation. Pinned blocks
//     therefore keep an un-analyzable predecessor whenever any
//     indirect flow exists -- exactly the conservative fallback the
//     instrumentation pruner needs.
//
// Dominators/post-dominators use the Cooper-Harvey-Kennedy iterative
// algorithm over reverse postorder; unreachable blocks get no idom and
// are excluded from any client optimization.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/ir_builder.h"

namespace zipr::analysis {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = static_cast<BlockId>(-1);

struct BasicBlock {
  irdb::InsnId leader = irdb::kNullInsn;  ///< first row; null for virtual nodes
  std::vector<irdb::InsnId> insns;        ///< rows in fallthrough order
  std::vector<BlockId> succs;
  std::vector<BlockId> preds;
  bool is_virtual = false;   ///< ENTRY / EXIT / UNKNOWN
  bool opaque = false;       ///< contains verbatim rows: contents unknown
  bool pinned = false;       ///< leader is an indirectly-targetable pin
  bool probe_site = false;   ///< leader under the coverage transform's rule
  bool may_exit = false;     ///< contains a possibly-terminating syscall
  /// First row index within `insns` holding a call/callr/syscall, or
  /// insns.size() if none: past it, straight-line execution of the rest
  /// of the block is no longer guaranteed (the callee may terminate).
  std::size_t first_unsafe = 0;
};

class Cfg {
 public:
  /// Build the CFG for a lifted program. Never fails: anything that
  /// cannot be modeled precisely degrades to UNKNOWN/EXIT edges.
  static Cfg build(const IrProgram& prog);

  static constexpr BlockId kEntry = 0;
  static constexpr BlockId kExit = 1;
  static constexpr BlockId kUnknown = 2;

  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const BasicBlock& block(BlockId b) const { return blocks_[b]; }
  std::size_t size() const { return blocks_.size(); }

  /// Block containing `id`, or kNoBlock (virtual nodes, unreachable
  /// rows never claimed by a leader chain, verbatim-only rows).
  BlockId block_of(irdb::InsnId id) const;

  /// Immediate dominators; kNoBlock when unreachable from ENTRY.
  const std::vector<BlockId>& idom() const { return idom_; }

  /// Reflexive dominance queries; false when either side is
  /// unreachable (clients must stay conservative there).
  bool dominates(BlockId a, BlockId b) const;
  bool postdominates(BlockId a, BlockId b) const;

  /// Reverse postorder over forward edges from ENTRY (reachable
  /// blocks only) -- the canonical iteration order for dataflow.
  const std::vector<BlockId>& rpo() const { return rpo_; }

 private:
  std::vector<BasicBlock> blocks_;
  std::unordered_map<irdb::InsnId, BlockId> row_block_;
  std::vector<BlockId> idom_, ipdom_;
  std::vector<BlockId> rpo_;

  void add_edge(BlockId from, BlockId to);
  void compute_dominators();
};

}  // namespace zipr::analysis
