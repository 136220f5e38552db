// Per-thread recycled state for repeated cold rewrites.
//
// One cold rewrite of a multi-MB binary allocates (and page-faults) tens
// of MB of transient tables: the analysis layer's claim vectors and
// bitmaps (analysis::AnalysisScratch) and the reassembler's bump arena
// (dollops and the placement map M). All of it dies with the rewrite --
// and on a serve/batch worker is immediately rebuilt for the next request.
// A RewriteWorkspace owns both pieces, and every thread that rewrites owns
// exactly one (this_thread_workspace()): rewrite() borrows the calling
// thread's, so successive rewrites on one thread reuse the previous
// rewrite's capacity. A thread that never rewrites never creates one.
//
// Recycling NEVER affects output bytes: each buffer is fully
// re-initialized per rewrite, and the arena is rewound before use. A
// workspace serves one rewrite at a time, which the per-thread ownership
// guarantees as long as a thread runs its rewrites sequentially.
//
// Trim policy: finish_cycle() (called by rewrite() on success) tracks the
// demand of the last kWindow cycles; when retained capacity exceeds twice
// the window's peak demand (plus slack), the workspace releases memory
// down to that budget. One oversized request therefore stops pinning its
// high-water mark as soon as the window full of smaller requests ages it
// out, while steady same-sized traffic never trims (and never reallocates).
// Whatever is retained is freed when the thread exits.
#pragma once

#include <algorithm>
#include <cstddef>

#include "analysis/scratch.h"
#include "support/arena.h"

namespace zipr {

class RewriteWorkspace {
 public:
  analysis::AnalysisScratch& analysis() { return analysis_; }
  MonotonicArena& arena() { return arena_; }

  /// Record the finished rewrite's memory demand and release capacity if
  /// the retained high-water mark has outgrown recent traffic. Called by
  /// rewrite() after a successful pass.
  void finish_cycle();

  /// Capacity currently pinned by this workspace (tests + trim policy).
  std::size_t retained_bytes() const {
    return arena_.retained_bytes() + analysis_.retained_bytes();
  }

  std::size_t cycles() const { return cycles_; }

 private:
  static constexpr std::size_t kWindow = 4;
  static constexpr std::size_t kSlack = 64 * 1024;

  analysis::AnalysisScratch analysis_;
  MonotonicArena arena_;
  std::size_t window_[kWindow] = {};  ///< demand of the last kWindow cycles
  std::size_t cycles_ = 0;
};

/// The calling thread's workspace, created on first use and destroyed at
/// thread exit.
RewriteWorkspace& this_thread_workspace();

}  // namespace zipr
