// Per-thread recycled reassembly arena for repeated cold rewrites.
//
// One cold rewrite of a multi-MB binary bump-allocates tens of MB of
// reassembly state in a MonotonicArena: dollops and the placement map M.
// All of it dies with the rewrite -- and on a serve/batch worker is
// immediately rebuilt for the next request. A RewriteWorkspace owns that
// arena, and every thread that rewrites owns exactly one
// (this_thread_workspace()): the Reassembler rewinds the calling thread's
// arena and bumps into its retained chunks, so successive rewrites on one
// thread reuse the previous rewrite's capacity. A thread that never
// rewrites never creates one.
//
// The analysis tables (claims, byte state, row map) are not recycled:
// build_ir allocates them per call, and keeping them here bought no
// measurable time (DESIGN.md, "Workspace lifecycle").
//
// Recycling NEVER affects output bytes: the arena is rewound before use.
// A workspace serves one rewrite at a time, which the per-thread ownership
// guarantees as long as a thread runs its rewrites sequentially.
//
// Trim policy: finish_cycle() (called by rewrite() on success) tracks the
// arena demand of the last kWindow cycles; when retained capacity exceeds
// twice the window's peak demand (plus slack), the arena releases chunks.
// One oversized request therefore stops pinning its high-water mark as
// soon as the window full of smaller requests ages it out, while steady
// same-sized traffic never trims (and never reallocates). Whatever is
// retained is freed when the thread exits.
#pragma once

#include <algorithm>
#include <cstddef>

#include "support/arena.h"

namespace zipr {

class RewriteWorkspace {
 public:
  MonotonicArena& arena() { return arena_; }

  /// Record the finished rewrite's arena demand and release chunks if the
  /// retained high-water mark has outgrown recent traffic. Called by
  /// rewrite() after a successful pass.
  void finish_cycle();

  /// Capacity currently pinned by this workspace (tests + trim policy).
  std::size_t retained_bytes() const { return arena_.retained_bytes(); }

  std::size_t cycles() const { return cycles_; }

 private:
  static constexpr std::size_t kWindow = 4;
  static constexpr std::size_t kSlack = 64 * 1024;

  MonotonicArena arena_;
  std::size_t window_[kWindow] = {};  ///< arena demand of the last kWindow cycles
  std::size_t cycles_ = 0;
};

/// The calling thread's workspace, created on first use and destroyed at
/// thread exit.
RewriteWorkspace& this_thread_workspace();

}  // namespace zipr
