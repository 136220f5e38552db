// Per-worker recycled state for repeated cold rewrites.
//
// One cold rewrite of a multi-MB binary allocates (and page-faults) tens
// of MB of transient tables: the analysis layer's claim vectors and
// bitmaps (analysis::AnalysisScratch) and the reassembler's bump arena
// (dollops, the placement map M, the emission/patch logs). All of it dies
// with the rewrite -- and on a serve/batch worker is immediately rebuilt
// for the next request. A RewriteWorkspace owns both pieces so successive
// rewrites through the same workspace run with near-zero allocation cost:
// pass it to rewrite() and every large transient reuses the previous
// request's capacity.
//
// Recycling NEVER affects output bytes: each buffer is fully
// re-initialized per rewrite, and the arena is rewound before use. A
// workspace serves at most one rewrite at a time (not thread-safe); the
// WorkspacePool below hands distinct workspaces to concurrent workers.
//
// Trim policy: finish_cycle() (called by rewrite() on success) tracks the
// demand of the last kWindow cycles; when retained capacity exceeds twice
// the window's peak demand (plus slack), the workspace releases memory
// down to that budget. One oversized request therefore stops pinning its
// high-water mark as soon as the window full of smaller requests ages it
// out, while steady same-sized traffic never trims (and never reallocates).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/scratch.h"
#include "support/arena.h"

namespace zipr {

class RewriteWorkspace {
 public:
  analysis::AnalysisScratch& analysis() { return analysis_; }
  MonotonicArena* arena() { return &arena_; }

  /// Record the finished rewrite's memory demand and release capacity if
  /// the retained high-water mark has outgrown recent traffic. Called by
  /// rewrite() after a successful pass through this workspace.
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

/// Mutex-guarded free list of workspaces shared by a worker pool
/// (ServeEngine, BatchRewriter). checkout() prefers a warm idle workspace
/// and creates a fresh one only when all are busy, so the pool's footprint
/// tracks peak concurrency, not request count.
class WorkspacePool {
 public:
  /// RAII checkout: returns the workspace to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    RewriteWorkspace* get() const { return ws_.get(); }
    RewriteWorkspace* operator->() const { return ws_.get(); }
    explicit operator bool() const { return ws_ != nullptr; }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<RewriteWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    void release() {
      if (pool_ && ws_) pool_->give_back(std::move(ws_));
      pool_ = nullptr;
      ws_.reset();
    }

    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<RewriteWorkspace> ws_;
  };

  Lease checkout();

  /// Workspaces ever created (== peak concurrency observed); tests use it
  /// to prove recycling actually happened.
  std::size_t created() const;
  std::size_t idle_count() const;

 private:
  void give_back(std::unique_ptr<RewriteWorkspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RewriteWorkspace>> idle_;
  std::size_t created_ = 0;
};

}  // namespace zipr
