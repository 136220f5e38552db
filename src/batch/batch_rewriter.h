// The parallel batch-rewrite engine.
//
// Zipr's evaluation is corpus-scale: the paper rewrites ~100 CGC challenge
// binaries per configuration, and robustness is judged by how gracefully a
// rewriter fails across thousands of inputs. BatchRewriter drives N inputs
// through the (reentrant) zipr::rewrite pipeline on batch::parallel_for
// (the calling thread plus jobs - 1 helpers), with:
//
//   * deterministic output ordering -- result slot i always corresponds to
//     task i, regardless of completion order, so a parallel batch is
//     byte-identical to the serial one;
//   * per-task fault isolation -- a failing binary yields an error slot
//     (its Error kind and message preserved), never aborts the batch;
//   * aggregated BatchStats -- success/failure counts by error kind and
//     per-stage wall-time percentiles across the corpus.
//
// Inputs are either materialized images or lazy factories (e.g. a CGC
// generator closure), so corpus generation parallelizes with rewriting and
// the whole corpus need not be resident at once.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "zipr/zipr.h"

namespace zipr::batch {

/// Produces one input image on the thread that runs its task (must be safe
/// to invoke concurrently with other tasks' factories).
using ImageFactory = std::function<Result<zelf::Image>()>;

/// One unit of batch work: an input binary plus optional per-task options.
struct BatchTask {
  std::string name;
  std::variant<zelf::Image, ImageFactory> input;
  /// Per-task override; when unset the batch-wide options apply.
  std::optional<RewriteOptions> options;
};

struct BatchOptions {
  /// Worker threads; <= 0 means hardware concurrency. 1 runs inline on the
  /// calling thread (the serial reference path).
  int jobs = 1;
  /// Default rewrite configuration for tasks without an override.
  RewriteOptions rewrite;
};

/// Wall-time distribution of one pipeline stage across a batch (over the
/// tasks that reached the stage, i.e. successes).
struct StagePercentiles {
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

inline constexpr std::size_t kErrorKinds = 7;  // Error::Kind cardinality

struct BatchStats {
  std::size_t total = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  /// failed, bucketed by Error::Kind (index = static_cast<int>(kind)).
  std::array<std::size_t, kErrorKinds> failures_by_kind{};

  StagePercentiles ir;           ///< Phase 1: IR construction
  StagePercentiles transform;    ///< Phase 2: transforms
  StagePercentiles reassembly;   ///< Phase 3: reassembly
  StagePercentiles item_total;   ///< materialize + full rewrite per item

  double wall_ms = 0;  ///< whole-batch wall-clock time
  std::size_t jobs = 0;  ///< threads actually used, the calling thread included
};

/// One task's outcome, in task-submission order.
struct BatchItem {
  std::string name;
  Result<RewriteResult> result;
  double total_ms = 0;  ///< materialization + rewrite wall time
};

struct BatchResult {
  std::vector<BatchItem> items;  ///< items[i] corresponds to tasks[i]
  BatchStats stats;
};

class BatchRewriter {
 public:
  explicit BatchRewriter(BatchOptions options = {}) : options_(std::move(options)) {}

  /// Rewrite every task. Never fails as a whole: per-task errors land in
  /// their result slots. Deterministic: items[i] depends only on tasks[i]
  /// and its options, not on scheduling.
  BatchResult run(std::vector<BatchTask> tasks) const;

  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
};

/// Convenience: batch-rewrite a set of images under one configuration.
BatchResult rewrite_batch(const std::vector<zelf::Image>& images, const BatchOptions& options);

}  // namespace zipr::batch
