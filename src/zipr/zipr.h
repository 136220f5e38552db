// Zipr: the public entry point of the static binary rewriter.
//
// One call drives the paper's full pipeline (Fig. 1):
//
//   IR Construction  ->  Transformation  ->  Reassembly
//   (analysis/)          (transform/)        (zipr/)
//
//   zelf::Image in = ...;
//   zipr::RewriteOptions opts;
//   opts.transforms = {"cfi"};                 // or {}, {"stackpad"}, ...
//   auto result = zipr::rewrite(in, opts);
//   // result->image runs in the VM / serializes with zelf::write_image.
//
// The rewriter consumes only segment bytes and the entry point -- never
// symbols, debug info or source -- and the output binary contains NO copy
// of the original code: original text space is reclaimed for references
// and relocated dollops, with spill appended as overflow.
#pragma once

#include "analysis/ir_builder.h"
#include "transform/api.h"
#include "zipr/reassembler.h"

namespace zipr {

struct RewriteOptions {
  analysis::AnalysisOptions analysis;

  /// Dollop placement strategy (paper Sec. III). kNearfit favors memory
  /// overhead (the CGC configuration); kDiversity favors layout
  /// randomization; kPinPage aggressively fills pinned pages.
  rewriter::PlacementKind placement = rewriter::PlacementKind::kNearfit;

  /// Seed for all randomized decisions (diversity layout, transform
  /// randomness). Same seed + same input => identical output.
  std::uint64_t seed = 1;

  /// Override the short-reference relaxation choice; by default it tracks
  /// the strategy (nearfit/pinpage relax lazily, diversity unconstrains
  /// everything as the paper's default does).
  std::optional<bool> prefer_short_refs;

  /// Override fallthrough dollop coalescing (elide the trailing jump by
  /// emitting an unplaced successor directly past the cursor). Defaults to
  /// the strategy's preference: on for nearfit/pinpage, off for diversity
  /// (coalescing correlates successor layout with predecessor layout,
  /// which would weaken the randomization diversity exists to provide).
  std::optional<bool> coalesce;

  /// Registered transform names, applied in order (Sec. II-B2). An empty
  /// list equals {"null"}.
  std::vector<std::string> transforms;

  /// CFG-aware selective coverage instrumentation (dominator pruning,
  /// liveness-elided stubs). Off falls back to the conservative
  /// every-block instrumentation.
  bool cov_prune = true;
};

/// Wall-clock time spent in each pipeline phase of one rewrite() call.
struct StageTimes {
  double ir_ms = 0;          ///< Phase 1: IR construction
  double transform_ms = 0;   ///< Phase 2: mandatory checks + transforms
  double reassembly_ms = 0;  ///< Phase 3: reassembly
  double total_ms() const { return ir_ms + transform_ms + reassembly_ms; }
};

struct RewriteResult {
  zelf::Image image;
  analysis::AnalysisStats analysis;
  rewriter::RewriteStats reassembly;
  transform::InstrumentationStats instrumentation;  ///< summed over transforms
  StageTimes timing;
};

/// Phase 2 of rewrite(): check the mandatory invariants, apply
/// `options.transforms` in order ("null" when the list is empty; transform
/// i is seeded with derive_seed(options.seed, 1 + i)), and check the
/// invariants again. Returns the transforms' summed instrumentation stats.
Result<transform::InstrumentationStats> apply_transforms(analysis::IrProgram& prog,
                                                         const RewriteOptions& options);

/// Rewrite `input`, applying the configured transforms. The whole pipeline
/// runs on the calling thread, and nothing is kept between calls: output
/// bytes depend only on `input` and `options`.
///
/// REENTRANT: all pipeline state is per-call; concurrent rewrites from
/// multiple threads are safe (see the batch engine, src/batch). The only
/// shared state touched is the mutex-guarded transform registry and the
/// thread-safe logger.
Result<RewriteResult> rewrite(const zelf::Image& input, const RewriteOptions& options = {});

}  // namespace zipr
