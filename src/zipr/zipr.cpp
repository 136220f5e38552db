#include "zipr/zipr.h"

#include <chrono>

#include "support/rng.h"
#include "transform/api.h"

namespace zipr {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}
}  // namespace

Result<transform::InstrumentationStats> apply_transforms(analysis::IrProgram& prog,
                                                         const RewriteOptions& options) {
  ZIPR_TRY(transform::verify_mandatory(prog));
  std::vector<std::string> names = options.transforms;
  if (names.empty()) names.push_back("null");
  // Every random consumer gets a seed mixed from (options.seed, stream id):
  // stream 0 is placement, stream 1+i is the i-th transform. Sequential
  // seeds (seed, seed+1, ...) would hand diversity placement and randomized
  // transforms correlated SplitMix64 streams.
  std::uint64_t stream = 1;
  transform::TransformConfig tconfig;
  tconfig.cov_prune = options.cov_prune;
  transform::InstrumentationStats instrumentation;
  for (const auto& name : names) {
    ZIPR_ASSIGN_OR_RETURN(auto t, transform::make_transform(name));
    transform::TransformContext ctx(prog, derive_seed(options.seed, stream++), tconfig);
    ZIPR_TRY(t->apply(ctx));
    instrumentation += ctx.instrumentation();
  }
  ZIPR_TRY(transform::verify_mandatory(prog));
  return instrumentation;
}

// rewrite() is REENTRANT: every piece of pipeline state (IR program,
// transform contexts, reassembler and its memory, placement strategy, RNGs)
// lives in this call frame. The only process-global state it touches is
// the transform registry (mutex-guarded, and mutated only by
// register_transform) and the logger (thread-safe sink).
// Concurrent calls on distinct inputs -- or even the same input -- are
// safe; the batch engine (src/batch) relies on this.
Result<RewriteResult> rewrite(const zelf::Image& input, const RewriteOptions& options) {
  StageTimes timing;
  Clock::time_point stage_start = Clock::now();

  // Phase 1: IR Construction.
  ZIPR_ASSIGN_OR_RETURN(analysis::IrProgram prog, analysis::build_ir(input, options.analysis));
  timing.ir_ms = ms_since(stage_start);
  stage_start = Clock::now();

  // Phase 2: Transformation.
  ZIPR_ASSIGN_OR_RETURN(transform::InstrumentationStats instrumentation,
                        apply_transforms(prog, options));
  timing.transform_ms = ms_since(stage_start);
  stage_start = Clock::now();

  // Phase 3: Reassembly.
  rewriter::ReassemblyOptions ropts;
  ropts.placement = options.placement;
  ropts.seed = derive_seed(options.seed, 0);
  ropts.prefer_short_refs = options.prefer_short_refs.value_or(
      options.placement != rewriter::PlacementKind::kDiversity);
  ropts.coalesce = options.coalesce.value_or(
      options.placement != rewriter::PlacementKind::kDiversity);
  rewriter::Reassembler reassembler(prog, ropts);
  ZIPR_ASSIGN_OR_RETURN(zelf::Image out, reassembler.run());

  timing.reassembly_ms = ms_since(stage_start);

  RewriteResult result;
  result.image = std::move(out);
  result.analysis = prog.stats;
  result.reassembly = reassembler.stats();
  result.instrumentation = instrumentation;
  result.timing = timing;
  return result;
}

}  // namespace zipr
