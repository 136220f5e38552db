// Traced replay of zipr::rewrite from outside the library: the same public
// calls in the same order with the same derive_seed streams and option
// defaults, each wrapped in a span. Its output bytes must equal
// zipr::rewrite's for every input; the workloads check that after the clock
// stops.
#pragma once

#include "common.h"

namespace perfbench {

/// Layer counters summed over replayed rewrites.
struct LayerCounts {
  std::uint64_t rewrites = 0;
  std::uint64_t code_insns = 0;
  std::uint64_t pins = 0;
  std::uint64_t pins_dropped = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t rows_after_ir = 0;
  std::uint64_t rows_after_transform = 0;
  std::uint64_t probes = 0;
  std::uint64_t candidate_sites = 0;
  std::uint64_t pruned = 0;
  std::uint64_t dollops_placed = 0;
  std::uint64_t dollop_splits = 0;
  std::uint64_t sleds = 0;
  std::uint64_t chains = 0;
  std::uint64_t jumps_elided = 0;
  std::uint64_t cont_jumps = 0;
  std::uint64_t overflow_bytes = 0;
  std::uint64_t warn_lines = 0;
};

/// Serialized input -> zelf::read_image -> the rewrite pipeline ->
/// zelf::write_image, one span per public call. `request` tags the spans.
/// After the pipeline span closes, build_ir's sub-engines and Cfg::build
/// are re-invoked on the same image as shadow spans (they cannot be timed
/// in-pipeline from outside).
zipr::Result<zipr::Bytes> traced_rewrite(zipr::ByteView input, const zipr::RewriteOptions& options,
                                         Tracer& tracer, std::uint64_t request,
                                         LayerCounts& counts, const WarnCounter& warns);

/// zipr::rewrite of the same serialized input, serialized (the reference
/// the replay must match byte for byte).
zipr::Result<zipr::Bytes> direct_rewrite(zipr::ByteView input, const zipr::RewriteOptions& options);

/// traced_rewrite plus the same call chain untraced (direct_rewrite), whose
/// wall time is appended to `untraced_ms`. Odd requests run the traced
/// side first, even ones the untraced side, so neither always runs second
/// on warmer state. Returns the traced output.
zipr::Result<zipr::Bytes> replay_pair(zipr::ByteView input, const zipr::RewriteOptions& options,
                                      Tracer& tracer, std::uint64_t request, LayerCounts& counts,
                                      const WarnCounter& warns, std::vector<double>& untraced_ms);

/// Per-layer metrics derived from the spans and counters of a traced run.
/// Layers the workload never reached report 0.
void add_layer_metrics(const Tracer& tracer, const LayerCounts& counts, Metrics& out);

}  // namespace perfbench
