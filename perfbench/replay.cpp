#include "replay.h"

#include "analysis/cfg.h"
#include "support/rng.h"
#include "transform/api.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

Result<Bytes> direct_rewrite(ByteView input, const RewriteOptions& options) {
  ZIPR_ASSIGN_OR_RETURN(zelf::Image image, zelf::read_image(input));
  ZIPR_ASSIGN_OR_RETURN(RewriteResult r, rewrite(image, options));
  return zelf::write_image(r.image);
}

namespace {

// The body of zipr::rewrite (src/zipr/zipr.cpp) with ExecPolicy{} -- jobs 1,
// no workspace -- restated through the public entry points of each layer.
Result<zelf::Image> traced_pipeline(const zelf::Image& input, const RewriteOptions& options,
                                    Tracer& tracer, std::uint64_t request,
                                    LayerCounts& counts) {
  Scope root(&tracer, "zipr.rewrite", request);
  Result<analysis::IrProgram> built = [&] {
    Scope s(&tracer, "analysis.build_ir", request);
    return analysis::build_ir(input, options.analysis);
  }();
  if (!built.ok()) return built.error();
  analysis::IrProgram prog = std::move(*built);
  counts.code_insns += prog.stats.code_insns;
  counts.pins += prog.stats.pins;
  counts.pins_dropped += prog.stats.pins_dropped;
  counts.disagreements += prog.stats.disagreements;
  counts.rows_after_ir += prog.db.insn_count();

  {
    Scope s(&tracer, "transform.verify_mandatory", request);
    ZIPR_TRY(transform::verify_mandatory(prog));
  }
  std::vector<std::string> names = options.transforms;
  if (names.empty()) names.push_back("null");
  std::uint64_t stream = 1;
  transform::TransformConfig tconfig;
  tconfig.cov_prune = options.cov_prune;
  transform::InstrumentationStats instrumentation;
  for (const auto& name : names) {
    Scope s(&tracer, "transform." + name, request);
    ZIPR_ASSIGN_OR_RETURN(auto t, transform::make_transform(name));
    transform::TransformContext ctx(prog, derive_seed(options.seed, stream++), tconfig);
    ZIPR_TRY(t->apply(ctx));
    instrumentation += ctx.instrumentation();
  }
  {
    Scope s(&tracer, "transform.verify_mandatory", request);
    ZIPR_TRY(transform::verify_mandatory(prog));
  }
  counts.rows_after_transform += prog.db.insn_count();
  counts.probes += instrumentation.probes;
  counts.candidate_sites += instrumentation.candidate_sites;
  counts.pruned += instrumentation.pruned_dominated + instrumentation.collapsed_single_pred;

  Scope s(&tracer, "zipr.reassemble", request);
  rewriter::ReassemblyOptions ropts;
  ropts.placement = options.placement;
  ropts.seed = derive_seed(options.seed, 0);
  ropts.prefer_short_refs = options.prefer_short_refs.value_or(
      options.placement != rewriter::PlacementKind::kDiversity);
  ropts.coalesce = options.coalesce.value_or(
      options.placement != rewriter::PlacementKind::kDiversity);
  rewriter::Reassembler reassembler(prog, ropts);
  ZIPR_ASSIGN_OR_RETURN(zelf::Image out, reassembler.run());
  const auto& st = reassembler.stats();
  counts.dollops_placed += st.dollops_placed;
  counts.dollop_splits += st.dollop_splits;
  counts.sleds += st.sleds;
  counts.chains += st.chains;
  counts.jumps_elided += st.jumps_elided;
  counts.cont_jumps += st.cont_jumps;
  counts.overflow_bytes += st.overflow_bytes;
  return out;
}

// build_ir's engines and the CFG, re-invoked on the same image outside the
// pipeline (their results are discarded).
void shadow_engines(const zelf::Image& input, const RewriteOptions& options, Tracer& tracer,
                    std::uint64_t request) {
  Scope root(&tracer, "analysis.shadow", request, true);
  const zelf::Segment& text = input.text();
  analysis::DisasmResult linear = [&] {
    Scope s(&tracer, "analysis.linear_sweep", request, true);
    return analysis::linear_sweep(text);
  }();
  analysis::TraversalResult recursive = [&] {
    Scope s(&tracer, "analysis.recursive_traversal", request, true);
    return analysis::recursive_traversal(input, options.analysis.traversal);
  }();
  analysis::Aggregate agg = [&] {
    Scope s(&tracer, "analysis.aggregate", request, true);
    return analysis::aggregate(text, linear, recursive);
  }();
  {
    Scope s(&tracer, "analysis.compute_pins", request, true);
    (void)analysis::compute_pins(input, agg, recursive, options.analysis.pinning);
  }
  auto prog = analysis::build_ir(input, options.analysis);
  if (prog.ok()) {
    Scope s(&tracer, "analysis.cfg_build", request, true);
    (void)analysis::Cfg::build(*prog);
  }
}

}  // namespace

Result<Bytes> traced_rewrite(ByteView input, const RewriteOptions& options, Tracer& tracer,
                             std::uint64_t request, LayerCounts& counts,
                             const WarnCounter& warns) {
  const std::uint64_t warns_before = warns.lines();
  Bytes out_bytes;
  zelf::Image image;
  {
    Scope req(&tracer, "replay", request);
    Result<zelf::Image> parsed = [&] {
      Scope s(&tracer, "zelf.read_image", request);
      return zelf::read_image(input);
    }();
    if (!parsed.ok()) return parsed.error();
    image = std::move(*parsed);
    ZIPR_ASSIGN_OR_RETURN(zelf::Image out, traced_pipeline(image, options, tracer, request, counts));
    Scope s(&tracer, "zelf.write_image", request);
    out_bytes = zelf::write_image(out);
  }
  counts.warn_lines += warns.lines() - warns_before;
  ++counts.rewrites;
  shadow_engines(image, options, tracer, request);
  return out_bytes;
}

Result<Bytes> replay_pair(ByteView input, const RewriteOptions& options, Tracer& tracer,
                          std::uint64_t request, LayerCounts& counts, const WarnCounter& warns,
                          std::vector<double>& untraced_ms) {
  auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    (void)direct_rewrite(input, options);
    untraced_ms.push_back(ms_since(t0));
  };
  if (request % 2 == 0) untraced();
  Result<Bytes> out = traced_rewrite(input, options, tracer, request, counts, warns);
  if (request % 2 == 1) untraced();
  return out;
}

void add_layer_metrics(const Tracer& tracer, const LayerCounts& c, Metrics& out) {
  const auto self = tracer.self_ms();
  const auto total = tracer.total_ms();
  const double n = c.rewrites == 0 ? 1.0 : static_cast<double>(c.rewrites);
  auto per_rewrite = [&](const std::map<std::string, double>& m, const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second / n;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  auto count = [&](std::uint64_t v) { return static_cast<double>(v) / n; };

  out["analysis.linear_sweep_ms"] = {per_rewrite(total, "analysis.linear_sweep"), "ms"};
  out["analysis.recursive_traversal_ms"] = {per_rewrite(total, "analysis.recursive_traversal"), "ms"};
  out["analysis.aggregate_ms"] = {per_rewrite(total, "analysis.aggregate"), "ms"};
  out["analysis.compute_pins_ms"] = {per_rewrite(total, "analysis.compute_pins"), "ms"};
  out["analysis.build_ir_ms"] = {per_rewrite(total, "analysis.build_ir"), "ms"};
  // Estimate until the library records its own phases: build_ir's time
  // minus its four engines re-run outside the pipeline.
  out["analysis.build_ir_self_ms_est"] = {
      per_rewrite(total, "analysis.build_ir") - per_rewrite(total, "analysis.linear_sweep") -
          per_rewrite(total, "analysis.recursive_traversal") -
          per_rewrite(total, "analysis.aggregate") - per_rewrite(total, "analysis.compute_pins"),
      "ms"};
  out["analysis.cfg_build_ms"] = {per_rewrite(total, "analysis.cfg_build"), "ms"};
  out["analysis.code_insns"] = {count(c.code_insns), "count"};
  out["analysis.pins"] = {count(c.pins), "count"};
  out["analysis.pins_dropped"] = {count(c.pins_dropped), "count"};
  out["analysis.disagreements"] = {count(c.disagreements), "count"};
  out["analysis.warn_lines"] = {count(c.warn_lines), "count"};
  out["irdb.rows_after_ir"] = {count(c.rows_after_ir), "count"};
  out["irdb.rows_after_transform"] = {count(c.rows_after_transform), "count"};
  out["transform.cfi_ms"] = {per_rewrite(total, "transform.cfi"), "ms"};
  out["transform.cov_ms"] = {per_rewrite(total, "transform.cov"), "ms"};
  out["transform.laf_ms"] = {per_rewrite(total, "transform.laf"), "ms"};
  out["transform.verify_mandatory_ms"] = {per_rewrite(total, "transform.verify_mandatory"), "ms"};
  out["transform.probes"] = {count(c.probes), "count"};
  out["transform.prune_rate"] = {ratio(static_cast<double>(c.pruned),
                                       static_cast<double>(c.candidate_sites)),
                                 "ratio"};
  out["zipr.rewrite_self_ms"] = {per_rewrite(self, "zipr.rewrite"), "ms"};
  out["zipr.reassemble_ms"] = {per_rewrite(total, "zipr.reassemble"), "ms"};
  out["zipr.dollops_placed"] = {count(c.dollops_placed), "count"};
  out["zipr.dollop_splits"] = {count(c.dollop_splits), "count"};
  out["zipr.sleds"] = {count(c.sleds), "count"};
  out["zipr.chains"] = {count(c.chains), "count"};
  out["zipr.elision_rate"] = {ratio(static_cast<double>(c.jumps_elided),
                                    static_cast<double>(c.jumps_elided + c.cont_jumps)),
                              "ratio"};
  out["zipr.overflow_bytes"] = {count(c.overflow_bytes), "bytes"};
  out["zelf.read_image_ms"] = {per_rewrite(total, "zelf.read_image"), "ms"};
  out["zelf.write_image_ms"] = {per_rewrite(total, "zelf.write_image"), "ms"};
}

}  // namespace perfbench
