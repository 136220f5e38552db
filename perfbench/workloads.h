// The four workloads. Each builds its inputs from the workload seed, times
// its loop for the requested seconds, verifies every timed output after the
// clock stops, and fills a Report.
#pragma once

#include <functional>
#include <string>

#include "common.h"
#include "replay.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;
  std::string work_dir = ".";  ///< sockets and the trace file go here
  std::string trace_path;      ///< Chrome trace-event JSON (traced runs)
};

struct Report {
  Checks checks;
  /// The end-to-end metrics every workload reports (untraced runs).
  Metrics end_to_end;
  /// Per-layer metrics (traced runs); layers a workload never reaches
  /// report 0.
  Metrics per_layer;
  /// The workload's own named figures, printed as lines above the result.
  Metrics named;
  std::vector<std::string> notes;
  /// Known-unsound pool entries the workload's draws stepped over.
  std::vector<std::string> skipped;
};

/// Run `setup` at least 5 times, and more while the runs add up to under
/// two seconds; return the lower quartile of their wall times in seconds.
/// The last run's state is what the workload keeps.
double timed_setup(const std::function<void()>& setup);

/// The three output-quality metrics from per-binary rewritten/original
/// ratios: end-to-end `filesize_ratio`, `exec_ratio`, `mem_ratio` (geomean
/// ratios, never 0) and the paper's `*_overhead` (the same minus 1) as
/// named figures.
void add_ratios(Report& r, const std::vector<double>& file, const std::vector<double>& exec,
                const std::vector<double>& mem);

/// Note one digest over a workload's output digests, so runs of one seed
/// can be compared for identical output bytes.
void add_output_digest(Report& r, const std::vector<std::uint64_t>& digests);

/// Close a traced run: the layer metrics of `counts` and the spans, the
/// tracing overhead -- per replayed rewrite, the mean of the traced
/// "replay" spans minus the mean of `untraced_ms` (the same call chain
/// without spans), and the ratio of the two -- the span count, and the
/// Chrome trace file.
void finish_trace(const RunConfig& cfg, const Tracer& tracer, const LayerCounts& counts,
                  const std::vector<double>& untraced_ms, Report& r);

void run_corpus(const RunConfig& cfg, Report& report);
void run_large(const RunConfig& cfg, Report& report);
void run_serve_mix(const RunConfig& cfg, Report& report);
void run_fuzz(const RunConfig& cfg, Report& report);

/// Rewrite and poll every pool entry (corpus kinds under null and cfi,
/// synthetics under null, kCensusPolls polls) and print the entries that
/// fail as the body of known_unsound.inc. Returns the process exit status.
int run_census(const RunConfig& cfg);

}  // namespace perfbench
