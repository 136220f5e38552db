// Shared pieces of zipr_perfbench: timing and percentile helpers,
// result accounting, the counting log sink, input generators, and the span
// recorder used by traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cgc/generator.h"
#include "cgc/poller.h"
#include "zipr/zipr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);
double seconds_since(Clock::time_point t0);

/// Median of `v` (copied; empty gives 0).
double median(std::vector<double> v);

/// The nearest-rank `pct`th percentile of `v` (copied; empty gives 0). Each
/// workload fixes its tail percentile, so a faster run is compared at the
/// same percentile as a slower one.
double percentile(std::vector<double> v, double pct);

/// Geometric mean of ratios, minus 1 (the overhead convention of the
/// paper's Figs. 4-6 aggregated so one outlier cannot dominate).
double geomean_overhead(const std::vector<double>& ratios);

/// FNV-1a over bytes.
std::uint64_t digest(zipr::ByteView bytes, std::uint64_t h = 1469598103934665603ull);

/// Process peak resident set size in MB.
double peak_rss_mb();

/// Checks made by a workload: every timed output is verified after the
/// clock stops, and each verification either passes or counts as failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failed_by_kind;
  /// Count one check; records `kind` (and prints the first few) on failure.
  void check(bool ok, const std::string& kind, const std::string& what = {});
};

/// Metrics of one run, printed as the final JSON line. Values keep every
/// digit measured.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Log sink counting WARN lines instead of printing them; installed for
/// every run with the level left at its default, so the pipeline still
/// formats each line exactly as it would for stderr.
class WarnCounter {
 public:
  WarnCounter();
  ~WarnCounter();
  WarnCounter(const WarnCounter&) = delete;
  WarnCounter& operator=(const WarnCounter&) = delete;
  std::uint64_t lines() const { return lines_.load(); }

 private:
  std::atomic<std::uint64_t> lines_{0};
};

// ---- inputs ----
//
// Every generated input is an entry of a finite pool. A pool's kind is a
// cfe_corpus() spec name ("cb_062", structure unchanged) or a synthetic
// scale of the BM_RewriteLarge generator ("x10"); entry k of a kind has the
// generator seed pool_seed(kind, k) and polls seeded from that. A workload
// seed only chooses entries, so the whole set of inputs any seed can draw is
// finite and known. `zipr_perfbench --census` rewrites and polls every
// entry; the entries the seed code mishandled are committed in
// known_unsound.inc, and a draw that lands on one of those steps to the next
// entry without running the rewriter. Every other entry is expected to
// rewrite and poll cleanly: a failure there is a failed check.

constexpr std::uint64_t kPoolSize = 64;
/// Polls per input in the census: at least as many as any workload runs
/// (make_polls' polls for a smaller count are a prefix of these).
constexpr int kCensusPolls = 8;
/// Synthetic scales any workload draws.
constexpr int kSyntheticScales[] = {1, 2, 3, 4, 10, 50};

/// The cfe_corpus() specs, in corpus order.
const std::vector<zipr::cgc::CbSpec>& corpus_specs();
std::string synthetic_kind(int scale);

std::uint64_t pool_seed(const std::string& kind, std::uint64_t index);
bool known_unsound(const std::string& kind, std::uint64_t index);

/// Entry `draw % kPoolSize` of `kind`, stepped forward past known-unsound
/// entries and those in `taken`. Each known-unsound entry stepped over is
/// appended to `skipped` as "kind#index".
std::uint64_t pick_entry(const std::string& kind, std::uint64_t draw,
                         const std::vector<std::uint64_t>& taken,
                         std::vector<std::string>& skipped);

/// The large synthetic binary of the micro suite's BM_RewriteLarge sweep
/// (x1 ~106 KB of text, x50 ~5 MB), with its generator seed set.
zipr::Result<zipr::cgc::CbProgram> make_synthetic(int scale, std::uint64_t seed);

/// A generated program plus its golden poll runs on the original.
struct Subject {
  std::string name;  ///< "kind#index"
  zipr::cgc::CbProgram program;
  std::vector<zipr::cgc::Poll> polls;
  std::vector<zipr::vm::RunResult> golden;  ///< original image on each poll
  std::size_t text_bytes = 0;
};
/// Pool entry `index` of `kind` with `polls` golden poll runs. Exits with
/// status 2 when the generator itself fails (a broken benchmark input, not
/// a rewriter failure).
Subject pool_subject(const std::string& kind, std::uint64_t index, int polls);

/// Rewritten/original ratios of one output under the subject's polls.
struct PollOutcome {
  bool functional = false;
  double file_ratio = 0;
  double exec_ratio = 0;  ///< instructions retired, summed over polls
  double mem_ratio = 0;   ///< max pages touched, summed over polls
  std::uint64_t insns = 0;  ///< retired by both images over all polls
};
PollOutcome poll_check(const Subject& s, const zipr::zelf::Image& rewritten);

// ---- spans (traced runs only) ----

/// In-memory span recorder: each span is (name, start, end, parent, request
/// id). Spans are recorded by zipr_perfbench around public library calls,
/// all on one thread; written once at exit as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;          ///< index into spans(), -1 for a root
    std::uint64_t request = 0;
    bool shadow = false;      ///< re-invoked outside the pipeline
  };

  Tracer() : t0_(Clock::now()) {}

  /// Open a span under the innermost open span.
  int open(const std::string& name, std::uint64_t request, bool shadow = false);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus child coverage) summed per span name, ms.
  std::map<std::string, double> self_ms() const;
  /// Total duration per span name, ms.
  std::map<std::string, double> total_ms() const;
  /// Durations of every span called `name`, ms.
  std::vector<double> durations_ms(const std::string& name) const;

  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< open spans, innermost last
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, std::uint64_t request = 0, bool shadow = false)
      : t_(t), id_(t_->open(name, request, shadow)) {}
  ~Scope() { t_->close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
