// Shared helpers for the figure-reproduction benchmarks: corpus
// evaluation under named configurations and paper-style text rendering
// (histograms, bar rows, PASS/FAIL claim checks).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "cgc/metrics.h"

namespace zipr::bench {

struct Config {
  std::string label;           // "zipr" (Null baseline) or "zipr+cfi"
  RewriteOptions rewrite;
};

inline Config baseline_config() {
  Config c;
  c.label = "zipr";
  return c;
}

inline Config cfi_config() {
  Config c;
  c.label = "zipr+cfi";
  c.rewrite.transforms = {"cfi"};
  return c;
}

/// Evaluate the 62-CB corpus under one configuration. The corpus fans out
/// over batch::parallel_for (jobs <= 0 = hardware concurrency, 1 =
/// serial); results are deterministic and order-preserving either way, so
/// every figure is identical whichever job count ran it.
inline std::vector<cgc::CbMetrics> evaluate(const Config& config, int polls = 8, int jobs = 0) {
  cgc::EvalOptions opts;
  opts.rewrite = config.rewrite;
  opts.polls = polls;
  opts.jobs = jobs;
  auto r = cgc::evaluate_corpus(cgc::cfe_corpus(), opts);
  if (!r.ok()) {
    std::fprintf(stderr, "corpus evaluation failed: %s\n", r.error().message.c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

/// Render one histogram row: label, count, and a proportional bar.
inline void print_histogram(const char* title, const cgc::Histogram& h, std::size_t total) {
  std::printf("  %s\n", title);
  for (int b = 0; b < cgc::kHistogramBins; ++b) {
    std::printf("    %-7s %3d  ", cgc::kHistogramLabels[b], h.counts[b]);
    int bar = total == 0 ? 0 : static_cast<int>(60.0 * h.counts[b] / static_cast<double>(total));
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }
}

inline cgc::Histogram histogram_of(const std::vector<cgc::CbMetrics>& ms,
                                   double cgc::CbMetrics::*field) {
  cgc::Histogram h;
  for (const auto& m : ms) h.add(m.*field);
  return h;
}

inline int count_functional(const std::vector<cgc::CbMetrics>& ms) {
  int n = 0;
  for (const auto& m : ms) n += m.functional ? 1 : 0;
  return n;
}

struct ClaimChecker {
  int failed = 0;
  void check(bool ok, const std::string& claim) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
    if (!ok) ++failed;
  }
  int finish() const {
    std::printf("\n%s\n", failed == 0 ? "All claims hold." : "Some claims FAILED.");
    return failed == 0 ? 0 : 1;
  }
};

}  // namespace zipr::bench
