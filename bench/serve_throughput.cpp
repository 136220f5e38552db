// Serve-layer timing bench: the 62-CB corpus through a ServeEngine cold,
// then warm (every request a content-addressed cache hit), then through
// the delta path (each CB resubmitted with a perturbed data byte). Before
// the corpus, a cold-start pass serves one large synthetic CB cold on a
// fresh engine (the daemon's first request), then cold again with the
// cache cleared between requests, so only the serving thread's
// RewriteWorkspace stays warm. Exits nonzero when a timing gate fails.
//
// The byte-identity, hit-count and persistence checks on the same
// workloads live in serve_test (ServeCorpus.*).
//
// Usage: serve_throughput
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "bench_util.h"
#include "cgc/generator.h"
#include "serve/engine.h"
#include "zelf/io.h"

namespace {

using namespace zipr;
using namespace zipr::bench;
using Clock = std::chrono::steady_clock;

constexpr double kMinWarmSpeedup = 10.0;
constexpr double kMinSteadySpeedup = 1.5;
constexpr std::size_t kMaxPeakRssKb = 256 * 1024;
constexpr int kColdStartScale = 10;  // ~1 MB synthetic text
constexpr int kSteadyReps = 5;
constexpr int kWarmReps = 3;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The synthetic large binary from the micro suite's BM_RewriteLarge sweep:
/// enough text that the pipeline's transient tables dominate the request,
/// which is the regime per-thread workspaces exist for.
Result<zelf::Image> make_large_image(int scale) {
  cgc::CbSpec spec;
  spec.name = "synthetic-large-x" + std::to_string(scale);
  spec.seed = 99;
  spec.handlers = 24;
  spec.dispatch = cgc::DispatchMode::kFptrTable;
  spec.filler_funcs = 48 * scale;
  spec.filler_ops = 24;
  spec.straightline = 600 * scale;
  spec.scratch_pages = 4;
  spec.data_in_text = true;
  spec.payload_max = 12;
  std::vector<int> payload_len;
  auto src = cgc::generate_cb_source(spec, &payload_len);
  if (!src.ok()) return src.error();
  // Widened segment layout: the rewritten text needs headroom beyond the
  // default 2 MB text/rodata gap at this scale.
  assembler::Options aopts;
  aopts.emit_symbols = false;
  aopts.rodata_base = 0x4000000;
  aopts.data_base = 0x4100000;
  aopts.bss_base = 0x4180000;
  return assembler::assemble(*src, aopts);
}

/// Flip the last byte of the last non-text segment with file bytes: a data
/// perturbation a CI resubmission would make (changed blob, version tag).
Bytes perturb_data(const Bytes& input) {
  auto img = zelf::read_image(input);
  if (!img.ok()) return {};
  zelf::Segment* victim = nullptr;
  for (auto& seg : img->segments)
    if (!seg.executable() && !seg.bytes.empty()) victim = &seg;
  if (victim == nullptr) return {};
  victim->bytes.back() ^= 0x01;
  return zelf::write_image(*img);
}

std::size_t peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss);  // KB on Linux
}

/// Serve every input once; false when a request errors.
bool serve_all(serve::ServeEngine& engine, const std::vector<Bytes>& inputs,
               const RewriteOptions& opts) {
  for (const Bytes& input : inputs)
    if (!engine.handle(input, opts).ok()) return false;
  return true;
}

}  // namespace

int main() {
  RewriteOptions opts;  // the CGC configuration: nearfit, no transforms

  // --- cold-start: first request vs steady-state cold on a warm engine ---
  //
  // Runs FIRST, before the corpus has touched the heap: the first handle()
  // is the true first request of a freshly started daemon (every transient
  // table faulted in from nothing).
  auto big = make_large_image(kColdStartScale);
  if (!big.ok()) {
    std::fprintf(stderr, "large CB generation failed: %s\n", big.error().message.c_str());
    return 1;
  }
  const std::vector<Bytes> big_input = {zelf::write_image(*big)};

  double first_ms = 0;
  double steady_ms = 0;
  {
    serve::ServeEngine cold_engine;
    Clock::time_point t0 = Clock::now();
    if (!serve_all(cold_engine, big_input, opts)) return 1;
    first_ms = ms_since(t0);
    for (int rep = 0; rep < kSteadyReps; ++rep) {
      cold_engine.clear_cache();
      t0 = Clock::now();
      if (!serve_all(cold_engine, big_input, opts)) return 1;
      const double ms = ms_since(t0);
      if (rep == 0 || ms < steady_ms) steady_ms = ms;
    }
  }
  const double steady_speedup = steady_ms > 0 ? first_ms / steady_ms : 0.0;
  std::printf("== cold start: x%d synthetic (%zu B text) ==\n", kColdStartScale,
              big->text().bytes.size());
  std::printf("  first %8.1f ms   steady %8.1f ms   speedup %6.2fx\n", first_ms, steady_ms,
              steady_speedup);

  // The serve layer's unit of exchange is bytes, as a socket client sends.
  std::vector<Bytes> corpus;
  for (const auto& spec : cgc::cfe_corpus()) {
    auto cb = cgc::generate_cb(spec);
    if (!cb.ok()) {
      std::fprintf(stderr, "CB generation failed: %s\n", cb.error().message.c_str());
      return 1;
    }
    corpus.push_back(zelf::write_image(cb->image));
  }
  std::printf("== serve throughput: %zu CBs, cold -> warm x%d -> delta ==\n", corpus.size(),
              kWarmReps);

  serve::ServeEngine engine;
  Clock::time_point t0 = Clock::now();
  if (!serve_all(engine, corpus, opts)) return 1;
  const double cold_ms = ms_since(t0);

  double warm_ms = 0;
  for (int rep = 0; rep < kWarmReps; ++rep) {
    t0 = Clock::now();
    if (!serve_all(engine, corpus, opts)) return 1;
    const double ms = ms_since(t0);
    if (rep == 0 || ms < warm_ms) warm_ms = ms;
  }
  const double warm_speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("  cold %8.1f ms   warm %8.3f ms   speedup %8.1fx\n", cold_ms, warm_ms,
              warm_speedup);

  // Inputs are perturbed before the clock starts: the timed region is
  // engine.handle() only.
  std::vector<Bytes> mutated;
  for (const Bytes& input : corpus) mutated.push_back(perturb_data(input));
  t0 = Clock::now();
  if (!serve_all(engine, mutated, opts)) return 1;
  const double delta_ms = ms_since(t0);
  const auto stats = engine.stats();
  std::printf("  delta: %zu resubmissions -> %llu delta hit(s), %llu cold fallback(s) in "
              "%.1f ms\n",
              mutated.size(), static_cast<unsigned long long>(stats.delta_hits),
              static_cast<unsigned long long>(stats.delta_fallbacks), delta_ms);

  const std::size_t rss_kb = peak_rss_kb();
  std::printf("  peak RSS %zu KB\n\n", rss_kb);

  ClaimChecker claims;
  claims.check(warm_speedup >= kMinWarmSpeedup, "warm >= 10x faster than cold");
  claims.check(steady_speedup >= kMinSteadySpeedup,
               "steady cold >= 1.5x faster than the first request");
  claims.check(delta_ms < cold_ms, "delta pass faster than the cold pass");
  claims.check(rss_kb <= kMaxPeakRssKb, "peak RSS <= 262144 KB");
  return claims.finish();
}
