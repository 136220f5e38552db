// Serve-layer throughput benchmark: the 62-CB corpus through a ServeEngine
// cold, then warm (every request a content-addressed cache hit), then
// through the delta path (each CB resubmitted with a perturbed data byte).
//
// Two experiments bracket the corpus run:
//
//   * cold-start: one large synthetic CB served cold on a fresh engine
//     (the daemon's first request), then served cold again repeatedly with
//     the cache cleared between requests -- so the serving thread's
//     RewriteWorkspace is the only thing that stays warm. The steady/first ratio is the
//     workspace win on repeated cold misses, and every response must be
//     byte-identical whether the workspace is fresh or recycled.
//   * persistence: a corpus slice served through an engine with a cache
//     file, then through a NEW engine on the same file (every request must
//     come back a byte-identical cache hit), then through a third engine
//     after a byte of the file is flipped (corrupt records must degrade to
//     cold fallbacks -- fewer hits, never wrong bytes).
//
// Emits machine-readable JSON (BENCH_serve.json; format documented in
// tools/run_bench.sh) recording cold/warm wall time, the warm speedup, the
// cache hit rate, chained output digests for cold and warm passes (they
// must match: a warm hit is byte-identical or it is a bug), the delta
// experiment's hit/fallback counts with its own byte-identity check
// against direct cold rewrites, the cold-start and persistence results,
// and the process peak RSS.
//
// The delta timed region contains ONLY engine.handle() calls: the inputs
// are perturbed before the clock starts and the byte-identity verification
// (a full direct rewrite per resubmission) runs after it stops, so
// delta.wall_ms is comparable against cold_wall_ms (tools/perf_guard.py
// --serve gates delta.wall_ms < cold_wall_ms).
//
// In-binary gates (exit 1 on violation):
//   * every warm request is a cache hit and its bytes equal the cold pass;
//   * warm throughput is at least kMinWarmSpeedup x cold;
//   * every delta-path response -- hit or cold fallback -- is
//     byte-identical to a direct rewrite of the perturbed input;
//   * a text-byte perturbation is NEVER served from the delta path;
//   * steady-state cold is at least kMinSteadySpeedup x faster than the
//     first request, with byte-identical output (fresh vs recycled
//     workspace, and vs a direct rewrite on a fresh thread);
//   * a restarted engine answers every persisted request as a
//     byte-identical cache hit; after corruption it falls back to cold on
//     the damaged records and still returns byte-identical output.
//
//   serve_throughput [--out=BENCH_serve.json] [--repeats=N]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.h"
#include "cgc/generator.h"
#include "serve/engine.h"
#include "zelf/io.h"
#include "zipr/zipr.h"

namespace {

using namespace zipr;
using Clock = std::chrono::steady_clock;

constexpr double kMinWarmSpeedup = 10.0;
constexpr double kMinSteadySpeedup = 1.5;
constexpr int kColdStartScale = 10;  // ~1 MB synthetic text
constexpr int kSteadyReps = 5;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::uint64_t fnv1a(const Bytes& b, std::uint64_t h) {
  for (Byte c : b) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
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
/// Whether the delta validator accepts it depends on the surrounding
/// bytes -- both outcomes must stay byte-correct, which is what we gate.
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

Bytes perturb_text(const Bytes& input) {
  auto img = zelf::read_image(input);
  if (!img.ok()) return {};
  for (auto& seg : img->segments)
    if (seg.executable() && !seg.bytes.empty()) {
      seg.bytes.back() ^= 0x01;
      return zelf::write_image(*img);
    }
  return {};
}

std::size_t peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss);  // KB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--repeats=", 10) == 0) repeats = std::atoi(argv[i] + 10);
  }
  if (repeats < 1) repeats = 1;

  RewriteOptions opts;  // the CGC configuration: nearfit, no transforms

  serve::ServeOptions sopts;
  sopts.jobs = 1;  // handle() on this thread: pure engine cost, no pool noise

  // --- cold-start: first request vs steady-state cold on a warm engine ---
  //
  // Runs FIRST, before the corpus has touched the heap: the first handle()
  // is the true first request of a freshly started daemon (every transient
  // table faulted in from nothing). The steady passes clear the artifact
  // cache between requests so each one runs the full cold pipeline -- but
  // through the serving thread's recycled workspace.
  auto big = make_large_image(kColdStartScale);
  if (!big.ok()) {
    std::fprintf(stderr, "large CB generation failed: %s\n", big.error().message.c_str());
    return 1;
  }
  Bytes big_input = zelf::write_image(*big);
  std::size_t big_text = big->text().bytes.size();

  double first_ms = 0;
  double steady_ms = 0;
  bool cold_start_identical = true;
  {
    serve::ServeEngine cold_engine(sopts);
    Clock::time_point t0 = Clock::now();
    auto first = cold_engine.handle(big_input, opts);
    first_ms = ms_since(t0);
    if (!first.ok() || first->source != serve::Source::kCold) {
      std::fprintf(stderr, "FAIL: cold-start first request not cold-served\n");
      return 1;
    }
    Bytes first_output = std::move(first->output);

    for (int rep = 0; rep < kSteadyReps; ++rep) {
      cold_engine.clear_cache();
      t0 = Clock::now();
      auto r = cold_engine.handle(big_input, opts);
      double ms = ms_since(t0);
      if (!r.ok() || r->source != serve::Source::kCold) {
        std::fprintf(stderr, "FAIL: cold-start steady request not cold-served\n");
        return 1;
      }
      if (rep == 0 || ms < steady_ms) steady_ms = ms;
      cold_start_identical &= r->output == first_output;
    }

    // Fresh vs recycled must also agree with a direct rewrite on a fresh
    // thread, whose workspace starts empty.
    bool direct_identical = false;
    std::thread([&] {
      auto direct = rewrite(*big, opts);
      direct_identical = direct.ok() && zelf::write_image(direct->image) == first_output;
    }).join();
    cold_start_identical &= direct_identical;
  }
  double steady_speedup = steady_ms > 0 ? first_ms / steady_ms : 0.0;
  std::printf("== cold start: x%d synthetic (%zu B text) ==\n", kColdStartScale, big_text);
  std::printf("  first %8.1f ms   steady %8.1f ms   speedup %6.2fx   bytes %s\n",
              first_ms, steady_ms, steady_speedup,
              cold_start_identical ? "identical" : "DIVERGE");

  // Materialize the corpus as serialized images: the serve layer's unit of
  // exchange is bytes, exactly what a socket client would send.
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
              repeats);

  serve::ServeEngine engine(sopts);

  // --- cold pass ---
  std::uint64_t cold_digest = 0xcbf29ce484222325ULL;
  Clock::time_point t0 = Clock::now();
  std::vector<Bytes> cold_outputs;
  cold_outputs.reserve(corpus.size());
  for (const Bytes& input : corpus) {
    auto r = engine.handle(input, opts);
    if (!r.ok() || r->source != serve::Source::kCold) {
      std::fprintf(stderr, "FAIL: cold pass request not cold-served\n");
      return 1;
    }
    cold_digest = fnv1a(r->output, cold_digest);
    cold_outputs.push_back(std::move(r->output));
  }
  double cold_ms = ms_since(t0);

  // --- warm passes (best of `repeats`): every request must hit ---
  std::uint64_t warm_digest = 0;
  double warm_ms = 0;
  bool warm_identical = true;
  for (int rep = 0; rep < repeats; ++rep) {
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    t0 = Clock::now();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      auto r = engine.handle(corpus[i], opts);
      if (!r.ok() || r->source != serve::Source::kCacheHit) {
        std::fprintf(stderr, "FAIL: warm request %zu missed the cache\n", i);
        return 1;
      }
      warm_identical &= r->output == cold_outputs[i];
      digest = fnv1a(r->output, digest);
    }
    double ms = ms_since(t0);
    if (rep == 0 || ms < warm_ms) warm_ms = ms;
    warm_digest = digest;
  }
  double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  warm_identical &= warm_digest == cold_digest;

  auto after_warm = engine.stats();
  double hit_rate = static_cast<double>(after_warm.cache_hits) /
                    static_cast<double>(repeats * corpus.size());
  std::printf("  cold %8.1f ms   warm %8.3f ms   speedup %8.1fx   hit rate %.3f   "
              "digests %s\n",
              cold_ms, warm_ms, speedup, hit_rate,
              warm_identical ? "identical" : "DIVERGE");

  // --- delta experiment: perturb one data byte per CB and resubmit ---
  //
  // Perturbation happens BEFORE the clock starts and verification AFTER it
  // stops: the timed region is engine.handle() only, so delta_ms measures
  // what the serve layer charges for a resubmission, nothing else.
  std::vector<Bytes> mutated_inputs;
  mutated_inputs.reserve(corpus.size());
  for (const Bytes& input : corpus) {
    Bytes mutated = perturb_data(input);
    if (mutated.empty() || mutated == input) continue;
    mutated_inputs.push_back(std::move(mutated));
  }
  std::vector<serve::ServeResponse> delta_responses;
  delta_responses.reserve(mutated_inputs.size());
  t0 = Clock::now();
  for (const Bytes& mutated : mutated_inputs) {
    auto r = engine.handle(mutated, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: perturbed resubmission errored: %s\n",
                   r.error().message.c_str());
      return 1;
    }
    delta_responses.push_back(std::move(*r));
  }
  double delta_ms = ms_since(t0);

  // Byte-identity against a direct cold rewrite: the delta contract.
  std::size_t delta_attempted = mutated_inputs.size();
  std::size_t delta_hits = 0;
  std::size_t delta_cold = 0;
  bool delta_identical = true;
  for (std::size_t i = 0; i < mutated_inputs.size(); ++i) {
    const serve::ServeResponse& r = delta_responses[i];
    r.source == serve::Source::kDeltaHit ? ++delta_hits : ++delta_cold;
    auto img = zelf::read_image(mutated_inputs[i]);
    auto direct = rewrite(*img, opts);
    if (!direct.ok() || r.output != zelf::write_image(direct->image)) {
      delta_identical = false;
      std::fprintf(stderr, "FAIL: delta-path response diverges from cold rewrite\n");
    }
  }
  std::printf("  delta: %zu resubmissions -> %zu delta hit(s), %zu cold fallback(s) in "
              "%.1f ms; bytes %s\n",
              delta_attempted, delta_hits, delta_cold, delta_ms,
              delta_identical ? "identical to cold" : "DIVERGE");

  // --- text perturbation must NEVER ride the delta path ---
  bool text_never_delta = true;
  for (std::size_t i = 0; i < corpus.size(); i += 8) {
    Bytes mutated = perturb_text(corpus[i]);
    if (mutated.empty()) continue;
    auto r = engine.handle(mutated, opts);
    // A broken text byte may legitimately fail to rewrite; what it may
    // never do is come back stamped delta-hit.
    if (r.ok() && r->source == serve::Source::kDeltaHit) text_never_delta = false;
  }
  std::printf("  text perturbations served from delta path: %s\n",
              text_never_delta ? "none (correct)" : "YES (BUG)");

  // --- persistence: cache file survives an engine restart ---
  //
  // A corpus slice goes through engine A (writes the cache file), then a
  // NEW engine B on the same file: every request must come back a cache
  // hit with the cold pass's exact bytes. Then a byte in the middle of the
  // file is flipped and engine C attaches: the damaged records (and the
  // tail behind them, since replay stops at the first bad record) degrade
  // to cold fallbacks -- a smaller cache, never a wrong answer.
  std::string cache_path = out_path + ".cache";
  std::remove(cache_path.c_str());
  std::vector<std::size_t> slice;
  for (std::size_t i = 0; i < corpus.size(); i += 4) slice.push_back(i);

  serve::ServeOptions popts = sopts;
  popts.cache_file = cache_path;
  std::size_t restart_hits = 0;
  bool restart_identical = true;
  std::size_t corrupt_cold = 0;
  bool corrupt_identical = true;
  {
    serve::ServeEngine a(popts);
    for (std::size_t i : slice) {
      auto r = a.handle(corpus[i], opts);
      if (!r.ok() || r->source != serve::Source::kCold) {
        std::fprintf(stderr, "FAIL: persistence warm-up request not cold-served\n");
        return 1;
      }
      restart_identical &= r->output == cold_outputs[i];
    }
  }
  {
    serve::ServeEngine b(popts);  // fresh engine, same file
    for (std::size_t i : slice) {
      auto r = b.handle(corpus[i], opts);
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: post-restart request errored\n");
        return 1;
      }
      if (r->source == serve::Source::kCacheHit) ++restart_hits;
      restart_identical &= r->output == cold_outputs[i];
    }
  }
  // Flip one byte in the middle of the cache file.
  if (std::FILE* cf = std::fopen(cache_path.c_str(), "r+b")) {
    std::fseek(cf, 0, SEEK_END);
    long size = std::ftell(cf);
    std::fseek(cf, size / 2, SEEK_SET);
    int c = std::fgetc(cf);
    std::fseek(cf, size / 2, SEEK_SET);
    std::fputc(c ^ 0x01, cf);
    std::fclose(cf);
  } else {
    std::fprintf(stderr, "FAIL: cache file %s was never written\n", cache_path.c_str());
    return 1;
  }
  {
    serve::ServeEngine c(popts);  // attaches the corrupted file
    for (std::size_t i : slice) {
      auto r = c.handle(corpus[i], opts);
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL: post-corruption request errored\n");
        return 1;
      }
      if (r->source == serve::Source::kCold) ++corrupt_cold;
      corrupt_identical &= r->output == cold_outputs[i];
    }
  }
  std::remove(cache_path.c_str());
  std::printf("  persist: %zu/%zu restart hit(s), %zu cold fallback(s) after corruption; "
              "bytes %s\n",
              restart_hits, slice.size(), corrupt_cold,
              restart_identical && corrupt_identical ? "identical" : "DIVERGE");

  std::size_t rss_kb = peak_rss_kb();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  auto stats = engine.stats();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_throughput\",\n");
  std::fprintf(f, "  \"corpus_size\": %zu,\n", corpus.size());
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"cold_wall_ms\": %.3f,\n", cold_ms);
  std::fprintf(f, "  \"warm_wall_ms\": %.3f,\n", warm_ms);
  std::fprintf(f, "  \"warm_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"min_warm_speedup\": %.1f,\n", kMinWarmSpeedup);
  std::fprintf(f, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "  \"min_cache_hit_rate\": 1.0,\n");
  std::fprintf(f, "  \"outputs_identical\": %s,\n", warm_identical ? "true" : "false");
  std::fprintf(f, "  \"cold_digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(cold_digest));
  std::fprintf(f, "  \"warm_digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(warm_digest));
  std::fprintf(f, "  \"cold_start\": {\n");
  std::fprintf(f, "    \"scale\": %d,\n", kColdStartScale);
  std::fprintf(f, "    \"text_bytes\": %zu,\n", big_text);
  std::fprintf(f, "    \"first_request_wall_ms\": %.3f,\n", first_ms);
  std::fprintf(f, "    \"steady_wall_ms\": %.3f,\n", steady_ms);
  std::fprintf(f, "    \"steady_speedup\": %.3f,\n", steady_speedup);
  std::fprintf(f, "    \"min_steady_speedup\": %.2f,\n", kMinSteadySpeedup);
  std::fprintf(f, "    \"outputs_identical\": %s\n",
               cold_start_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"delta\": {\n");
  std::fprintf(f, "    \"attempted\": %zu,\n", delta_attempted);
  std::fprintf(f, "    \"hits\": %zu,\n", delta_hits);
  std::fprintf(f, "    \"min_hits\": 10,\n");
  std::fprintf(f, "    \"cold_fallbacks\": %zu,\n", delta_cold);
  std::fprintf(f, "    \"wall_ms\": %.3f,\n", delta_ms);
  std::fprintf(f, "    \"outputs_identical\": %s,\n", delta_identical ? "true" : "false");
  std::fprintf(f, "    \"text_never_delta\": %s\n", text_never_delta ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"persist\": {\n");
  std::fprintf(f, "    \"requests\": %zu,\n", slice.size());
  std::fprintf(f, "    \"restart_hits\": %zu,\n", restart_hits);
  std::fprintf(f, "    \"restart_identical\": %s,\n", restart_identical ? "true" : "false");
  std::fprintf(f, "    \"corrupt_cold_fallbacks\": %zu,\n", corrupt_cold);
  std::fprintf(f, "    \"corrupt_fallback_identical\": %s\n",
               corrupt_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"peak_rss_kb\": %zu,\n", rss_kb);
  std::fprintf(f, "  \"max_peak_rss_kb\": %d,\n", 256 * 1024);
  std::fprintf(f, "  \"engine\": {\"requests\": %llu, \"cold\": %llu, \"cache_hits\": %llu, "
               "\"delta_hits\": %llu, \"delta_fallbacks\": %llu, \"failures\": %llu,\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.cold),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.delta_hits),
               static_cast<unsigned long long>(stats.delta_fallbacks),
               static_cast<unsigned long long>(stats.failures));
  std::fprintf(f, "             \"cache_bytes\": %zu, \"cache_evictions\": %llu}\n",
               stats.cache.bytes, static_cast<unsigned long long>(stats.cache.evictions));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (peak RSS %zu KB)\n", out_path.c_str(), rss_kb);

  // Correctness + throughput gates.
  int failures = 0;
  if (!warm_identical) {
    std::fprintf(stderr, "FAIL: warm outputs not byte-identical to cold\n");
    ++failures;
  }
  if (hit_rate < 1.0) {
    std::fprintf(stderr, "FAIL: cache hit rate %.4f < 1.0 on repeat submissions\n", hit_rate);
    ++failures;
  }
  if (speedup < kMinWarmSpeedup) {
    std::fprintf(stderr, "FAIL: warm speedup %.1fx below the %.0fx floor\n", speedup,
                 kMinWarmSpeedup);
    ++failures;
  }
  if (!delta_identical) ++failures;
  if (!text_never_delta) ++failures;
  if (!cold_start_identical) {
    std::fprintf(stderr, "FAIL: cold-start outputs diverge (fresh vs recycled workspace)\n");
    ++failures;
  }
  if (steady_speedup < kMinSteadySpeedup) {
    std::fprintf(stderr, "FAIL: steady-state cold speedup %.2fx below the %.1fx floor\n",
                 steady_speedup, kMinSteadySpeedup);
    ++failures;
  }
  if (restart_hits != slice.size()) {
    std::fprintf(stderr, "FAIL: only %zu/%zu requests hit after engine restart\n",
                 restart_hits, slice.size());
    ++failures;
  }
  if (!restart_identical) {
    std::fprintf(stderr, "FAIL: restarted-engine responses not byte-identical\n");
    ++failures;
  }
  if (corrupt_cold == 0) {
    std::fprintf(stderr, "FAIL: corrupted cache file produced no cold fallbacks "
                 "(corruption never reached the replay path)\n");
    ++failures;
  }
  if (!corrupt_identical) {
    std::fprintf(stderr, "FAIL: post-corruption responses not byte-identical\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
