#include "serve/engine.h"

#include <chrono>

#include "support/log.h"
#include "zelf/io.h"
#include "zipr/options_codec.h"

namespace zipr::serve {

namespace {
using Clock = std::chrono::steady_clock;

// How many same-options ancestors a miss probes before going cold.
constexpr std::size_t kDeltaCandidates = 8;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}
}  // namespace

const char* source_name(Source s) {
  switch (s) {
    case Source::kCold: return "cold";
    case Source::kCacheHit: return "cache-hit";
    case Source::kDeltaHit: return "delta-hit";
  }
  return "?";
}

ServeEngine::ServeEngine(ServeOptions options)
    : options_(options),
      cache_(options.cache_bytes) {
  if (!options_.cache_file.empty()) {
    // A broken persistence path degrades to a memory-only cache: the
    // service stays correct (and up) either way.
    Status attached = cache_.attach_file(options_.cache_file);
    if (!attached.ok()) {
      ZIPR_WARN << "serve: " << attached.error().message << "; running memory-only";
    }
  }
}

void ServeEngine::clear_cache() { cache_.clear(); }

Result<ServeResponse> ServeEngine::handle(ByteView input, const RewriteOptions& options) {
  Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }

  const std::string canonical = serialize_options(options);
  const CacheKey key = make_cache_key(input, canonical);
  const std::uint64_t odigest = options_digest(options);

  auto respond_from_artifact = [&](const Artifact& a, Source source,
                                   std::size_t changed_pages) {
    ServeResponse resp;
    resp.output = a.output;
    resp.source = source;
    resp.analysis = a.analysis;
    resp.reassembly = a.reassembly;
    resp.instrumentation = a.instrumentation;
    resp.cold_timing = a.cold_timing;
    resp.delta_changed_pages = changed_pages;
    resp.wall_ms = ms_since(start);
    return resp;
  };

  // 1. Full content-addressed hit: byte-identical input under identical
  //    canonical options. O(hash + memcmp + copy).
  if (auto hit = cache_.lookup(key, input)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cache_hits;
    return respond_from_artifact(*hit, Source::kCacheHit, 0);
  }

  // The request missed, so the input gets parsed exactly once here: the
  // parse feeds the text digest (the delta-ancestor bucket) and, if no
  // delta lands, the cold rewrite below.
  auto fail = [&](Error e) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.failures;
    return e;
  };
  auto image = zelf::read_image(input);
  if (!image.ok()) return fail(image.error());
  const std::uint64_t tdigest = text_digest_of(*image);

  // 2. Delta path: probe same-options, same-text ancestors for a
  //    page-level diff the validator can prove equivalent.
  if (options_.enable_delta) {
    bool probed = false;
    for (const CacheKey& ck :
         cache_.recent_keys(odigest, tdigest, kDeltaCandidates)) {
      auto ancestor = cache_.peek(ck);
      if (!ancestor) continue;
      probed = true;
      std::string reason;
      // The pre-parsed overload: `input` was parsed once above; probing N
      // ancestors must not pay N more parses (that made delta probing
      // slower than the cold rewrite it replaces).
      auto delta = try_delta(ancestor->input, ancestor->output, *image, input,
                             options_.delta, &reason);
      if (!delta) continue;
      // Promote the delta result to a first-class artifact so the next
      // byte-identical submission is a full O(copy) hit.
      Artifact promoted = *ancestor;
      promoted.input.assign(input.begin(), input.end());
      promoted.output = delta->output;
      cache_.insert(key, promoted);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.delta_hits;
      }
      ServeResponse resp = respond_from_artifact(promoted, Source::kDeltaHit,
                                                 delta->changed_pages);
      return resp;
    }
    if (probed) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.delta_fallbacks;
    }
  }

  // 3. Cold path. Failures return here WITHOUT touching the cache: caching
  //    an error artifact would poison every retry of this key.
  auto rewritten = rewrite(*image, options);
  if (!rewritten.ok()) return fail(rewritten.error());

  Artifact artifact;
  artifact.input.assign(input.begin(), input.end());
  artifact.output = zelf::write_image(rewritten->image);
  artifact.options_text = canonical;
  artifact.options_digest = odigest;
  artifact.text_digest = tdigest;
  artifact.analysis = rewritten->analysis;
  artifact.reassembly = rewritten->reassembly;
  artifact.instrumentation = rewritten->instrumentation;
  artifact.cold_timing = rewritten->timing;
  ServeResponse resp = respond_from_artifact(artifact, Source::kCold, 0);
  cache_.insert(key, std::move(artifact));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cold;
  }
  return resp;
}

ServeStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServeStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

}  // namespace zipr::serve
