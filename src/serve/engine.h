// ServeEngine: the rewriter as a long-running service.
//
// One engine owns the artifact cache; requests enter through handle(), on
// the calling thread. handle() is thread-safe, so the socket server calls
// it from every acceptor at once. Request flow:
//
//   digest(input x canonical options) --> cache hit?   O(memcmp + copy)
//                                     --> delta hit?   O(page diff)
//                                     --> cold rewrite, cache on SUCCESS
//
// Failure paths never touch the cache: a malformed input or failing
// transform yields an error response and leaves the cache exactly as it
// was, so a retry after a transient condition re-runs cold (tested).
#pragma once

#include <mutex>

#include "serve/cache.h"
#include "serve/delta.h"
#include "zipr/zipr.h"

namespace zipr::serve {

struct ServeOptions {
  /// Connections serve_on_socket() serves at once; <= 0 means hardware
  /// concurrency.
  int jobs = 0;
  /// Artifact-cache budget (input + output bytes across entries).
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Delta path on/off plus its page threshold.
  bool enable_delta = true;
  DeltaOptions delta;
  /// Artifact-cache persistence file. Non-empty: previously cached
  /// artifacts are replayed (re-verified) at startup and every new insert
  /// is appended, so a restarted daemon answers repeat requests as
  /// byte-identical cache hits. Empty: memory-only.
  std::string cache_file;
};

enum class Source : std::uint8_t {
  kCold = 0,      ///< full pipeline ran
  kCacheHit = 1,  ///< byte-for-byte repeat served from the cache
  kDeltaHit = 2,  ///< derived from a near-identical cached ancestor
};

const char* source_name(Source s);

struct ServeResponse {
  Bytes output;  ///< serialized rewritten image
  Source source = Source::kCold;

  /// Stats of the rewrite that produced these bytes. For kCacheHit and
  /// kDeltaHit these replay the ORIGINAL cold rewrite's stats (cached with
  /// the artifact), so clients see consistent numbers either way.
  analysis::AnalysisStats analysis;
  rewriter::RewriteStats reassembly;
  transform::InstrumentationStats instrumentation;
  StageTimes cold_timing;

  double wall_ms = 0;  ///< time THIS request took inside the engine
  std::size_t delta_changed_pages = 0;  ///< kDeltaHit only
};

struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t cold = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t delta_hits = 0;
  std::uint64_t delta_fallbacks = 0;  ///< candidates probed, all refused
  std::uint64_t failures = 0;
  CacheStats cache;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Serve one request on the calling thread; safe to call concurrently.
  Result<ServeResponse> handle(ByteView input, const RewriteOptions& options);

  /// Drop every in-memory cache entry (the persistence file, if any, is
  /// untouched). Benchmarks use this to re-run the cold path on a warm
  /// process.
  void clear_cache();

  ServeStats stats() const;
  const ServeOptions& options() const { return options_; }

 private:
  ServeOptions options_;
  ArtifactCache cache_;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace zipr::serve
