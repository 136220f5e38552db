// Content-addressed artifact cache for the rewrite service.
//
// Key = 128-bit digest of (canonical RewriteOptions text || input ZELF
// bytes). Value = the rewritten output bytes plus the stats the cold
// rewrite produced, so a warm hit reports exactly what the cold path
// reported. Two hardening properties the serve layer depends on:
//
//   * no hash trust: lookup() re-verifies the stored input bytes against
//     the request's input, so even a 128-bit collision degrades to a miss,
//     never to serving another binary's artifact;
//   * bounded memory: entries are LRU-evicted by TOTAL BYTES held (input +
//     output + bookkeeping), not entry count, so one huge binary cannot
//     silently blow the budget that a thousand small ones respect.
//
// The cache stores successful rewrites only -- the serve engine never
// inserts failures (see ServeEngine::handle), so a transient error can
// never poison future requests.
#pragma once

#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "zipr/zipr.h"

namespace zipr::serve {

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Digest of (canonical options text, input bytes): the cache address.
CacheKey make_cache_key(ByteView input, std::string_view canonical_options);

/// Digest of a parsed image's entry point plus the bytes (and vaddr) of its
/// executable segments: the delta path's ancestor-bucket id. Inputs whose
/// text differs can never pass the delta validator, so probing is
/// restricted to same-text ancestors.
std::uint64_t text_digest_of(const zelf::Image& image);

/// One cached rewrite: everything needed to answer a repeat request and to
/// serve as a delta ancestor for a near-identical one.
struct Artifact {
  Bytes input;    ///< exact request bytes (collision check + delta diffing)
  Bytes output;   ///< serialized rewritten image (zelf::write_image form)
  /// Canonical RewriteOptions text the artifact was produced under. Stored
  /// so a persisted record can re-derive -- and therefore re-VERIFY -- its
  /// cache key from content on load instead of trusting the file.
  std::string options_text;
  std::uint64_t options_digest = 0;  ///< delta-ancestor bucket id
  /// Digest of the input's entry point and text-segment bytes (see
  /// text_digest_of). A data-only resubmission -- the delta workload --
  /// keeps its text identical, so delta-ancestor probing matches on this
  /// instead of hoping the ancestor is recent.
  std::uint64_t text_digest = 0;

  // Stats of the cold rewrite that produced `output`; replayed on hits.
  analysis::AnalysisStats analysis;
  rewriter::RewriteStats reassembly;
  transform::InstrumentationStats instrumentation;
  StageTimes cold_timing;

  std::size_t charge() const {
    return input.size() + output.size() + options_text.size() + 256;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversize_skips = 0;  ///< artifact alone exceeded the budget
  std::uint64_t verify_rejects = 0;  ///< key matched, stored input did not
  std::size_t bytes = 0;             ///< currently charged bytes
  std::size_t max_bytes = 0;
};

class ArtifactCache {
 public:
  /// `max_bytes` bounds the sum of Artifact::charge() across entries.
  explicit ArtifactCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Attach a persistence file: replay its surviving records into the
  /// cache (each re-verified -- checksum AND a key recomputed from the
  /// stored options text + input bytes -- so a corrupted or tampered file
  /// degrades to a smaller cache, never to a wrong answer), compact it to
  /// exactly the entries the byte budget keeps, then append every future
  /// insert() to it. A missing file starts empty; an unwritable path is the
  /// only error.
  Status attach_file(const std::string& path);

  /// Drop every in-memory entry (hit/miss counters survive; the attached
  /// persistence file is NOT touched -- benchmarks use this to force cold
  /// paths without forgetting the on-disk state).
  void clear();

  /// Hit iff the key is present AND the stored input bytes equal `input`
  /// (content addressing verified, not assumed). Bumps recency.
  std::shared_ptr<const Artifact> lookup(const CacheKey& key, ByteView input);

  /// Insert (or replace) the artifact, evicting least-recently-used
  /// entries until the byte budget holds. An artifact that alone exceeds
  /// the budget is skipped (counted), never inserted half-evicted.
  void insert(const CacheKey& key, Artifact artifact);

  /// Most-recently-used keys whose artifact was produced under the same
  /// canonical options AND from an input with the same entry/text bytes
  /// (delta-ancestor candidates), capped at `limit`.
  std::vector<CacheKey> recent_keys(std::uint64_t options_digest, std::uint64_t text_digest,
                                    std::size_t limit) const;

  /// Entry by key with no input verification and no recency bump; used by
  /// the delta path to inspect ancestor candidates.
  std::shared_ptr<const Artifact> peek(const CacheKey& key) const;

  CacheStats stats() const;
  std::size_t entry_count() const;

 private:
  void evict_until_fits(std::size_t incoming);            // callers hold mu_
  void insert_locked(const CacheKey& key, Artifact artifact, bool persist);
  void append_record_locked(const CacheKey& key, const Artifact& artifact);

  struct Slot {
    std::shared_ptr<const Artifact> artifact;
    std::list<CacheKey>::iterator lru_it;
  };

  mutable std::mutex mu_;
  std::size_t max_bytes_;
  std::list<CacheKey> lru_;  ///< front = most recent
  std::unordered_map<CacheKey, Slot, CacheKeyHash> entries_;
  CacheStats stats_;
  std::FILE* persist_ = nullptr;  ///< append handle; null = memory-only
};

}  // namespace zipr::serve
