#include "serve/cache.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/log.h"

namespace zipr::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// SplitMix64 finalizer: decorrelates the two key lanes so they are not
/// related by a simple multiplicative factor.
std::uint64_t avalanche(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- persistence format ----
//
// header:  magic "ZIPRACH1" | u32 version | u32 sizeof each stats struct
//          (AnalysisStats, RewriteStats, InstrumentationStats, StageTimes)
// record:  u64 checksum (fnv1a of the payload) | payload
// payload: u64 key.hi | u64 key.lo | u64 options_digest | u64 text_digest
//          | u32 options_len | u32 input_len | u32 output_len
//          | options text | input bytes | output bytes
//          | the four stats structs, memcpy'd
//
// The stats sizes in the header self-invalidate the file across struct
// layout changes: a rebuilt daemon with different stats shapes reads its
// old cache as empty instead of as garbage. Records are replayed only if
// BOTH the checksum matches AND the key recomputed from (options text,
// input bytes) equals the stored key -- the file is never trusted to name
// content it does not actually contain.

constexpr char kPersistMagic[8] = {'Z', 'I', 'P', 'R', 'A', 'C', 'H', '1'};
constexpr std::uint32_t kPersistVersion = 1;

static_assert(std::is_trivially_copyable_v<analysis::AnalysisStats>);
static_assert(std::is_trivially_copyable_v<rewriter::RewriteStats>);
static_assert(std::is_trivially_copyable_v<transform::InstrumentationStats>);
static_assert(std::is_trivially_copyable_v<StageTimes>);

void put_blob(Bytes& b, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const Byte*>(p);
  b.insert(b.end(), bytes, bytes + n);
}

Bytes encode_header() {
  Bytes b;
  put_blob(b, kPersistMagic, sizeof(kPersistMagic));
  put_u32(b, kPersistVersion);
  put_u32(b, static_cast<std::uint32_t>(sizeof(analysis::AnalysisStats)));
  put_u32(b, static_cast<std::uint32_t>(sizeof(rewriter::RewriteStats)));
  put_u32(b, static_cast<std::uint32_t>(sizeof(transform::InstrumentationStats)));
  put_u32(b, static_cast<std::uint32_t>(sizeof(StageTimes)));
  return b;
}

Bytes encode_payload(const CacheKey& key, const Artifact& a) {
  Bytes b;
  put_u64(b, key.hi);
  put_u64(b, key.lo);
  put_u64(b, a.options_digest);
  put_u64(b, a.text_digest);
  put_u32(b, static_cast<std::uint32_t>(a.options_text.size()));
  put_u32(b, static_cast<std::uint32_t>(a.input.size()));
  put_u32(b, static_cast<std::uint32_t>(a.output.size()));
  put_blob(b, a.options_text.data(), a.options_text.size());
  put_blob(b, a.input.data(), a.input.size());
  put_blob(b, a.output.data(), a.output.size());
  put_blob(b, &a.analysis, sizeof(a.analysis));
  put_blob(b, &a.reassembly, sizeof(a.reassembly));
  put_blob(b, &a.instrumentation, sizeof(a.instrumentation));
  put_blob(b, &a.cold_timing, sizeof(a.cold_timing));
  return b;
}

/// Parse one record starting at `*off`. Advances `*off` past it on
/// success; false on truncation, checksum mismatch, or key mismatch --
/// the caller stops replaying there (append-only file: everything past
/// the first bad byte is suspect).
bool decode_record(ByteView file, std::size_t* off, CacheKey* key, Artifact* a) {
  std::size_t o = *off;
  // checksum + fixed fields: 8 + 32 + 12 bytes.
  if (file.size() - o < 52) return false;
  std::uint64_t checksum = get_u64(file, o);
  std::size_t payload_at = o + 8;
  key->hi = get_u64(file, o + 8);
  key->lo = get_u64(file, o + 16);
  a->options_digest = get_u64(file, o + 24);
  a->text_digest = get_u64(file, o + 32);
  std::size_t options_len = get_u32(file, o + 40);
  std::size_t input_len = get_u32(file, o + 44);
  std::size_t output_len = get_u32(file, o + 48);
  std::size_t stats_len = sizeof(a->analysis) + sizeof(a->reassembly) +
                          sizeof(a->instrumentation) + sizeof(a->cold_timing);
  std::size_t payload_len = 44 + options_len + input_len + output_len + stats_len;
  if (file.size() - payload_at < payload_len) return false;
  if (fnv1a(kFnvOffset, file.data() + payload_at, payload_len) != checksum) return false;

  std::size_t p = o + 52;
  a->options_text.assign(reinterpret_cast<const char*>(file.data() + p), options_len);
  p += options_len;
  a->input.assign(file.begin() + static_cast<std::ptrdiff_t>(p),
                  file.begin() + static_cast<std::ptrdiff_t>(p + input_len));
  p += input_len;
  a->output.assign(file.begin() + static_cast<std::ptrdiff_t>(p),
                   file.begin() + static_cast<std::ptrdiff_t>(p + output_len));
  p += output_len;
  std::memcpy(&a->analysis, file.data() + p, sizeof(a->analysis));
  p += sizeof(a->analysis);
  std::memcpy(&a->reassembly, file.data() + p, sizeof(a->reassembly));
  p += sizeof(a->reassembly);
  std::memcpy(&a->instrumentation, file.data() + p, sizeof(a->instrumentation));
  p += sizeof(a->instrumentation);
  std::memcpy(&a->cold_timing, file.data() + p, sizeof(a->cold_timing));
  p += sizeof(a->cold_timing);

  // Content re-verification: the record must name itself. A flipped byte
  // anywhere in (options, input) that survived the checksum -- or a
  // tampered key -- fails here and the record is dropped.
  CacheKey expect = make_cache_key(a->input, a->options_text);
  if (!(expect == *key)) return false;

  *off = p;
  return true;
}

Bytes read_whole_file(std::FILE* f) {
  Bytes data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    data.insert(data.end(), buf, buf + n);
  return data;
}

}  // namespace

CacheKey make_cache_key(ByteView input, std::string_view canonical_options) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, canonical_options.data(), canonical_options.size());
  h = fnv1a(h, "\x1f", 1);  // unambiguous (options, input) boundary
  h = fnv1a(h, input.data(), input.size());
  CacheKey key;
  key.lo = h;
  key.hi = avalanche(h ^ (0x9e3779b97f4a7c15ULL + input.size()));
  return key;
}

std::uint64_t text_digest_of(const zelf::Image& image) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, &image.entry, sizeof(image.entry));
  for (const auto& seg : image.segments) {
    if (!seg.executable()) continue;
    h = fnv1a(h, &seg.vaddr, sizeof(seg.vaddr));
    h = fnv1a(h, seg.bytes.data(), seg.bytes.size());
  }
  return h;
}

std::shared_ptr<const Artifact> ArtifactCache::lookup(const CacheKey& key, ByteView input) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  const Artifact& a = *it->second.artifact;
  if (a.input.size() != input.size() ||
      (!input.empty() && std::memcmp(a.input.data(), input.data(), input.size()) != 0)) {
    ++stats_.misses;
    ++stats_.verify_rejects;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.artifact;
}

void ArtifactCache::insert(const CacheKey& key, Artifact artifact) {
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, std::move(artifact), /*persist=*/true);
}

void ArtifactCache::insert_locked(const CacheKey& key, Artifact artifact, bool persist) {
  std::size_t charge = artifact.charge();
  if (charge > max_bytes_) {
    ++stats_.oversize_skips;
    return;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replace in place (same key => same content in practice; a replace
    // still keeps the byte accounting exact). The file already holds a
    // record for this key -- two clients racing on one new input both
    // insert -- so a replace is not appended again.
    persist = false;
    stats_.bytes -= it->second.artifact->charge();
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  evict_until_fits(charge);
  lru_.push_front(key);
  auto slot = entries_.emplace(key, Slot{std::make_shared<const Artifact>(std::move(artifact)),
                                         lru_.begin()});
  stats_.bytes += charge;
  ++stats_.insertions;
  // Spill AFTER the in-memory insert so the record written is exactly what
  // a hit would serve. attach_file replays with persist=false and then
  // writes the entries that survived eviction itself.
  if (persist) append_record_locked(key, *slot.first->second.artifact);
}

void ArtifactCache::append_record_locked(const CacheKey& key, const Artifact& artifact) {
  if (persist_ == nullptr) return;
  Bytes payload = encode_payload(key, artifact);
  Bytes record;
  put_u64(record, fnv1a(kFnvOffset, payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  if (std::fwrite(record.data(), 1, record.size(), persist_) != record.size() ||
      std::fflush(persist_) != 0) {
    // Disk trouble must not take the service down; keep serving from
    // memory and stop spilling (the file ends at the last good record,
    // which is exactly the state reload recovers).
    ZIPR_WARN << "artifact cache: persist append failed; disabling spill";
    std::fclose(persist_);
    persist_ = nullptr;
  }
}

ArtifactCache::~ArtifactCache() {
  if (persist_ != nullptr) std::fclose(persist_);
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
}

Status ArtifactCache::attach_file(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (persist_ != nullptr) {
    std::fclose(persist_);
    persist_ = nullptr;
  }

  // Replay: collect every record that survives verification, stopping at
  // the first bad byte (append-only file; the tail past damage is suspect).
  std::vector<std::pair<CacheKey, Artifact>> good;
  if (std::FILE* in = std::fopen(path.c_str(), "rb")) {
    Bytes data = read_whole_file(in);
    std::fclose(in);
    const Bytes header = encode_header();
    if (data.size() >= header.size() &&
        std::memcmp(data.data(), header.data(), header.size()) == 0) {
      std::size_t off = header.size();
      CacheKey key;
      Artifact a;
      while (off < data.size() && decode_record(data, &off, &key, &a))
        good.emplace_back(key, std::move(a));
      if (off != data.size()) {
        ZIPR_WARN << "artifact cache: dropping corrupt tail of " << path << " ("
                  << (data.size() - off) << " bytes)";
      }
    } else if (!data.empty()) {
      ZIPR_WARN << "artifact cache: " << path
                << " has a foreign or stale header; starting empty";
    }
  }

  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr)
    return Error::invalid_argument("artifact cache: cannot open " + path + " for writing");
  // Oldest-first replay: later records land at the front of the LRU,
  // reproducing the recency order of the previous run's inserts, and the
  // byte budget evicts what no longer fits.
  for (auto& [key, artifact] : good) insert_locked(key, std::move(artifact), /*persist=*/false);

  // Compact: rewrite the file to exactly the entries the cache kept,
  // oldest first. This truncates corruption and drops superseded
  // duplicates and evicted records, so the file holds no more than the
  // byte budget admits.
  const Bytes header = encode_header();
  if (std::fwrite(header.data(), 1, header.size(), out) != header.size()) {
    std::fclose(out);
    return Error::invalid_argument("artifact cache: cannot write header to " + path);
  }
  persist_ = out;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
    append_record_locked(*it, *entries_.at(*it).artifact);
  if (persist_ != nullptr && std::fflush(persist_) != 0) {
    ZIPR_WARN << "artifact cache: flush of compacted " << path << " failed";
  }
  return Status::success();
}

void ArtifactCache::evict_until_fits(std::size_t incoming) {
  while (!lru_.empty() && stats_.bytes + incoming > max_bytes_) {
    const CacheKey& victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.bytes -= it->second.artifact->charge();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<CacheKey> ArtifactCache::recent_keys(std::uint64_t options_digest,
                                                 std::uint64_t text_digest,
                                                 std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CacheKey> out;
  for (const CacheKey& key : lru_) {
    if (out.size() >= limit) break;
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.artifact->options_digest == options_digest &&
        it->second.artifact->text_digest == text_digest)
      out.push_back(key);
  }
  return out;
}

std::shared_ptr<const Artifact> ArtifactCache::peek(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.artifact;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.max_bytes = max_bytes_;
  return s;
}

std::size_t ArtifactCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace zipr::serve
