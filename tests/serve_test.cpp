// Tests for the zipr-serve layer: canonical options codec (cache-key
// completeness), the content-addressed artifact cache (LRU-by-bytes,
// input verification), the delta path (byte-identical or refused, never
// divergent), the serve engine's hit/miss/failure accounting, and the
// Unix-socket front end. The concurrency tests here are part of the TSan
// workload (`make tsan_smoke`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>

#include "batch/worker_pool.h"
#include "cgc/generator.h"
#include "serve/cache.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/socket.h"
#include "testing_util.h"
#include "transform/api.h"
#include "zelf/io.h"
#include "zipr/options_codec.h"

namespace zipr {
namespace {

using serve::Artifact;
using serve::ArtifactCache;
using serve::CacheKey;
using serve::make_cache_key;
using serve::ServeEngine;
using serve::ServeOptions;
using serve::ServeResponse;
using serve::Source;
using ::zipr::testing::must_assemble;
using ::zipr::testing::must_rewrite;

// A program with a text segment plus rodata AND data payloads, so the
// delta tests have non-text pages to perturb.
constexpr const char* kDataProgram = R"(
.entry main
.text
main:
  movi r4, greet
  callr r4
  movi r0, 1
  movi r1, 0
  syscall
greet:
  movi r0, 2
  movi r1, 1
  movi r2, msg
  movi r3, 3
  syscall
  ret
.rodata
msg: .ascii "ok."
blob: .ascii "build-id: 0123456789abcdef"
.data
counters: .quad 0
tag: .ascii "version-A"
)";

Bytes assemble_bytes(std::string_view src) {
  return zelf::write_image(must_assemble(src));
}

Bytes cold_reference(ByteView input, const RewriteOptions& opts) {
  auto img = zelf::read_image(input);
  EXPECT_TRUE(img.ok());
  return ::zipr::testing::cold_rewrite_bytes(*img, opts);
}

// ---- options codec: cache-key completeness (satellite #1) ----

RewriteOptions all_fields_non_default() {
  RewriteOptions o;
  o.analysis.traversal.max_jump_table_slots = 17;
  o.analysis.traversal.scan_data_for_pointers = false;
  o.analysis.pinning.pin_call_returns = true;
  o.analysis.pinning.naive_pin_all = true;
  o.analysis.pinning.extra_pin_fraction = 0.375;
  o.analysis.pinning.extra_pin_seed = 99;
  o.placement = rewriter::PlacementKind::kDiversity;
  o.seed = 0xdeadbeefcafe;
  o.prefer_short_refs = false;
  o.coalesce = true;
  o.transforms = {"cfi", "stackpad"};
  o.cov_prune = false;
  return o;
}

TEST(OptionsCodec, RoundTripsEveryFieldNonDefault) {
  RewriteOptions o = all_fields_non_default();
  std::string text = serialize_options(o);

  auto parsed = parse_options(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(serialize_options(*parsed), text) << "round trip is not a fixpoint";

  EXPECT_EQ(parsed->analysis.traversal.max_jump_table_slots, 17u);
  EXPECT_FALSE(parsed->analysis.traversal.scan_data_for_pointers);
  EXPECT_TRUE(parsed->analysis.pinning.pin_call_returns);
  EXPECT_TRUE(parsed->analysis.pinning.naive_pin_all);
  EXPECT_DOUBLE_EQ(parsed->analysis.pinning.extra_pin_fraction, 0.375);
  EXPECT_EQ(parsed->analysis.pinning.extra_pin_seed, 99u);
  EXPECT_EQ(parsed->placement, rewriter::PlacementKind::kDiversity);
  EXPECT_EQ(parsed->seed, 0xdeadbeefcafeull);
  ASSERT_TRUE(parsed->prefer_short_refs.has_value());
  EXPECT_FALSE(*parsed->prefer_short_refs);
  ASSERT_TRUE(parsed->coalesce.has_value());
  EXPECT_TRUE(*parsed->coalesce);
  EXPECT_EQ(parsed->transforms, (std::vector<std::string>{"cfi", "stackpad"}));
  EXPECT_FALSE(parsed->cov_prune);
}

TEST(OptionsCodec, DefaultOptionsRoundTrip) {
  RewriteOptions o;
  auto parsed = parse_options(serialize_options(o));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(serialize_options(*parsed), serialize_options(o));
}

// Reflection checklist: every leaf option field must perturb the canonical
// form (and therefore the cache key). The mutator count below is pinned to
// the compile-time field count that options_codec.cpp static_asserts, so a
// newly added option fails BOTH the build (until serialized) and this list
// (until covered here).
TEST(OptionsCodec, EveryFieldChangesTheCanonicalForm) {
  using Mutator = void (*)(RewriteOptions&);
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"max_jump_table_slots",
       [](RewriteOptions& o) { o.analysis.traversal.max_jump_table_slots = 5; }},
      {"scan_data_for_pointers",
       [](RewriteOptions& o) { o.analysis.traversal.scan_data_for_pointers = false; }},
      {"pin_call_returns",
       [](RewriteOptions& o) { o.analysis.pinning.pin_call_returns = true; }},
      {"naive_pin_all", [](RewriteOptions& o) { o.analysis.pinning.naive_pin_all = true; }},
      {"extra_pin_fraction",
       [](RewriteOptions& o) { o.analysis.pinning.extra_pin_fraction = 0.25; }},
      {"extra_pin_seed", [](RewriteOptions& o) { o.analysis.pinning.extra_pin_seed = 7; }},
      {"placement",
       [](RewriteOptions& o) { o.placement = rewriter::PlacementKind::kPinPage; }},
      {"seed", [](RewriteOptions& o) { o.seed = 424242; }},
      {"prefer_short_refs", [](RewriteOptions& o) { o.prefer_short_refs = true; }},
      {"coalesce", [](RewriteOptions& o) { o.coalesce = false; }},
      {"transforms", [](RewriteOptions& o) { o.transforms = {"cfi"}; }},
      {"cov_prune", [](RewriteOptions& o) { o.cov_prune = false; }},
  };

  // One mutator per flattened leaf field (the codec's compile-time count).
  constexpr std::size_t kLeaves =
      codec_detail::field_count<analysis::TraversalOptions>() +
      codec_detail::field_count<analysis::PinningOptions>() +
      (codec_detail::field_count<RewriteOptions>() -
       1 /* analysis replaced by its leaves */ +
       codec_detail::field_count<analysis::AnalysisOptions>() - 2);
  static_assert(codec_detail::field_count<analysis::AnalysisOptions>() == 2);
  EXPECT_EQ(mutators.size(), kLeaves)
      << "RewriteOptions gained/lost a leaf field; update this checklist";

  const std::string base = serialize_options(RewriteOptions{});
  for (const auto& [name, mutate] : mutators) {
    RewriteOptions o;
    mutate(o);
    EXPECT_NE(serialize_options(o), base)
        << "field '" << name << "' does not reach the canonical form "
        << "(cache keys would alias across configs)";
  }
}

TEST(OptionsCodec, RejectsMalformedTextWithOffendingInput) {
  for (const char* bad :
       {"", "nonsense", "zopt2;", "zopt1;jts=banana;", "zopt1;jts=1"}) {
    auto r = parse_options(bad);
    EXPECT_FALSE(r.ok()) << "accepted: '" << bad << "'";
  }
  // Trailing garbage after a valid form is rejected, with the garbage named.
  std::string valid = serialize_options(RewriteOptions{});
  auto r = parse_options(valid + "XTRA");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("XTRA"), std::string::npos) << r.error().message;

  auto bad_num = parse_options("zopt1;jts=banana;");
  ASSERT_FALSE(bad_num.ok());
  EXPECT_NE(bad_num.error().message.find("banana"), std::string::npos)
      << bad_num.error().message;
}

TEST(OptionsCodec, DigestSeparatesOptionSets) {
  EXPECT_NE(options_digest(RewriteOptions{}), options_digest(all_fields_non_default()));
  EXPECT_EQ(options_digest(RewriteOptions{}), options_digest(RewriteOptions{}));
}

// ---- artifact cache ----

Artifact tiny_artifact(std::string tag, std::size_t pad = 0) {
  Artifact a;
  a.input.assign(tag.begin(), tag.end());
  a.output.assign(pad, 0xAB);
  return a;
}

TEST(ArtifactCache, KeyDependsOnInputAndOptions) {
  Bytes in1 = {1, 2, 3};
  Bytes in2 = {1, 2, 4};
  EXPECT_EQ(make_cache_key(in1, "opts"), make_cache_key(in1, "opts"));
  EXPECT_NE(make_cache_key(in1, "opts"), make_cache_key(in2, "opts"));
  EXPECT_NE(make_cache_key(in1, "opts"), make_cache_key(in1, "stpo"));
}

TEST(ArtifactCache, LookupVerifiesStoredInputBytes) {
  ArtifactCache cache(1 << 20);
  Bytes real = {1, 2, 3};
  CacheKey key = make_cache_key(real, "o");
  cache.insert(key, tiny_artifact("\x01\x02\x03"));

  EXPECT_NE(cache.lookup(key, real), nullptr);
  // Same key, different bytes (simulated collision): must MISS, not serve.
  Bytes impostor = {9, 9, 9};
  EXPECT_EQ(cache.lookup(key, impostor), nullptr);
  EXPECT_EQ(cache.stats().verify_rejects, 1u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedByBytes) {
  // Each artifact charges ~256 + input + output bytes; budget fits two.
  ArtifactCache cache(2 * (256 + 1 + 100));
  auto key_of = [](const std::string& tag) {
    Bytes b(tag.begin(), tag.end());
    return make_cache_key(b, "o");
  };
  cache.insert(key_of("a"), tiny_artifact("a", 100));
  cache.insert(key_of("b"), tiny_artifact("b", 100));
  ASSERT_EQ(cache.entry_count(), 2u);

  // Touch "a" so "b" becomes the LRU victim.
  Bytes a_in = {'a'};
  ASSERT_NE(cache.lookup(key_of("a"), a_in), nullptr);
  cache.insert(key_of("c"), tiny_artifact("c", 100));

  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  Bytes b_in = {'b'};
  Bytes c_in = {'c'};
  EXPECT_NE(cache.lookup(key_of("a"), a_in), nullptr) << "recently-used entry evicted";
  EXPECT_EQ(cache.lookup(key_of("b"), b_in), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.lookup(key_of("c"), c_in), nullptr);
  EXPECT_LE(cache.stats().bytes, 2u * (256 + 1 + 100));
}

TEST(ArtifactCache, RecentKeysFilterOnOptionsAndTextDigest) {
  ArtifactCache cache(1 << 20);
  auto put = [&](const std::string& tag, std::uint64_t odigest, std::uint64_t tdigest) {
    Artifact a = tiny_artifact(tag);
    a.options_digest = odigest;
    a.text_digest = tdigest;
    Bytes b(tag.begin(), tag.end());
    cache.insert(make_cache_key(b, "o"), a);
  };
  put("a", /*odigest=*/1, /*tdigest=*/7);
  put("b", /*odigest=*/1, /*tdigest=*/8);  // same options, different text
  put("c", /*odigest=*/2, /*tdigest=*/7);  // same text, different options
  put("d", /*odigest=*/1, /*tdigest=*/7);  // the only true sibling of "a"

  auto keys = cache.recent_keys(/*options_digest=*/1, /*text_digest=*/7, /*limit=*/10);
  ASSERT_EQ(keys.size(), 2u);  // "a" and "d", neither "b" nor "c"
  for (const CacheKey& k : keys) {
    auto art = cache.peek(k);
    ASSERT_NE(art, nullptr);
    EXPECT_EQ(art->options_digest, 1u);
    EXPECT_EQ(art->text_digest, 7u);
  }
  EXPECT_EQ(cache.recent_keys(1, 7, /*limit=*/1).size(), 1u);
}

TEST(ArtifactCache, OversizeArtifactIsSkippedNotHalfInserted) {
  ArtifactCache cache(300);
  cache.insert(make_cache_key(Bytes{'x'}, "o"), tiny_artifact("x", 4096));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().oversize_skips, 1u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---- serve engine: warm hits ----

TEST(ServeEngine, WarmHitIsByteIdenticalAndReplaysColdStats) {
  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"cfi"};

  ServeEngine engine;
  auto cold = engine.handle(input, opts);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold->source, Source::kCold);
  EXPECT_EQ(cold->output, cold_reference(input, opts));

  auto warm = engine.handle(input, opts);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm->source, Source::kCacheHit);
  EXPECT_EQ(warm->output, cold->output) << "warm hit diverged from cold bytes";
  // Stats replay the producing cold rewrite, not zeros.
  EXPECT_EQ(warm->analysis.code_insns, cold->analysis.code_insns);
  EXPECT_EQ(warm->reassembly.dollops_placed, cold->reassembly.dollops_placed);
  EXPECT_DOUBLE_EQ(warm->cold_timing.total_ms(), cold->cold_timing.total_ms());

  auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cold, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeEngine, DifferentOptionsMissTheCache) {
  Bytes input = assemble_bytes(kDataProgram);
  ServeEngine engine;
  RewriteOptions a;
  RewriteOptions b;
  b.seed = 1234;  // seed participates in the cache key

  ASSERT_TRUE(engine.handle(input, a).ok());
  auto second = engine.handle(input, b);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, Source::kCold);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

// ---- serve engine: failures never poison the cache (satellite #3) ----

std::atomic<int> g_flaky_failures_left{0};

class FlakyTransform : public transform::Transform {
 public:
  std::string name() const override { return "test_flaky"; }
  Status apply(transform::TransformContext&) override {
    int left = g_flaky_failures_left.load();
    while (left > 0 &&
           !g_flaky_failures_left.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) return Error::internal("transient failure (flaky test transform)");
    return Status::success();
  }
};

TEST(ServeEngine, FailedRewriteIsNotCachedAndRetrySucceedsCold) {
  transform::register_transform("test_flaky",
                                [] { return std::make_unique<FlakyTransform>(); });
  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"test_flaky"};

  ServeEngine engine;
  g_flaky_failures_left.store(1);
  auto first = engine.handle(input, opts);
  ASSERT_FALSE(first.ok()) << "flaky transform unexpectedly succeeded";
  EXPECT_EQ(engine.stats().failures, 1u);
  EXPECT_EQ(engine.stats().cache.insertions, 0u) << "a FAILURE was cached";

  // The transient condition clears; the retry must re-run cold (a poisoned
  // cache would replay the failure or serve stale bytes).
  auto retry = engine.handle(input, opts);
  ASSERT_TRUE(retry.ok()) << retry.error().message;
  EXPECT_EQ(retry->source, Source::kCold);
  EXPECT_EQ(retry->output, cold_reference(input, opts));

  // And the SUCCESS is now cached.
  auto warm = engine.handle(input, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->source, Source::kCacheHit);
}

TEST(ServeEngine, MalformedInputFailsWithoutTouchingTheCache) {
  ServeEngine engine;
  Bytes garbage = {'n', 'o', 't', 'z', 'e', 'l', 'f'};
  EXPECT_FALSE(engine.handle(garbage, RewriteOptions{}).ok());
  EXPECT_EQ(engine.stats().failures, 1u);
  EXPECT_EQ(engine.stats().cache.insertions, 0u);
}

// ---- serve engine: delta path ----

// Flip data bytes that are NOT code-pointer shaped: mutate the "version-A"
// tag in .data. Every 8-byte window over ASCII text decodes far outside
// [kTextBase, text end), so the validator can prove IR equivalence.
Bytes perturb_data_tag(ByteView input) {
  auto img = zelf::read_image(input);
  EXPECT_TRUE(img.ok());
  bool patched = false;
  for (auto& seg : img->segments) {
    if (seg.kind != zelf::SegKind::kData) continue;
    for (std::size_t i = 0; i + 1 < seg.bytes.size(); ++i) {
      if (seg.bytes[i] == '-' && seg.bytes[i + 1] == 'A') {
        seg.bytes[i + 1] = 'B';  // "version-A" -> "version-B"
        patched = true;
      }
    }
  }
  EXPECT_TRUE(patched) << "test program lost its .data tag";
  return zelf::write_image(*img);
}

TEST(ServeEngine, DeltaHitIsByteIdenticalToColdRewrite) {
  Bytes v1 = assemble_bytes(kDataProgram);
  Bytes v2 = perturb_data_tag(v1);
  ASSERT_NE(v1, v2);
  RewriteOptions opts;
  opts.transforms = {"cfi"};

  ServeEngine engine;
  ASSERT_TRUE(engine.handle(v1, opts).ok());

  auto delta = engine.handle(v2, opts);
  ASSERT_TRUE(delta.ok()) << delta.error().message;
  EXPECT_EQ(delta->source, Source::kDeltaHit);
  EXPECT_EQ(delta->delta_changed_pages, 1u);
  EXPECT_EQ(delta->output, cold_reference(v2, opts))
      << "delta path emitted bytes a cold rewrite would not";

  // The delta result was promoted: resubmitting v2 is now a full hit.
  auto warm = engine.handle(v2, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->source, Source::kCacheHit);
  EXPECT_EQ(warm->output, delta->output);

  auto stats = engine.stats();
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.cold, 1u);
}

TEST(ServeEngine, DeltaRefusesCodePointerShapedWordAndFallsBackCold) {
  Bytes v1 = assemble_bytes(kDataProgram);
  RewriteOptions opts;

  // Plant a text address into the .data quad: analysis COULD see this word
  // (the data-pointer scan), so the validator must refuse and the engine
  // must fall back to a full cold rewrite -- still byte-correct.
  auto img = zelf::read_image(v1);
  ASSERT_TRUE(img.ok());
  std::uint64_t text_addr = 0;
  for (auto& seg : img->segments)
    if (seg.executable()) text_addr = seg.vaddr + 8;
  bool planted = false;
  for (auto& seg : img->segments) {
    if (seg.kind != zelf::SegKind::kData || seg.bytes.size() < 8) continue;
    for (int i = 0; i < 8; ++i)  // overwrite the `counters:` quad in place
      seg.bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(text_addr >> (8 * i));
    planted = true;
  }
  ASSERT_TRUE(planted);
  Bytes v2 = zelf::write_image(*img);

  ServeEngine engine;
  ASSERT_TRUE(engine.handle(v1, opts).ok());
  auto second = engine.handle(v2, opts);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->source, Source::kCold) << "unsafe delta was served";
  EXPECT_EQ(second->output, cold_reference(v2, opts));
  EXPECT_EQ(engine.stats().delta_fallbacks, 1u);
  EXPECT_EQ(engine.stats().delta_hits, 0u);
}

TEST(ServeEngine, DeltaRefusesTextChanges) {
  Bytes v1 = assemble_bytes(kDataProgram);
  std::string changed(kDataProgram);
  auto pos = changed.find("movi r3, 3");
  ASSERT_NE(pos, std::string::npos);
  changed.replace(pos, 10, "movi r3, 2");  // text differs, data identical
  Bytes v2 = assemble_bytes(changed);

  ServeEngine engine;
  ASSERT_TRUE(engine.handle(v1, RewriteOptions{}).ok());
  auto second = engine.handle(v2, RewriteOptions{});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, Source::kCold);
  EXPECT_EQ(second->output, cold_reference(v2, RewriteOptions{}));
  EXPECT_EQ(engine.stats().delta_hits, 0u);
}

TEST(TryDelta, RefusesWhenDiffSpansTooManyPages) {
  Bytes v1 = assemble_bytes(kDataProgram);
  Bytes out = cold_reference(v1, RewriteOptions{});

  auto img = zelf::read_image(v1);
  ASSERT_TRUE(img.ok());
  for (auto& seg : img->segments)
    if (seg.kind == zelf::SegKind::kData && !seg.bytes.empty())
      seg.bytes.back() ^= 0x01;
  Bytes v2 = zelf::write_image(*img);

  serve::DeltaOptions zero_budget;
  zero_budget.max_changed_pages = 0;
  std::string reason;
  EXPECT_FALSE(serve::try_delta(v1, out, *img, v2, zero_budget, &reason).has_value());
  EXPECT_NE(reason.find("pages"), std::string::npos) << reason;
}

// ---- serve engine: persistent artifact cache ----

std::string temp_cache_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("zipr_serve_cache_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin"))
      .string();
}

TEST(ServeEngine, PersistedCacheAnswersAcrossRestartByteIdentically) {
  const std::string path = temp_cache_path("roundtrip");
  std::remove(path.c_str());
  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"cfi"};

  Bytes cold_bytes;
  {
    ServeOptions sopts;
    sopts.cache_file = path;
    ServeEngine engine(sopts);
    auto cold = engine.handle(input, opts);
    ASSERT_TRUE(cold.ok()) << cold.error().message;
    EXPECT_EQ(cold->source, Source::kCold);
    cold_bytes = cold->output;
  }  // engine destroyed; only the file survives

  ServeOptions sopts;
  sopts.cache_file = path;
  ServeEngine restarted(sopts);
  auto warm = restarted.handle(input, opts);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm->source, Source::kCacheHit) << "restart lost the persisted artifact";
  EXPECT_EQ(warm->output, cold_bytes);
  EXPECT_EQ(warm->output, cold_reference(input, opts));
  // Replayed artifacts carry the producing rewrite's stats, not zeros.
  EXPECT_GT(warm->analysis.code_insns, 0u);

  // Persistence must not alias keys: same input under other options misses.
  auto miss = restarted.handle(input, RewriteOptions{});
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->source, Source::kCold);
  std::remove(path.c_str());
}

TEST(ServeEngine, CorruptedCacheFileDegradesToColdNeverWrongBytes) {
  const std::string path = temp_cache_path("corrupt");
  std::remove(path.c_str());
  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  {
    ServeOptions sopts;
    sopts.cache_file = path;
    ServeEngine engine(sopts);
    ASSERT_TRUE(engine.handle(input, opts).ok());
  }

  // Flip one byte in the middle of the file (lands inside the only
  // record): the checksum must reject it on replay.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  long size = std::ftell(f);
  ASSERT_GT(size, 64);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);

  ServeOptions sopts;
  sopts.cache_file = path;
  ServeEngine engine(sopts);
  auto r = engine.handle(input, opts);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->source, Source::kCold) << "a corrupted record was served";
  EXPECT_EQ(r->output, cold_reference(input, opts))
      << "corruption fallback produced wrong bytes";
  std::remove(path.c_str());
}

TEST(ServeEngine, GarbageCacheFileIsACleanColdStart) {
  const std::string path = temp_cache_path("garbage");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a zipr artifact cache", f);
  std::fclose(f);

  // Construction must survive (memory-only fallback) and serve correctly.
  ServeOptions sopts;
  sopts.cache_file = path;
  ServeEngine engine(sopts);
  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  auto r = engine.handle(input, opts);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->source, Source::kCold);
  EXPECT_EQ(r->output, cold_reference(input, opts));
  std::remove(path.c_str());
}

TEST(ArtifactCache, ReinsertingAPresentKeyAppendsNoSecondRecord) {
  // Two clients that race on one new input both run it cold and both
  // insert; the file must still hold one record, or every restart replays
  // the duplicate.
  const std::string path = temp_cache_path("reinsert");
  std::remove(path.c_str());
  Bytes in = {'r'};
  Artifact art = tiny_artifact("r");
  art.options_text = "o";  // replay re-derives the key from these bytes
  CacheKey key = make_cache_key(in, art.options_text);
  {
    ArtifactCache cache(1 << 20);
    ASSERT_TRUE(cache.attach_file(path).ok());
    cache.insert(key, art);
    const auto once = std::filesystem::file_size(path);
    cache.insert(key, art);
    EXPECT_EQ(std::filesystem::file_size(path), once);
    EXPECT_EQ(cache.entry_count(), 1u);
  }
  ArtifactCache restarted(1 << 20);
  ASSERT_TRUE(restarted.attach_file(path).ok());
  EXPECT_EQ(restarted.entry_count(), 1u);
  EXPECT_NE(restarted.lookup(key, in), nullptr);
  std::remove(path.c_str());
}

TEST(ArtifactCache, RestartKeepsOnlyTheRecordsTheBudgetHolds) {
  // The budget holds 3 of the 10 artifacts inserted. Compaction on attach
  // must write back only those 3, or every evicted record is replayed and
  // the file keeps all of them across restarts.
  constexpr std::size_t kBudget = 3 * (256 + 1 + 1 + 100);
  auto key_of = [](char tag) {
    Bytes b = {static_cast<Byte>(tag)};
    return make_cache_key(b, "o");
  };
  auto artifact = [](char tag) {
    Artifact a = tiny_artifact(std::string(1, tag), 100);
    a.options_text = "o";
    return a;
  };
  const std::string path = temp_cache_path("budget");
  const std::string survivors_path = temp_cache_path("budget_survivors");
  std::remove(path.c_str());
  std::remove(survivors_path.c_str());
  {
    ArtifactCache cache(kBudget);
    ASSERT_TRUE(cache.attach_file(path).ok());
    for (char t : std::string("abcdefghij")) cache.insert(key_of(t), artifact(t));
    ASSERT_EQ(cache.entry_count(), 3u);
  }
  {
    ArtifactCache cache(kBudget);
    ASSERT_TRUE(cache.attach_file(survivors_path).ok());
    for (char t : std::string("hij")) cache.insert(key_of(t), artifact(t));
  }
  const auto survivors_size = std::filesystem::file_size(survivors_path);
  for (int restart = 0; restart < 3; ++restart) {
    ArtifactCache cache(kBudget);
    ASSERT_TRUE(cache.attach_file(path).ok());
    EXPECT_EQ(cache.entry_count(), 3u);
    EXPECT_EQ(std::filesystem::file_size(path), survivors_size) << "restart " << restart;
  }
  // The compacted file keeps the recency order: one more insert evicts 'h'.
  ArtifactCache cache(kBudget);
  ASSERT_TRUE(cache.attach_file(path).ok());
  cache.insert(key_of('k'), artifact('k'));
  Bytes h_in = {'h'};
  Bytes i_in = {'i'};
  EXPECT_EQ(cache.lookup(key_of('h'), h_in), nullptr);
  EXPECT_NE(cache.lookup(key_of('i'), i_in), nullptr);
  std::remove(path.c_str());
  std::remove(survivors_path.c_str());
}

// ---- serve engine: repeated cold rewrites on the serving threads ----

// Input variants that differ only in extra .data payload: each is its own
// cache key but all drive the same-shaped cold pipeline.
Bytes variant_input(int i) {
  std::string src(kDataProgram);
  src += "salt" + std::to_string(i) + ": .quad " + std::to_string(1000 + i) + "\n";
  return assemble_bytes(src);
}

TEST(ServeEngine, ColdThroughRecycledWorkspaceIsByteIdentical) {
  // handle() rewrites on the calling thread, here a fresh one.
  // clear_cache() drops every artifact, so the second pass runs the FULL
  // cold pipeline again on the same thread; its bytes must match the first
  // pass exactly.
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  ServeOptions sopts;
  sopts.enable_delta = false;  // variants share text; force the COLD path
  ServeEngine engine(sopts);
  constexpr int kVariants = 6;
  ::zipr::testing::on_fresh_thread([&] {
    std::vector<Bytes> first_pass(kVariants);
    for (int i = 0; i < kVariants; ++i) {
      auto r = engine.handle(variant_input(i), opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->source, Source::kCold);
      first_pass[i] = r->output;
    }

    engine.clear_cache();
    for (int i = 0; i < kVariants; ++i) {
      auto r = engine.handle(variant_input(i), opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->source, Source::kCold) << "clear_cache() left an artifact behind";
      EXPECT_EQ(r->output, first_pass[i])
          << "repeated cold rewrite drifted on variant " << i;
    }
  });
}

TEST(ServeEngine, ConcurrentHandleStormOverRecycledWorkspacesMatchesSyncHandle) {
  // Digest differential, first vs repeated cold rewrites, under
  // concurrency: references come from a single-threaded engine; the storm
  // engine then serves the same corpus repeatedly from 4 threads calling
  // handle() at once, with clear_cache() between rounds so every round runs
  // cold again on the same threads. Part of the TSan workload (tsan_smoke).
  constexpr int kVariants = 8;
  constexpr int kRounds = 3;
  constexpr std::size_t kPerRound = 2 * kVariants;
  RewriteOptions opts;

  ServeOptions nodelta;
  nodelta.enable_delta = false;  // variants share text; force the COLD path

  std::vector<Bytes> inputs;
  std::vector<Bytes> reference;
  {
    ServeEngine sync_engine(nodelta);
    for (int i = 0; i < kVariants; ++i) {
      inputs.push_back(variant_input(i));
      auto r = sync_engine.handle(inputs.back(), opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      reference.push_back(r->output);
    }
  }

  ServeEngine engine(nodelta);
  std::uint64_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::optional<Result<ServeResponse>>> replies(kPerRound);
    batch::parallel_for(4, kPerRound, [&](std::size_t k) {
      replies[k] = engine.handle(inputs[k % kVariants], opts);
    });
    for (std::size_t k = 0; k < kPerRound; ++k) {
      const Result<ServeResponse>& r = *replies[k];
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->output, reference[k % kVariants])
          << "round " << round << " request " << k << " diverged from sync handle()";
      ++total;
    }
    engine.clear_cache();  // next round runs cold again on the same threads
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.failures, 0u);
  // Every round must re-run at least the whole corpus cold, and with delta
  // off every other request was served from the cache it populated.
  EXPECT_GE(stats.cold, static_cast<std::uint64_t>(kVariants * kRounds));
  EXPECT_EQ(stats.cold + stats.cache_hits, total);
}

// ---- serve engine: the 62-CB corpus ----

std::vector<Bytes> corpus_inputs() {
  std::vector<Bytes> corpus;
  for (const auto& spec : cgc::cfe_corpus()) {
    auto cb = cgc::generate_cb(spec);
    EXPECT_TRUE(cb.ok()) << spec.name;
    if (cb.ok()) corpus.push_back(zelf::write_image(cb->image));
  }
  return corpus;
}

/// Flip the last byte of the last non-text segment that has file bytes
/// (a changed blob or version tag), or of the first text segment.
Bytes flip_last_byte(const Bytes& input, bool text) {
  auto img = zelf::read_image(input);
  EXPECT_TRUE(img.ok());
  zelf::Segment* victim = nullptr;
  for (auto& seg : img->segments) {
    if (seg.bytes.empty() || seg.executable() != text) continue;
    victim = &seg;
    if (text) break;
  }
  EXPECT_NE(victim, nullptr);
  if (victim != nullptr) victim->bytes.back() ^= 0x01;
  return zelf::write_image(*img);
}

TEST(ServeCorpus, WarmHitsAndDeltaRepliesMatchDirectRewrites) {
  const std::vector<Bytes> corpus = corpus_inputs();
  RewriteOptions opts;
  ServeEngine engine;

  std::vector<Bytes> cold;
  for (const Bytes& input : corpus) {
    auto r = engine.handle(input, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->source, Source::kCold);
    cold.push_back(std::move(r->output));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto r = engine.handle(corpus[i], opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->source, Source::kCacheHit) << "CB " << i;
    EXPECT_EQ(r->output, cold[i]) << "CB " << i;
  }

  // Each CB resubmitted with one data byte flipped: whichever path answers,
  // the bytes are those of a direct rewrite, and the delta path answers at
  // least 10 of the 62 (32 at the time of writing).
  std::size_t delta_hits = 0;
  for (const Bytes& input : corpus) {
    const Bytes mutated = flip_last_byte(input, /*text=*/false);
    auto r = engine.handle(mutated, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    if (r->source == Source::kDeltaHit) ++delta_hits;
    EXPECT_EQ(r->output, cold_reference(mutated, opts));
  }
  EXPECT_GE(delta_hits, 10u);

  // A text byte never rides the delta path (it may fail to rewrite).
  for (std::size_t i = 0; i < corpus.size(); i += 8) {
    auto r = engine.handle(flip_last_byte(corpus[i], /*text=*/true), opts);
    EXPECT_FALSE(r.ok() && r->source == Source::kDeltaHit) << "CB " << i;
  }
}

/// The synthetic large binary at `scale` (x10 is about 1 MB of text), in
/// the widened segment layout.
Bytes synthetic_large(int scale) {
  auto cb = cgc::generate_wide_cb(cgc::synthetic_large_spec(scale));
  EXPECT_TRUE(cb.ok()) << (cb.ok() ? "" : cb.error().message);
  return cb.ok() ? zelf::write_image(cb->image) : Bytes{};
}

TEST(ServeCorpus, ColdStartMatchesRecycledWorkspacesAndAFreshThread) {
  const Bytes input = synthetic_large(10);
  RewriteOptions opts;
  ServeEngine engine;
  auto first = engine.handle(input, opts);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->source, Source::kCold);
  for (int rep = 0; rep < 5; ++rep) {
    engine.clear_cache();
    auto r = engine.handle(input, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->source, Source::kCold);
    EXPECT_EQ(r->output, first->output) << "repeated cold rewrite drifted on request " << rep;
  }
  EXPECT_EQ(cold_reference(input, opts), first->output);
}

TEST(ServeCorpus, PersistedSliceSurvivesRestartAndCorruption) {
  const std::vector<Bytes> corpus = corpus_inputs();
  std::vector<std::size_t> slice;
  for (std::size_t i = 0; i < corpus.size(); i += 4) slice.push_back(i);
  ASSERT_EQ(slice.size(), 16u);
  const std::string path = temp_cache_path("corpus");
  std::remove(path.c_str());
  RewriteOptions opts;
  ServeOptions sopts;
  sopts.cache_file = path;

  std::vector<Bytes> cold;
  {
    ServeEngine a(sopts);
    for (std::size_t i : slice) {
      auto r = a.handle(corpus[i], opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->source, Source::kCold);
      cold.push_back(std::move(r->output));
    }
  }
  {
    ServeEngine b(sopts);  // a restart on the same file
    for (std::size_t k = 0; k < slice.size(); ++k) {
      auto r = b.handle(corpus[slice[k]], opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->source, Source::kCacheHit) << "request " << k;
      EXPECT_EQ(r->output, cold[k]) << "request " << k;
    }
  }

  // Flip a byte mid-file: replay stops at the damaged record, and the
  // requests behind it fall back to cold with the same bytes.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  ServeEngine damaged(sopts);
  std::size_t cold_fallbacks = 0;
  for (std::size_t k = 0; k < slice.size(); ++k) {
    auto r = damaged.handle(corpus[slice[k]], opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    if (r->source == Source::kCold) ++cold_fallbacks;
    EXPECT_EQ(r->output, cold[k]) << "request " << k;
  }
  EXPECT_GE(cold_fallbacks, 1u);
  std::remove(path.c_str());
}

// ---- socket front end ----

/// Raw client connection to a Unix-socket server; -1 on failure.
int connect_raw(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// connect_raw, retried while the server thread is still binding.
int connect_when_bound(const std::string& path) {
  int fd = -1;
  for (int attempt = 0; attempt < 200 && fd < 0; ++attempt) {
    fd = connect_raw(path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fd;
}

/// submit_over_socket, retried while the server thread is still binding.
Result<serve::SubmitReply> submit_when_bound(const std::string& path, ByteView input,
                                             const RewriteOptions& opts) {
  Result<serve::SubmitReply> reply = serve::submit_over_socket(path, input, opts);
  for (int attempt = 0; attempt < 200 && !reply.ok() &&
                        reply.error().message.rfind("connect ", 0) == 0;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reply = serve::submit_over_socket(path, input, opts);
  }
  return reply;
}

std::string temp_socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("zipr_serve_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

TEST(ServeSocket, RoundTripThenCacheHit) {
  const std::string path = temp_socket_path("test");
  std::remove(path.c_str());

  ServeEngine engine;
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 3;
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"cfi"};

  auto first = submit_when_bound(path, input, opts);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->source, Source::kCold);
  EXPECT_EQ(first->output, cold_reference(input, opts));

  auto second = serve::submit_over_socket(path, input, opts);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->source, Source::kCacheHit);
  EXPECT_EQ(second->output, first->output);

  // A garbage frame gets an in-band error and does not kill the server.
  Bytes garbage = {'j', 'u', 'n', 'k'};
  auto bad = serve::submit_over_socket(path, garbage, opts);
  EXPECT_FALSE(bad.ok());

  server.join();
  std::remove(path.c_str());
}

TEST(ServeSocket, ClientsThatHangUpBeforeTheReplyDoNotKillTheServer) {
  // The server must not depend on an inherited SIG_IGN: with the default
  // disposition, replying to a closed peer through write(2) raises SIGPIPE
  // and kills the whole process.
  std::signal(SIGPIPE, SIG_DFL);
  const std::string path = temp_socket_path("hangup");
  std::remove(path.c_str());

  constexpr int kHangups = 8;  // stays under the listen backlog
  ServeOptions one_acceptor;
  one_acceptor.jobs = 1;  // the gate below must hold the ONLY acceptor
  ServeEngine engine(one_acceptor);
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 1 + kHangups + 1;  // gate, hang-ups, good request
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  // The gate connects and sends nothing, holding the single acceptor while
  // the other clients queue up. Every hang-up client has therefore closed
  // before the server reads its header and sends the error reply.
  int gate = connect_when_bound(path);
  ASSERT_GE(gate, 0) << "server never accepted";

  std::vector<std::thread> clients;
  std::atomic<int> sent{0};
  for (int i = 0; i < kHangups; ++i) {
    clients.emplace_back([&] {
      int fd = connect_raw(path);
      if (fd < 0) return;
      const std::uint8_t bad_header[16] = {'n', 'o', 'p', 'e'};
      if (::write(fd, bad_header, sizeof bad_header) == sizeof bad_header) ++sent;
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(sent.load(), kHangups);
  ::close(gate);

  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  auto good = serve::submit_over_socket(path, input, opts);
  ASSERT_TRUE(good.ok()) << good.error().message;
  EXPECT_EQ(good->output, cold_reference(input, opts));

  server.join();
  std::remove(path.c_str());
}

TEST(ServeSocket, IdleClientTimesOutAndTheNextClientIsServed) {
  // A client that connects and never sends a byte holds an acceptor for
  // kConnectionDeadline at most, so even when it holds the only one, the
  // next client waits no longer than that.
  const std::string path = temp_socket_path("idle");
  std::remove(path.c_str());

  ServeOptions one_acceptor;
  one_acceptor.jobs = 1;  // the idle client must hold the ONLY acceptor
  ServeEngine engine(one_acceptor);
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 2;  // the idle client, then the real one
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  int idle = connect_when_bound(path);
  ASSERT_GE(idle, 0) << "server never accepted";

  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  auto start = std::chrono::steady_clock::now();
  auto reply = serve::submit_over_socket(path, input, opts);
  auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_LT(waited, 3 * serve::kConnectionDeadline);

  ServeEngine reference_engine;
  auto direct = reference_engine.handle(input, opts);
  ASSERT_TRUE(direct.ok()) << direct.error().message;
  EXPECT_EQ(reply->output, direct->output);

  server.join();
  ::close(idle);
  std::remove(path.c_str());
}

TEST(ServeSocket, ConcurrentClientsMatchSyncHandle) {
  // Eight clients at once against four acceptors, each mixing fresh,
  // exact-repeat and one-data-byte-edit requests; every reply must match a
  // synchronous handle() on a fresh engine. Part of the TSan workload.
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  std::vector<Bytes> inputs;  // [2v] = variant v, [2v + 1] = its data edit
  std::vector<Bytes> reference;
  {
    ServeEngine reference_engine;
    for (int v = 0; v < kClients; ++v) {
      inputs.push_back(variant_input(v));
      inputs.push_back(perturb_data_tag(inputs.back()));
    }
    for (const Bytes& in : inputs) {
      auto r = reference_engine.handle(in, opts);
      ASSERT_TRUE(r.ok()) << r.error().message;
      reference.push_back(r->output);
    }
  }

  const std::string path = temp_socket_path("concurrent");
  std::remove(path.c_str());
  ServeOptions four;
  four.jobs = 4;
  ServeEngine engine(four);
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = kClients * kPerClient;
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  std::atomic<int> matched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Own variant fresh, repeated, edited; then a neighbour's variant and
      // edit (fresh or warm, depending on who gets there first); then a
      // repeat of the first request.
      const int own = 2 * c;
      const int next = 2 * ((c + 1) % kClients);
      for (int pick : {own, own, own + 1, next, next + 1, own}) {
        auto reply = submit_when_bound(path, inputs[static_cast<std::size_t>(pick)], opts);
        if (!reply.ok()) {
          ADD_FAILURE() << "client " << c << ": " << reply.error().message;
          continue;
        }
        EXPECT_EQ(reply->output, reference[static_cast<std::size_t>(pick)])
            << "client " << c << " input " << pick << " diverged from sync handle()";
        ++matched;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.join();
  EXPECT_EQ(matched.load(), kClients * kPerClient);
  EXPECT_EQ(engine.stats().requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(engine.stats().failures, 0u);
  std::remove(path.c_str());
}

TEST(ServeSocket, IdleClientDoesNotDelayOthers) {
  // With two acceptors, a connection that sends nothing ties up one of them
  // and the next client is served by the other, without waiting for the
  // idle one to time out.
  const std::string path = temp_socket_path("idle2");
  std::remove(path.c_str());
  ServeOptions two;
  two.jobs = 2;
  ServeEngine engine(two);
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 2;  // the idle client, then the real one
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  int idle = connect_when_bound(path);
  ASSERT_GE(idle, 0) << "server never accepted";

  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  auto start = std::chrono::steady_clock::now();
  auto reply = serve::submit_over_socket(path, input, opts);
  auto waited = std::chrono::steady_clock::now() - start;
  server.join();
  ::close(idle);
  std::remove(path.c_str());
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_LT(waited, serve::kConnectionDeadline / 2);
  EXPECT_EQ(reply->output, cold_reference(input, opts));
}

TEST(ServeSocket, SlowWriterIsDroppedAtTheRequestDeadline) {
  // A client that trickles its header one byte per 500 ms never lets a
  // single read block for kConnectionDeadline, but the whole request frame
  // is due kConnectionDeadline after accept(): the server drops it then.
  // Meanwhile the other acceptor serves a real client.
  const std::string path = temp_socket_path("slow");
  std::remove(path.c_str());
  ServeOptions two;
  two.jobs = 2;
  ServeEngine engine(two);
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 2;  // the slow writer, then the real client
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });

  int slow = connect_when_bound(path);
  ASSERT_GE(slow, 0) << "server never accepted";
  const auto connected = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration dropped_after{};
  std::thread trickle([&] {
    // A well-formed header ('ZSQ1', 4 bytes of options, 64 of input).
    const std::uint8_t header[16] = {'Z', 'S', 'Q', '1', 4, 0, 0, 0, 64};
    for (std::uint8_t byte : header) {
      if (::send(slow, &byte, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
    dropped_after = std::chrono::steady_clock::now() - connected;
  });

  Bytes input = assemble_bytes(kDataProgram);
  RewriteOptions opts;
  auto reply = serve::submit_over_socket(path, input, opts);
  trickle.join();
  server.join();
  ::close(slow);
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(reply->output, cold_reference(input, opts));
  // Sending all 16 bytes would take 8 s; the drop comes at the deadline,
  // seen by the writer on its next byte.
  EXPECT_LT(dropped_after, serve::kConnectionDeadline + std::chrono::milliseconds(1500));
  std::remove(path.c_str());
}

TEST(ServeSocket, OversizedFrameGetsAnInBandError) {
  const std::string path = temp_socket_path("oversized");
  std::remove(path.c_str());
  Bytes input = assemble_bytes(kDataProgram);
  ServeEngine engine;
  serve::SocketServerOptions sopts;
  sopts.path = path;
  sopts.max_requests = 1;
  sopts.max_request_bytes = input.size();  // the options text tips it over
  std::thread server([&] {
    Status st = serve::serve_on_socket(engine, sopts);
    EXPECT_TRUE(st.ok()) << st.error().message;
  });
  auto reply = submit_when_bound(path, input, RewriteOptions{});
  server.join();
  std::remove(path.c_str());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().kind, Error::Kind::kInvalidArgument);
  EXPECT_NE(reply.error().message.find("max_request_bytes"), std::string::npos)
      << reply.error().message;
  EXPECT_EQ(engine.stats().requests, 0u);
}

}  // namespace
}  // namespace zipr
