// Tests for the CGC harness: CB generation, pollers, metrics, exploits,
// and the large-library robustness workloads.
#include <gtest/gtest.h>

#include "cgc/exploits.h"
#include "cgc/filter.h"
#include "cgc/generator.h"
#include "cgc/metrics.h"
#include "cgc/poller.h"
#include "cgc/workload.h"
#include "farm/farm.h"
#include "testing_util.h"
#include "zelf/io.h"

namespace zipr::cgc {
namespace {

using ::zipr::testing::cold_rewrite_bytes;
using ::zipr::testing::must_rewrite;
using ::zipr::testing::on_fresh_thread;

TEST(Generator, CorpusHas62DistinctCbs) {
  auto corpus = cfe_corpus();
  ASSERT_EQ(corpus.size(), 62u);
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& s : corpus) {
    names.insert(s.name);
    seeds.insert(s.seed);
  }
  EXPECT_EQ(names.size(), 62u);
  EXPECT_EQ(seeds.size(), 62u);
}

TEST(Generator, DeterministicPerSeed) {
  auto corpus = cfe_corpus();
  auto a = generate_cb(corpus[0]);
  auto b = generate_cb(corpus[0]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->image.text().bytes, b->image.text().bytes);
  EXPECT_EQ(a->payload_len, b->payload_len);
}

TEST(Generator, AllCorpusCbsAssemble) {
  for (const auto& spec : cfe_corpus()) {
    auto cb = generate_cb(spec);
    ASSERT_TRUE(cb.ok()) << spec.name << ": " << cb.error().message;
    EXPECT_TRUE(cb->image.validate().ok()) << spec.name;
    EXPECT_TRUE(cb->image.symbols.empty()) << spec.name << ": CBs must ship without metadata";
    EXPECT_EQ(cb->payload_len.size(), static_cast<std::size_t>(spec.handlers));
  }
}

TEST(Generator, CorpusSizesVary) {
  std::size_t min_text = SIZE_MAX, max_text = 0;
  for (const auto& spec : cfe_corpus()) {
    auto cb = generate_cb(spec);
    ASSERT_TRUE(cb.ok());
    min_text = std::min(min_text, cb->image.text().bytes.size());
    max_text = std::max(max_text, cb->image.text().bytes.size());
  }
  EXPECT_LT(min_text, 2000u);
  EXPECT_GT(max_text, 20000u);
}

TEST(Generator, DenseRejectsTooManyHandlers) {
  CbSpec s;
  s.dispatch = DispatchMode::kDenseTable;
  s.handlers = 6;
  EXPECT_FALSE(generate_cb(s).ok());
}

TEST(Poller, WellFormedInputsTerminate) {
  auto cb = generate_cb(cfe_corpus()[3]);
  ASSERT_TRUE(cb.ok());
  auto polls = make_polls(*cb, 10, 7);
  ASSERT_EQ(polls.size(), 10u);
  for (const auto& poll : polls) {
    auto r = vm::run_program(cb->image, poll.input, poll.vm_seed);
    EXPECT_TRUE(r.exited) << "poll did not terminate: " << vm::fault_name(r.fault);
    EXPECT_EQ(r.exit_status, 0);
  }
}

TEST(Poller, DeterministicPerSeed) {
  auto cb = generate_cb(cfe_corpus()[1]);
  ASSERT_TRUE(cb.ok());
  auto a = make_polls(*cb, 5, 11);
  auto b = make_polls(*cb, 5, 11);
  auto c = make_polls(*cb, 5, 12);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a[i].input, b[i].input);
  bool any_diff = false;
  for (int i = 0; i < 5; ++i) any_diff |= a[i].input != c[i].input;
  EXPECT_TRUE(any_diff);
}

// The core CGC claim: every corpus CB, rewritten, passes all polls.
// Split into slices so failures localize.
class CorpusFunctionalTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusFunctionalTest, RewrittenCbsPassAllPolls) {
  auto corpus = cfe_corpus();
  const int slice = GetParam();
  for (std::size_t i = static_cast<std::size_t>(slice); i < corpus.size(); i += 8) {
    auto cb = generate_cb(corpus[i]);
    ASSERT_TRUE(cb.ok()) << corpus[i].name;
    RewriteOptions opts;
    auto rewritten = must_rewrite(cb->image, opts);
    for (const auto& poll : make_polls(*cb, 4, 99)) {
      auto cmp = run_poll(cb->image, rewritten.image, poll);
      EXPECT_TRUE(cmp.functional)
          << corpus[i].name << " diverged on input " << hex_dump(poll.input);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, CorpusFunctionalTest, ::testing::Range(0, 8));

// Golden output digest: an order-sensitive FNV-1a over the serialized
// output of every corpus CB plus the x1 synthetic large CB, under each
// placement strategy. Any change to output bytes moves it, so a change
// that means to keep the bytes must keep the constant. Each rewrite runs
// twice -- cold, each on a fresh thread, and warm, all on one thread in
// one loop -- and both must produce the same digest.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kGoldenCorpusDigest = 0x603b78566753593dULL;

std::uint64_t fnv1a(std::uint64_t h, ByteView bytes) {
  for (Byte b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Golden, CorpusOutputDigest) {
  auto specs = cfe_corpus();
  specs.push_back(synthetic_large_spec(1));
  const rewriter::PlacementKind kinds[] = {rewriter::PlacementKind::kNearfit,
                                           rewriter::PlacementKind::kDiversity,
                                           rewriter::PlacementKind::kPinPage};
  std::vector<zelf::Image> images;
  for (const auto& spec : specs) {
    auto cb = generate_cb(spec);
    ASSERT_TRUE(cb.ok()) << spec.name << ": " << cb.error().message;
    images.push_back(std::move(cb->image));
  }
  std::uint64_t cold_digest = kFnvOffset, warm_digest = kFnvOffset;
  for (const auto& image : images) {
    for (auto kind : kinds) {
      RewriteOptions opts;
      opts.placement = kind;
      cold_digest = fnv1a(cold_digest, cold_rewrite_bytes(image, opts));
    }
  }
  on_fresh_thread([&] {
    for (const auto& image : images) {
      for (auto kind : kinds) {
        RewriteOptions opts;
        opts.placement = kind;
        warm_digest = fnv1a(warm_digest, zelf::write_image(must_rewrite(image, opts).image));
      }
    }
  });
  EXPECT_EQ(cold_digest, kGoldenCorpusDigest);
  EXPECT_EQ(warm_digest, kGoldenCorpusDigest);
}

// Golden fuzz digests: a fixed-seed campaign over each vulnerable CB
// instrumented with laf+cov, digesting crash keys and inputs, corpus
// inputs and the instructions each corpus entry retired. The VM is the
// campaign's inner loop, so any change to its semantics (faults, coverage
// counters, instruction counts) moves the constants. The farm digest runs
// a one-shard farm campaign, the fuzz digest a plain fuzz::fuzz campaign.
constexpr std::uint64_t kGoldenFarmDigest = 0x67de3919e29e4ca7ULL;
constexpr std::uint64_t kGoldenFuzzDigest = 0xa0bb9d3194d64a79ULL;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  Bytes le;
  put_u64(le, v);
  return fnv1a(h, le);
}

std::uint64_t digest_crash(std::uint64_t h, const fuzz::Crash& c) {
  h = fnv1a_u64(h, static_cast<std::uint64_t>(c.fault));
  h = fnv1a_u64(h, c.fault_pc);
  h = fnv1a_u64(h, c.path);
  return fnv1a(fnv1a_u64(h, c.input.size()), c.input);
}

std::uint64_t digest_corpus(std::uint64_t h, const std::vector<fuzz::CorpusEntry>& corpus) {
  for (const auto& e : corpus) {
    h = fnv1a(fnv1a_u64(h, e.input.size()), e.input);
    h = fnv1a_u64(h, e.exec_insns);
  }
  return h;
}

RewriteOptions laf_cov() {
  RewriteOptions instrument;
  instrument.transforms = {"laf", "cov"};
  return instrument;
}

TEST(Golden, FarmCampaignDigest) {
  farm::FarmOptions opts;
  opts.seed = 11;
  opts.shards = 1;
  opts.jobs = 1;
  opts.max_execs = 2000;
  std::uint64_t h = kFnvOffset;
  for (const auto& v : vulnerable_corpus()) {
    auto image = must_rewrite(v.image, laf_cov()).image;
    auto res = farm::run_campaign(image, {v.benign_input}, opts);
    ASSERT_TRUE(res.ok()) << v.name << ": " << res.error().message;
    for (const auto& c : res->crashes) h = digest_crash(h, c.crash);
    h = digest_corpus(h, res->corpus);
  }
  EXPECT_EQ(h, kGoldenFarmDigest) << std::hex << "0x" << h;
}

TEST(Golden, FuzzCampaignDigest) {
  fuzz::FuzzOptions opts;
  opts.seed = 11;
  opts.max_execs = 2000;
  std::uint64_t h = kFnvOffset;
  for (const auto& v : vulnerable_corpus()) {
    auto image = must_rewrite(v.image, laf_cov()).image;
    auto res = fuzz::fuzz(image, {v.benign_input}, opts);
    ASSERT_TRUE(res.ok()) << v.name << ": " << res.error().message;
    for (const auto& c : res->crashes) h = digest_crash(h, c);
    h = digest_corpus(h, res->corpus);
  }
  EXPECT_EQ(h, kGoldenFuzzDigest) << std::hex << "0x" << h;
}

TEST(Metrics, HistogramBinning) {
  EXPECT_EQ(histogram_bin(-0.01), 0);
  EXPECT_EQ(histogram_bin(0.0), 0);
  EXPECT_EQ(histogram_bin(0.03), 1);
  EXPECT_EQ(histogram_bin(0.05), 1);
  EXPECT_EQ(histogram_bin(0.07), 2);
  EXPECT_EQ(histogram_bin(0.15), 3);
  EXPECT_EQ(histogram_bin(0.35), 4);
  EXPECT_EQ(histogram_bin(0.9), 5);
}

TEST(Metrics, EvaluateCbProducesSaneNumbers) {
  auto cb = generate_cb(cfe_corpus()[0]);
  ASSERT_TRUE(cb.ok());
  EvalOptions opts;
  opts.polls = 6;
  auto m = evaluate_cb(*cb, opts);
  ASSERT_TRUE(m.ok()) << m.error().message;
  EXPECT_TRUE(m->functional);
  EXPECT_GE(m->filesize_overhead, 0.0);
  EXPECT_LT(m->filesize_overhead, 0.5);
  EXPECT_GT(m->exec_overhead, -0.5);
  EXPECT_LT(m->exec_overhead, 1.0);
  EXPECT_GE(m->mem_overhead, 0.0);
  EXPECT_EQ(m->polls, 6u);
  EXPECT_EQ(m->rewritten_file,
            m->original_file + m->rewrite_stats.overflow_bytes);
}

TEST(Metrics, CfiCostsMoreThanNull) {
  auto cb = generate_cb(cfe_corpus()[31]);  // an fptr CB: CFI instruments it
  ASSERT_TRUE(cb.ok());
  EvalOptions null_opts;
  null_opts.polls = 4;
  EvalOptions cfi_opts = null_opts;
  cfi_opts.rewrite.transforms = {"cfi"};
  auto a = evaluate_cb(*cb, null_opts);
  auto b = evaluate_cb(*cb, cfi_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->functional);
  EXPECT_TRUE(b->functional);
  EXPECT_GT(b->filesize_overhead, a->filesize_overhead);
  EXPECT_GT(b->exec_overhead, a->exec_overhead);
}

TEST(Metrics, MeanOverhead) {
  std::vector<CbMetrics> ms(2);
  ms[0].exec_overhead = 0.02;
  ms[1].exec_overhead = 0.04;
  EXPECT_DOUBLE_EQ(mean_overhead(ms, &CbMetrics::exec_overhead), 0.03);
  EXPECT_DOUBLE_EQ(mean_overhead({}, &CbMetrics::exec_overhead), 0.0);
}

// ---- exploits ----

TEST(Exploits, CorpusBuilds) {
  auto vulns = vulnerable_corpus();
  ASSERT_EQ(vulns.size(), 4u);
  for (const auto& v : vulns) {
    EXPECT_TRUE(v.image.validate().ok()) << v.name;
    EXPECT_FALSE(v.exploit_input.empty()) << v.name;
  }
}

TEST(Exploits, ExploitsWorkOnOriginals) {
  for (const auto& v : vulnerable_corpus()) {
    auto r = vm::run_program(v.image, v.exploit_input);
    std::string out(r.output.begin(), r.output.end());
    EXPECT_NE(out.find(v.leak_marker), std::string::npos)
        << v.name << ": exploit must work on the unprotected original";
  }
}

TEST(Exploits, BaselineRewritePreservesVulnerability) {
  // A Null rewrite adds no security: exploits still land.
  for (const auto& v : vulnerable_corpus()) {
    auto rewritten = must_rewrite(v.image, {});
    auto outcome = assess(v, rewritten.image);
    EXPECT_TRUE(outcome.benign_works) << v.name;
    EXPECT_TRUE(outcome.exploit_leaked) << v.name;
  }
}

TEST(Exploits, BlockingTransformStopsEachExploit) {
  for (const auto& v : vulnerable_corpus()) {
    RewriteOptions opts;
    opts.transforms = {v.blocking_transform};
    auto rewritten = must_rewrite(v.image, opts);
    auto outcome = assess(v, rewritten.image);
    EXPECT_TRUE(outcome.benign_works) << v.name << " under " << v.blocking_transform;
    EXPECT_FALSE(outcome.exploit_leaked) << v.name << " under " << v.blocking_transform;
    EXPECT_EQ(outcome.exploit_fault, vm::Fault::kHalt) << v.name;
  }
}

TEST(Exploits, FullDefenseStackStopsEverything) {
  for (const auto& v : vulnerable_corpus()) {
    RewriteOptions opts;
    opts.transforms = {"cfi", "canary"};
    auto rewritten = must_rewrite(v.image, opts);
    auto outcome = assess(v, rewritten.image);
    EXPECT_TRUE(outcome.benign_works) << v.name;
    EXPECT_FALSE(outcome.exploit_leaked) << v.name;
  }
}

// ---- network filters (the information-disclosure defense) ----

TEST(Filter, RuleMatching) {
  NetworkFilter f;
  FilterRule exact;
  exact.name = "exact";
  exact.pattern = {0xde, 0xad};
  f.add_rule(exact);

  EXPECT_TRUE(f.allows(Bytes{1, 2, 3}));
  EXPECT_FALSE(f.allows(Bytes{0xde, 0xad}));
  EXPECT_FALSE(f.allows(Bytes{9, 0xde, 0xad, 9}));  // anywhere in the stream
  EXPECT_TRUE(f.allows(Bytes{0xde}));               // partial: no match
  EXPECT_TRUE(f.allows(Bytes{}));
}

TEST(Filter, AnchoredAndMaskedRules) {
  NetworkFilter f;
  FilterRule header;
  header.name = "bad-header";
  header.pattern = {0x20};
  header.mask = {0xe0};  // any first byte in [0x20, 0x3f]
  header.anchored = true;
  f.add_rule(header);

  EXPECT_FALSE(f.allows(Bytes{0x20}));
  EXPECT_FALSE(f.allows(Bytes{0x3f, 1, 2}));
  EXPECT_TRUE(f.allows(Bytes{0x40}));
  EXPECT_TRUE(f.allows(Bytes{1, 0x20}));  // anchored: not at offset 0
  const FilterRule* hit = f.match(Bytes{0x27});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->name, "bad-header");
}

TEST(Filter, DisclosureExploitLeaksWithoutFilter) {
  DisclosureCb cb = make_disclosure_cb();
  auto benign = vm::run_program(cb.image, cb.benign_input);
  EXPECT_TRUE(benign.exited);
  EXPECT_EQ(std::string(benign.output.begin(), benign.output.end()), "hello");

  auto leak = vm::run_program(cb.image, cb.exploit_input);
  std::string out(leak.output.begin(), leak.output.end());
  EXPECT_NE(out.find(cb.leak_marker), std::string::npos)
      << "disclosure exploit must work unfiltered";
}

TEST(Filter, CfiCannotStopDisclosureButFilterCan) {
  // The paper's division of labour: information disclosure does not hijack
  // control flow, so rewriting-based defenses never fire; the network
  // filter is the right tool.
  DisclosureCb cb = make_disclosure_cb();

  RewriteOptions opts;
  opts.transforms = {"cfi", "canary"};
  auto guarded = must_rewrite(cb.image, opts);
  auto still_leaks = vm::run_program(guarded.image, cb.exploit_input);
  std::string out(still_leaks.output.begin(), still_leaks.output.end());
  EXPECT_NE(out.find(cb.leak_marker), std::string::npos)
      << "control-flow defenses cannot see a pure disclosure bug";

  NetworkFilter filter;
  filter.add_rule(cb.signature);
  auto dropped = run_filtered(filter, guarded.image, cb.exploit_input);
  EXPECT_TRUE(dropped.exited);
  EXPECT_EQ(dropped.exit_status, -2);
  EXPECT_TRUE(dropped.output.empty());

  // Benign traffic still flows through filter + rewritten binary.
  auto benign = run_filtered(filter, guarded.image, cb.benign_input);
  EXPECT_TRUE(benign.exited);
  EXPECT_EQ(std::string(benign.output.begin(), benign.output.end()), "hello");
}

// ---- robustness workloads ----

TEST(Workload, BuildsAndRunsApacheLike) {
  auto spec = apache_like_spec();
  spec.functions = 40;  // scaled down for unit-test speed
  auto w = make_workload(spec);
  ASSERT_TRUE(w.ok()) << w.error().message;
  EXPECT_EQ(w->unit_tests.size(), 40u);
  // Original passes its own suite trivially.
  auto self = run_suite(*w, w->image);
  EXPECT_EQ(self.passed, self.total);
}

TEST(Workload, NullRewritePassesUnitSuite) {
  auto spec = libc_like_spec();
  spec.functions = 60;  // scaled down for unit-test speed
  auto w = make_workload(spec);
  ASSERT_TRUE(w.ok()) << w.error().message;
  auto rewritten = must_rewrite(w->image, {});
  auto suite = run_suite(*w, rewritten.image);
  EXPECT_EQ(suite.passed, suite.total) << suite.total - suite.passed << " tests regressed";
  EXPECT_EQ(suite.total, 60);
}

TEST(Workload, IrregularLibraryRewrites) {
  WorkloadSpec spec;
  spec.name = "irregular";
  spec.seed = 44;
  spec.functions = 80;
  spec.irregular = true;
  auto w = make_workload(spec);
  ASSERT_TRUE(w.ok()) << w.error().message;
  RewriteResult r = must_rewrite(w->image, {});
  EXPECT_GE(r.analysis.verbatim_ranges, 1u);  // the interleaved data blobs
  auto suite = run_suite(*w, r.image);
  EXPECT_EQ(suite.passed, suite.total);
}

TEST(Workload, SizeRatiosMirrorThePaper) {
  // libjvm ~5x libc; apache ~0.4x libc (by function count).
  auto libc = libc_like_spec();
  auto jvm = libjvm_like_spec();
  auto apache = apache_like_spec();
  EXPECT_EQ(jvm.functions, libc.functions * 5);
  EXPECT_LT(apache.functions, libc.functions / 2);
}

TEST(Workload, RejectsBadSpecs) {
  WorkloadSpec s;
  s.functions = 0;
  EXPECT_FALSE(make_workload(s).ok());
}

TEST(SharedWorkload, BuildsAndSelfTests) {
  WorkloadSpec spec = apache_like_spec();
  spec.functions = 36;
  auto w = make_shared_workload(spec, 3);
  ASSERT_TRUE(w.ok()) << w.error().message;
  EXPECT_EQ(w->libraries.size(), 3u);
  EXPECT_EQ(w->unit_tests.size(), 36u);
  for (const auto& lib : w->libraries) {
    EXPECT_TRUE(lib.library);
    EXPECT_EQ(lib.exports.size(), 1u);
  }
  // Original set passes its own suite trivially.
  std::vector<zelf::Image> same{w->main_image};
  for (const auto& lib : w->libraries) same.push_back(lib);
  auto r = run_shared_suite(*w, same);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->passed, r->total);
}

TEST(SharedWorkload, IndependentlyRewrittenSetPassesSuite) {
  // The paper's Apache claim: rewrite the main binary AND each shared
  // library separately; the transformed set inter-operates.
  WorkloadSpec spec = apache_like_spec();
  spec.functions = 48;
  auto w = make_shared_workload(spec, 2);
  ASSERT_TRUE(w.ok()) << w.error().message;

  std::vector<zelf::Image> replacement;
  RewriteOptions main_opts;  // Null
  replacement.push_back(must_rewrite(w->main_image, main_opts).image);
  std::uint64_t seed = 11;
  for (const auto& lib : w->libraries) {
    RewriteOptions lib_opts;
    lib_opts.seed = seed++;
    lib_opts.placement = rewriter::PlacementKind::kDiversity;
    replacement.push_back(must_rewrite(lib, lib_opts).image);
  }
  auto suite = run_shared_suite(*w, replacement);
  ASSERT_TRUE(suite.ok()) << suite.error().message;
  EXPECT_EQ(suite->passed, suite->total) << suite->total - suite->passed << " regressed";
}

TEST(SharedWorkload, RejectsBadShapes) {
  WorkloadSpec spec = apache_like_spec();
  EXPECT_FALSE(make_shared_workload(spec, 0).ok());
  EXPECT_FALSE(make_shared_workload(spec, 9).ok());
  spec.functions = 1;
  EXPECT_FALSE(make_shared_workload(spec, 2).ok());
}

}  // namespace
}  // namespace zipr::cgc
