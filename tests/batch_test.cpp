// Tests for the parallel batch-rewrite engine: parallel_for (the caller plus
// jobs - 1 helpers over one atomic index) and BatchRewriter's determinism /
// fault-isolation / stats contracts. The stress tests run valid and corrupt
// inputs concurrently and are the tier-1 workload for the TSan configuration
// (`make tsan_smoke`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_rewriter.h"
#include "batch/worker_pool.h"
#include "cgc/generator.h"
#include "testing_util.h"
#include "zelf/io.h"

namespace zipr {
namespace {

using batch::BatchOptions;
using batch::BatchResult;
using batch::BatchRewriter;
using batch::BatchTask;
using ::zipr::testing::must_assemble;

// ---- parallel_for ----

TEST(ParallelFor, EffectiveJobsClampsToTaskCount) {
  EXPECT_EQ(batch::effective_jobs(8, 3), 3u);
  EXPECT_EQ(batch::effective_jobs(2, 100), 2u);
  EXPECT_EQ(batch::effective_jobs(4, 0), 1u);  // empty batch still sane
  EXPECT_GE(batch::effective_jobs(0, 100), 1u);  // 0 = hardware concurrency
  EXPECT_GE(batch::effective_jobs(-1, 100), 1u);
}

TEST(ParallelFor, HitsEveryIndexOnce) {
  for (int jobs : {1, 2, 4, 8}) {
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    batch::parallel_for(jobs, kN, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

TEST(ParallelFor, CallingThreadIsOneOfTheWorkers) {
  const std::thread::id caller = std::this_thread::get_id();

  // jobs = 1: the plain loop, in order, on the calling thread.
  std::vector<std::size_t> order;
  batch::parallel_for(1, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // jobs = 4: the caller plus at most three helpers share the indices. A
  // helper's index waits until the caller has run one, so the helpers hold
  // at most three indices between them and the caller must claim the next
  // (the deadline turns a caller that never joins in into a failure).
  constexpr std::size_t kN = 64;
  std::vector<std::thread::id> ran_on(kN);
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> caller_ran{false};
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  batch::parallel_for(4, kN, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    ++hits[i];
    if (ran_on[i] == caller) caller_ran = true;
    while (!caller_ran && std::chrono::steady_clock::now() < give_up) std::this_thread::yield();
  });
  std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_LE(threads.size(), 4u);
  EXPECT_TRUE(threads.count(caller)) << "the calling thread ran no index";
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

// ---- BatchRewriter ----

// A family of small but distinct programs for corpus-style batches.
std::string program_source(int i) {
  std::string src = ".entry main\n.text\nmain:\n  movi r2, 0\n";
  for (int k = 0; k <= i % 4; ++k)
    src += "  addi r2, " + std::to_string(7 * i + k + 1) + "\n";
  src += R"(
  call f
  movi r0, 1
  mov r1, r2
  syscall
f:
  addi r2, 5
  ret
)";
  return src;
}

// Six pins one byte apart overflow the sled's capacity: rewrite fails with
// kUnsupported (see zipr_test's DenseRunBeyondCapacityFailsLoudly).
zelf::Image corrupt_image() {
  std::string src = ".entry main\n.text\nmain:\n  jmpt r0, table\n";
  for (int i = 0; i < 6; ++i) src += "t" + std::to_string(i) + ": push r1\n";
  src += "  hlt\n.rodata\ntable: .quad t0, t1, t2, t3, t4, t5\n  .quad 0\n";
  return must_assemble(src);
}

TEST(BatchRewriter, ParallelOutputsAreByteIdenticalToSerial) {
  std::vector<zelf::Image> images;
  for (int i = 0; i < 10; ++i) images.push_back(must_assemble(program_source(i)));

  BatchOptions serial;
  serial.jobs = 1;
  BatchResult a = batch::rewrite_batch(images, serial);

  BatchOptions parallel;
  parallel.jobs = 4;
  BatchResult b = batch::rewrite_batch(images, parallel);

  ASSERT_EQ(a.items.size(), images.size());
  ASSERT_EQ(b.items.size(), images.size());
  EXPECT_EQ(a.stats.failed, 0u);
  EXPECT_EQ(b.stats.failed, 0u);
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(a.items[i].result.ok()) << a.items[i].result.error().message;
    ASSERT_TRUE(b.items[i].result.ok()) << b.items[i].result.error().message;
    EXPECT_EQ(a.items[i].name, b.items[i].name);
    EXPECT_EQ(zelf::write_image(a.items[i].result->image),
              zelf::write_image(b.items[i].result->image))
        << "image " << i << " diverges between serial and 4-worker runs";
  }
}

// The 62-CB corpus: no rewrite fails, and every job count reproduces the
// serial pass byte for byte.
TEST(BatchRewriter, CorpusIsByteIdenticalAtEveryJobCount) {
  std::vector<zelf::Image> images;
  for (const auto& spec : cgc::cfe_corpus()) {
    auto cb = cgc::generate_cb(spec);
    ASSERT_TRUE(cb.ok()) << spec.name << ": " << cb.error().message;
    images.push_back(std::move(cb->image));
  }
  std::vector<Bytes> serial;
  for (int jobs : {1, 2, 4, 8}) {
    BatchOptions opts;
    opts.jobs = jobs;
    BatchResult r = batch::rewrite_batch(images, opts);
    EXPECT_EQ(r.stats.failed, 0u) << "jobs " << jobs;
    ASSERT_EQ(r.items.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      ASSERT_TRUE(r.items[i].result.ok()) << "jobs " << jobs << " CB " << i << ": "
                                          << r.items[i].result.error().message;
      Bytes out = zelf::write_image(r.items[i].result->image);
      if (jobs == 1)
        serial.push_back(std::move(out));
      else
        EXPECT_EQ(out, serial[i]) << "CB " << i << " diverges at jobs " << jobs;
    }
  }
}

TEST(BatchRewriter, ResultOrderMatchesSubmissionOrder) {
  std::vector<BatchTask> tasks;
  for (int i = 0; i < 16; ++i)
    tasks.push_back({"task-" + std::to_string(i), must_assemble(program_source(i)), std::nullopt});
  BatchOptions opts;
  opts.jobs = 8;
  BatchResult r = BatchRewriter(opts).run(std::move(tasks));
  ASSERT_EQ(r.items.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r.items[i].name, "task-" + std::to_string(i));
}

TEST(BatchRewriter, FaultsAreIsolatedAndCountedByKind) {
  std::vector<BatchTask> tasks;
  tasks.push_back({"good-0", must_assemble(program_source(0)), std::nullopt});
  tasks.push_back({"unsupported", corrupt_image(), std::nullopt});
  tasks.push_back({"good-1", must_assemble(program_source(1)), std::nullopt});
  tasks.push_back(
      {"factory-error",
       batch::ImageFactory([]() -> Result<zelf::Image> { return Error::parse("bad bytes"); }),
       std::nullopt});
  tasks.push_back({"throwing-factory", batch::ImageFactory([]() -> Result<zelf::Image> {
                     throw std::runtime_error("boom");
                   }),
                   std::nullopt});
  tasks.push_back({"empty-factory", batch::ImageFactory(), std::nullopt});
  tasks.push_back({"good-2", must_assemble(program_source(2)), std::nullopt});

  BatchOptions opts;
  opts.jobs = 4;
  BatchResult r = BatchRewriter(opts).run(std::move(tasks));
  ASSERT_EQ(r.items.size(), 7u);

  EXPECT_TRUE(r.items[0].result.ok());
  EXPECT_TRUE(r.items[2].result.ok());
  EXPECT_TRUE(r.items[6].result.ok());

  ASSERT_FALSE(r.items[1].result.ok());
  EXPECT_EQ(r.items[1].result.error().kind, Error::Kind::kUnsupported);
  ASSERT_FALSE(r.items[3].result.ok());
  EXPECT_EQ(r.items[3].result.error().kind, Error::Kind::kParse);
  ASSERT_FALSE(r.items[4].result.ok());
  EXPECT_EQ(r.items[4].result.error().kind, Error::Kind::kInternal);
  ASSERT_FALSE(r.items[5].result.ok());
  EXPECT_EQ(r.items[5].result.error().kind, Error::Kind::kInvalidArgument);

  EXPECT_EQ(r.stats.total, 7u);
  EXPECT_EQ(r.stats.succeeded, 3u);
  EXPECT_EQ(r.stats.failed, 4u);
  using K = Error::Kind;
  EXPECT_EQ(r.stats.failures_by_kind[static_cast<std::size_t>(K::kUnsupported)], 1u);
  EXPECT_EQ(r.stats.failures_by_kind[static_cast<std::size_t>(K::kParse)], 1u);
  EXPECT_EQ(r.stats.failures_by_kind[static_cast<std::size_t>(K::kInternal)], 1u);
  EXPECT_EQ(r.stats.failures_by_kind[static_cast<std::size_t>(K::kInvalidArgument)], 1u);
}

TEST(BatchRewriter, PerTaskOptionsOverrideBatchDefaults) {
  zelf::Image img = must_assemble(program_source(3));
  RewriteOptions alt;
  alt.placement = rewriter::PlacementKind::kDiversity;
  alt.seed = 12345;

  std::vector<BatchTask> tasks;
  tasks.push_back({"default", img, std::nullopt});
  tasks.push_back({"override", img, alt});
  BatchResult r = BatchRewriter(BatchOptions{}).run(std::move(tasks));
  ASSERT_TRUE(r.items[0].result.ok());
  ASSERT_TRUE(r.items[1].result.ok());
  EXPECT_NE(r.items[0].result->image.text().bytes, r.items[1].result->image.text().bytes)
      << "per-task options were ignored";
}

TEST(BatchRewriter, EmptyBatchIsANoOp) {
  BatchResult r = BatchRewriter(BatchOptions{}).run({});
  EXPECT_TRUE(r.items.empty());
  EXPECT_EQ(r.stats.total, 0u);
  EXPECT_EQ(r.stats.succeeded, 0u);
  EXPECT_EQ(r.stats.failed, 0u);
}

TEST(BatchRewriter, StatsPercentilesAreOrdered) {
  std::vector<zelf::Image> images;
  for (int i = 0; i < 8; ++i) images.push_back(must_assemble(program_source(i)));
  BatchOptions opts;
  opts.jobs = 2;
  BatchResult r = batch::rewrite_batch(images, opts);
  ASSERT_EQ(r.stats.succeeded, images.size());
  EXPECT_EQ(r.stats.jobs, 2u);
  EXPECT_GT(r.stats.wall_ms, 0.0);
  for (const batch::StagePercentiles* p :
       {&r.stats.ir, &r.stats.transform, &r.stats.reassembly, &r.stats.item_total}) {
    EXPECT_LE(p->p50_ms, p->p90_ms);
    EXPECT_LE(p->p90_ms, p->p99_ms);
    EXPECT_LE(p->p99_ms, p->max_ms);
  }
  // Stage times nest inside the per-item wall time.
  EXPECT_GT(r.stats.item_total.max_ms, 0.0);
}

// ---- stress: valid and corrupt inputs concurrently ----
//
// The ASan/TSan workhorse: many rounds of mixed good/bad tasks on many
// threads, verifying isolation and determinism every round.
TEST(BatchRewriter, StressMixedCorpusUnderContention) {
  constexpr int kTasks = 24;
  constexpr int kRounds = 4;

  std::vector<Bytes> reference;  // serialized outputs of round 0's successes
  for (int round = 0; round < kRounds; ++round) {
    std::vector<BatchTask> tasks;
    for (int i = 0; i < kTasks; ++i) {
      if (i % 3 == 2) {
        if (i % 2 == 0) {
          tasks.push_back({"bad-" + std::to_string(i), corrupt_image(), std::nullopt});
        } else {
          tasks.push_back({"bad-" + std::to_string(i),
                           batch::ImageFactory([i]() -> Result<zelf::Image> {
                             if (i % 6 == 1) throw std::runtime_error("factory blew up");
                             return Error::decode("synthetic decode failure");
                           }),
                           std::nullopt});
        }
      } else {
        // Lazy factories exercise concurrent materialization too.
        tasks.push_back({"good-" + std::to_string(i),
                         batch::ImageFactory([i]() -> Result<zelf::Image> {
                           return must_assemble(program_source(i));
                         }),
                         std::nullopt});
      }
    }

    BatchOptions opts;
    opts.jobs = 8;
    BatchResult r = BatchRewriter(opts).run(std::move(tasks));
    ASSERT_EQ(r.items.size(), static_cast<std::size_t>(kTasks));

    std::vector<Bytes> outputs;
    for (int i = 0; i < kTasks; ++i) {
      if (i % 3 == 2) {
        EXPECT_FALSE(r.items[i].result.ok()) << "corrupt task " << i << " succeeded";
      } else {
        ASSERT_TRUE(r.items[i].result.ok())
            << "task " << i << ": " << r.items[i].result.error().message;
        outputs.push_back(zelf::write_image(r.items[i].result->image));
      }
    }
    EXPECT_EQ(r.stats.failed, static_cast<std::size_t>(kTasks / 3));
    EXPECT_EQ(r.stats.succeeded, static_cast<std::size_t>(kTasks - kTasks / 3));

    if (round == 0) {
      reference = std::move(outputs);
    } else {
      EXPECT_EQ(outputs, reference) << "round " << round << " diverged";
    }
  }
}

}  // namespace
}  // namespace zipr
