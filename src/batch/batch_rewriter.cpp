#include "batch/batch_rewriter.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "batch/worker_pool.h"
#include "support/log.h"

namespace zipr::batch {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Run one task start-to-finish on whatever thread calls this. Exceptions
/// (the library itself reports via Result, but e.g. bad_alloc can still
/// surface) are converted to error slots: one bad input must never take the
/// batch down.
BatchItem run_task(const BatchTask& task, const RewriteOptions& defaults) {
  Clock::time_point start = Clock::now();
  auto finish = [&](Result<RewriteResult> r) {
    BatchItem item{task.name, std::move(r), ms_since(start)};
    return item;
  };
  try {
    const RewriteOptions& opts = task.options ? *task.options : defaults;
    if (const auto* factory = std::get_if<ImageFactory>(&task.input)) {
      if (!*factory)
        return finish(Error::invalid_argument("batch task '" + task.name +
                                              "' has an empty image factory"));
      Result<zelf::Image> img = (*factory)();
      if (!img.ok()) return finish(img.error());
      return finish(rewrite(*img, opts));
    }
    return finish(rewrite(std::get<zelf::Image>(task.input), opts));
  } catch (const std::exception& e) {
    return finish(Error::internal("uncaught exception in batch task '" + task.name +
                                  "': " + e.what()));
  } catch (...) {
    return finish(Error::internal("uncaught non-standard exception in batch task '" +
                                  task.name + "'"));
  }
}

StagePercentiles percentiles_of(std::vector<double>& samples) {
  StagePercentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    std::size_t i = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(i, samples.size() - 1)];
  };
  p.p50_ms = at(0.50);
  p.p90_ms = at(0.90);
  p.p99_ms = at(0.99);
  p.max_ms = samples.back();
  return p;
}

BatchStats aggregate(const std::vector<BatchItem>& items, double wall_ms, std::size_t jobs) {
  BatchStats stats;
  stats.total = items.size();
  stats.wall_ms = wall_ms;
  stats.jobs = jobs;

  std::vector<double> ir, transform, reassembly, total;
  for (const BatchItem& item : items) {
    total.push_back(item.total_ms);
    if (!item.result.ok()) {
      ++stats.failed;
      auto kind = static_cast<std::size_t>(item.result.error().kind);
      if (kind < stats.failures_by_kind.size()) ++stats.failures_by_kind[kind];
      continue;
    }
    ++stats.succeeded;
    const StageTimes& t = item.result->timing;
    ir.push_back(t.ir_ms);
    transform.push_back(t.transform_ms);
    reassembly.push_back(t.reassembly_ms);
  }
  stats.ir = percentiles_of(ir);
  stats.transform = percentiles_of(transform);
  stats.reassembly = percentiles_of(reassembly);
  stats.item_total = percentiles_of(total);
  return stats;
}

}  // namespace

BatchResult BatchRewriter::run(std::vector<BatchTask> tasks) const {
  Clock::time_point start = Clock::now();
  std::size_t jobs = effective_jobs(options_.jobs, tasks.size());

  // Workers fill disjoint slots of a pre-sized vector, so the output order
  // is the submission order by construction and no result lock is needed.
  std::vector<std::optional<BatchItem>> slots(tasks.size());
  parallel_for(static_cast<int>(jobs), tasks.size(), [&](std::size_t i) {
    slots[i] = run_task(tasks[i], options_.rewrite);
  });

  BatchResult out;
  out.items.reserve(tasks.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]) {
      // Unreachable while parallel_for runs every index; keep the slot
      // accounted for rather than silently shifting later items.
      out.items.push_back({tasks[i].name,
                           Error::internal("batch task '" + tasks[i].name + "' never ran"), 0});
      continue;
    }
    out.items.push_back(std::move(*slots[i]));
  }
  out.stats = aggregate(out.items, ms_since(start), jobs);

  if (out.stats.failed > 0) {
    ZIPR_INFO << "batch: " << out.stats.failed << " of " << out.stats.total
              << " task(s) failed (isolated; batch completed)";
  }
  return out;
}

BatchResult rewrite_batch(const std::vector<zelf::Image>& images, const BatchOptions& options) {
  std::vector<BatchTask> tasks;
  tasks.reserve(images.size());
  for (std::size_t i = 0; i < images.size(); ++i)
    tasks.push_back({"image-" + std::to_string(i), images[i], std::nullopt});
  return BatchRewriter(options).run(std::move(tasks));
}

}  // namespace zipr::batch
