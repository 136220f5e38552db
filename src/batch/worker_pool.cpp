#include "batch/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

#include "support/log.h"

namespace zipr::batch {

std::size_t effective_jobs(int requested, std::size_t tasks) {
  std::size_t jobs = requested > 0 ? static_cast<std::size_t>(requested)
                                   : std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(jobs, std::max<std::size_t>(1, tasks)));
}

void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  const std::size_t helpers = effective_jobs(jobs, n) - 1;
  std::vector<std::jthread> threads;  // joined on every way out
  threads.reserve(helpers);
  try {
    for (std::size_t t = 0; t < helpers; ++t) threads.emplace_back(worker);
  } catch (const std::system_error& e) {
    // Out of threads: the ones already running share every index.
    ZIPR_WARN << "parallel_for: started " << threads.size() + 1 << " of " << helpers + 1
              << " threads: " << e.what();
  }
  worker();
}

}  // namespace zipr::batch
