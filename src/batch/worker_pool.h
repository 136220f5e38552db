// The one way the project runs work in parallel.
//
// parallel_for runs fn(0..n-1) on the calling thread plus jobs - 1
// std::jthread helpers, each claiming the next index from one shared atomic
// counter until none are left. There is no queue and no long-lived pool:
// the helpers are started per call and joined before it returns.
#pragma once

#include <cstddef>
#include <functional>

namespace zipr::batch {

/// Resolved worker count for a requested job count: n <= 0 means "use the
/// hardware", otherwise n, capped at `tasks` when the batch is smaller.
std::size_t effective_jobs(int requested, std::size_t tasks);

/// Run fn(0..n-1) on the calling thread plus effective_jobs(jobs, n) - 1
/// helper threads and block until all complete. jobs <= 1 is the plain
/// in-order loop on the calling thread. Each index is invoked exactly once,
/// also when the system cannot start every helper (the shortfall is logged
/// and the threads that did start share the work). fn must handle its own
/// synchronization for any shared state beyond per-index slots.
void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace zipr::batch
