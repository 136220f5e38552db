#include "zipr/workspace.h"

namespace zipr {

void RewriteWorkspace::finish_cycle() {
  std::size_t demand = arena_.used_bytes();
  window_[cycles_++ % kWindow] = demand;
  std::size_t peak = *std::max_element(window_, window_ + kWindow);
  if (retained_bytes() <= 2 * peak + kSlack) return;
  // The arena trims to whole chunks. That costs time, never correctness:
  // the next rewrite simply grows it again.
  arena_.trim(2 * demand + kSlack);
}

RewriteWorkspace& this_thread_workspace() {
  static thread_local RewriteWorkspace workspace;
  return workspace;
}

}  // namespace zipr
