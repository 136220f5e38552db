#include "zipr/workspace.h"

namespace zipr {

void RewriteWorkspace::finish_cycle() {
  std::size_t demand = arena_.used_bytes() + analysis_.used_bytes();
  window_[cycles_++ % kWindow] = demand;
  std::size_t peak = *std::max_element(window_, window_ + kWindow);
  std::size_t budget = 2 * peak + kSlack;
  if (retained_bytes() <= budget) return;
  // The arena trims to whole chunks; the scratch vectors release outright
  // and re-reserve to exact need next pass. Both are cost, not
  // correctness: the next rewrite simply starts cold again.
  arena_.trim(2 * arena_.used_bytes() + kSlack);
  analysis_.trim();
}

RewriteWorkspace& this_thread_workspace() {
  static thread_local RewriteWorkspace workspace;
  return workspace;
}

}  // namespace zipr
