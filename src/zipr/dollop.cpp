#include "zipr/dollop.h"

#include <algorithm>
#include <cassert>

#include "isa/insn.h"

namespace zipr::rewriter {

namespace {
constexpr std::uint64_t kJumpSize = isa::kJmp32Len;
}  // namespace

std::uint64_t estimated_size(irdb::ConstRowRef row) {
  if (row.verbatim) return row.orig_bytes.size();
  isa::Insn wide = row.decoded;
  // Branches may be emitted rel8 when their target lands nearby, but the
  // estimate assumes the full rel32 form.
  if (wide.op == isa::Op::kJmp || wide.op == isa::Op::kJcc)
    wide.width = isa::BranchWidth::kRel32;
  return static_cast<std::uint64_t>(isa::encoded_length(wide));
}

Dollop* DollopManager::split(Dollop* d, std::uint32_t at) {
  assert(d->first < at && at < d->last);
  Dollop& tail = nodes_.emplace_back();
  tail.first = at;
  tail.last = d->last;
  tail.continuation = d->continuation;
  d->last = at;
  d->continuation = rows_[at];
  ++splits_;

  // The tail's rows keep their index entries; only the window list learns
  // the new window, right after its head.
  parts_.insert(after(at), &tail);
  recompute(*d);
  recompute(tail);
  adopt(&tail);
  return &tail;
}

Dollop* DollopManager::split_to_fit(Dollop* d, std::uint64_t max_bytes) {
  const std::uint32_t rows = d->last - d->first;
  if (rows < 2 || max_bytes < kJumpSize) return nullptr;
  // The head keeps the longest run of rows whose bytes plus the split's
  // jump fit. Sizes are non-negative, so the sums are sorted.
  auto first = prefix_.begin() + d->first + 1;
  auto last = prefix_.begin() + d->last + 1;
  auto n = static_cast<std::uint32_t>(
      std::upper_bound(first, last, prefix_[d->first] + max_bytes - kJumpSize) - first);
  if (n == 0 || n >= rows) return nullptr;
  return split(d, d->first + n);
}

Status DollopManager::retire(Dollop* d) {
  std::size_t i = d->slot;
  if (i >= dollops_.size() || dollops_[i] != d)
    return Error::internal("retire of unknown (or already retired) dollop; slot " +
                           std::to_string(i) + " of " + std::to_string(dollops_.size()));
  if (i + 1 != dollops_.size()) {
    dollops_[i] = dollops_.back();
    dollops_[i]->slot = i;
  }
  dollops_.pop_back();
  return Status::success();
}

void DollopManager::recompute(Dollop& d) {
  d.size_estimate = prefix_[d.last] - prefix_[d.first] +
                    (d.continuation != irdb::kNullInsn ? kJumpSize : 0);
}

}  // namespace zipr::rewriter
