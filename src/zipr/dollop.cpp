#include "zipr/dollop.h"

#include <algorithm>
#include <cassert>

#include "isa/insn.h"

namespace zipr::rewriter {

namespace {
constexpr std::uint64_t kJumpSize = isa::kJmp32Len;

/// The chain's prefix sums from `d`'s first row on: d's rows [0, i) hold
/// sums[i] - sums[0] estimated bytes.
const std::uint64_t* sums_from(const Dollop* d) {
  return d->chain->prefix + (d->insns.data() - d->chain->rows);
}
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

Dollop* DollopManager::split(Dollop* d, std::size_t pos) {
  assert(pos > 0 && pos < d->insns.size());
  Dollop* tail = arena_.create<Dollop>();
  tail->insns = d->insns.subspan(pos);
  tail->chain = d->chain;
  tail->continuation = d->continuation;
  d->insns = d->insns.first(pos);
  d->continuation = tail->insns.front();
  ++splits_;

  // The tail's rows keep their {chain, position} index entries; only the
  // chain's boundary list learns the new window.
  ArenaVector<Dollop*>& parts = d->chain->parts;
  auto it = std::lower_bound(parts.begin(), parts.end(), d,
                             [](const Dollop* a, const Dollop* b) {
                               return a->insns.data() < b->insns.data();
                             });
  parts.insert(static_cast<std::size_t>(it - parts.begin()) + 1, tail);
  recompute(d);
  recompute(tail);
  adopt(tail);
  return tail;
}

Dollop* DollopManager::split_to_fit(Dollop* d, std::uint64_t max_bytes) {
  if (d->insns.size() < 2 || max_bytes < kJumpSize) return nullptr;
  // The head keeps rows [0, pos): the longest prefix whose bytes plus the
  // split's jump fit. Sizes are non-negative, so the sums are sorted.
  const std::uint64_t* sums = sums_from(d);
  const std::uint64_t* first = sums + 1;
  const std::uint64_t* last = first + d->insns.size();
  auto pos = static_cast<std::size_t>(
      std::upper_bound(first, last, sums[0] + max_bytes - kJumpSize) - first);
  if (pos == 0 || pos >= d->insns.size()) return nullptr;
  return split(d, pos);
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

void DollopManager::recompute(Dollop* d) {
  const std::uint64_t* sums = sums_from(d);
  d->size_estimate = sums[d->insns.size()] - sums[0] +
                     (d->continuation != irdb::kNullInsn ? kJumpSize : 0);
}

}  // namespace zipr::rewriter
