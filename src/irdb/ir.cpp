#include "irdb/ir.h"

#include <cassert>

namespace zipr::irdb {

void Database::set_backing(ByteView text, std::uint64_t vaddr) {
  assert(blob_.empty() && "set_backing must precede row insertion");
  blob_.assign(text.begin(), text.end());
  backing_vaddr_ = vaddr;
  backing_len_ = text.size();
}

OrigView Database::intern(ByteView bytes) {
  if (bytes.empty()) return {};
  // Re-interning bytes that already live in the blob (row snapshots,
  // cross-row assignment) is a no-copy offset computation.
  if (!blob_.empty() && bytes.data() >= blob_.data() &&
      bytes.data() + bytes.size() <= blob_.data() + blob_.size()) {
    return {static_cast<std::uint32_t>(bytes.data() - blob_.data()),
            static_cast<std::uint32_t>(bytes.size())};
  }
  OrigView v{static_cast<std::uint32_t>(blob_.size()),
             static_cast<std::uint32_t>(bytes.size())};
  blob_.insert(blob_.end(), bytes.begin(), bytes.end());
  return v;
}

OrigView Database::intern_at(std::uint64_t addr, ByteView bytes) {
  if (backing_len_ != 0 && addr >= backing_vaddr_ &&
      addr - backing_vaddr_ + bytes.size() <= backing_len_) {
    std::uint32_t off = static_cast<std::uint32_t>(addr - backing_vaddr_);
    assert(std::equal(bytes.begin(), bytes.end(), blob_.begin() + off) &&
           "orig_bytes disagree with the backing image at orig_addr");
    return {off, static_cast<std::uint32_t>(bytes.size())};
  }
  return intern(bytes);
}

InsnId Database::push_row(const isa::Insn& decoded, std::optional<std::uint64_t> orig_addr,
                          OrigView orig, InsnId fallthrough, InsnId target,
                          std::optional<std::uint64_t> abs_target,
                          std::optional<std::uint64_t> data_ref, FuncId function,
                          bool verbatim) {
  decoded_.push_back(decoded);
  orig_addr_.push_back(orig_addr);
  orig_.push_back(orig);
  fallthrough_.push_back(fallthrough);
  target_.push_back(target);
  abs_target_.push_back(abs_target);
  data_ref_.push_back(data_ref);
  function_.push_back(function);
  verbatim_.push_back(verbatim ? 1 : 0);
  return static_cast<InsnId>(decoded_.size());
}

void Database::reserve_insns(std::size_t n) {
  decoded_.reserve(n);
  orig_addr_.reserve(n);
  orig_.reserve(n);
  fallthrough_.reserve(n);
  target_.reserve(n);
  abs_target_.reserve(n);
  data_ref_.reserve(n);
  function_.reserve(n);
  verbatim_.reserve(n);
}

InsnId Database::add_instruction(Instruction insn) {
  OrigView v = insn.orig_addr ? intern_at(*insn.orig_addr, insn.orig_bytes)
                              : intern(insn.orig_bytes);
  return push_row(insn.decoded, insn.orig_addr, v, insn.fallthrough, insn.target,
                  insn.abs_target, insn.data_ref, insn.function, insn.verbatim);
}

InsnId Database::add_new(const isa::Insn& decoded) {
  isa::Insn d = decoded;
  d.length = static_cast<std::uint8_t>(isa::encoded_length(decoded));
  return push_row(d, std::nullopt, {}, kNullInsn, kNullInsn, std::nullopt, std::nullopt,
                  kNullFunc, false);
}

InsnId Database::add_originals(std::span<const std::pair<std::uint64_t, isa::Insn>> lifted) {
  const std::size_t base = decoded_.size();
  const std::size_t n = base + lifted.size();
  // Size every column once; the links, function ids and flags of a lifted
  // row start null, so those columns are filled by the resize itself.
  decoded_.resize(n);
  orig_addr_.resize(n);
  orig_.resize(n);
  fallthrough_.resize(n, kNullInsn);
  target_.resize(n, kNullInsn);
  abs_target_.resize(n);
  data_ref_.resize(n);
  function_.resize(n, kNullFunc);
  verbatim_.resize(n, 0);
  for (std::size_t i = 0; i < lifted.size(); ++i) decoded_[base + i] = lifted[i].second;
  for (std::size_t i = 0; i < lifted.size(); ++i) orig_addr_[base + i] = lifted[i].first;
  for (std::size_t i = 0; i < lifted.size(); ++i) {
    const auto& [addr, insn] = lifted[i];
    assert(backing_len_ != 0 && addr >= backing_vaddr_ &&
           addr - backing_vaddr_ + insn.length <= backing_len_);
    orig_[base + i] = {static_cast<std::uint32_t>(addr - backing_vaddr_), insn.length};
  }
  return static_cast<InsnId>(base + 1);
}

InsnId Database::add_verbatim_range(std::uint64_t addr, std::uint32_t len) {
  assert(backing_len_ != 0 && addr >= backing_vaddr_ &&
         addr - backing_vaddr_ + len <= backing_len_);
  OrigView v{static_cast<std::uint32_t>(addr - backing_vaddr_), len};
  isa::Insn raw;  // verbatim rows carry no semantic form
  return push_row(raw, addr, v, kNullInsn, kNullInsn, std::nullopt, std::nullopt,
                  kNullFunc, true);
}

Instruction Database::snapshot(InsnId id) const {
  assert(has_insn(id));
  std::size_t i = id - 1;
  Instruction out;
  out.id = id;
  out.decoded = decoded_[i];
  out.orig_addr = orig_addr_[i];
  ByteView b = orig_bytes_of(id);
  out.orig_bytes.assign(b.begin(), b.end());
  out.fallthrough = fallthrough_[i];
  out.target = target_[i];
  out.abs_target = abs_target_[i];
  out.data_ref = data_ref_[i];
  out.function = function_[i];
  out.verbatim = verbatim_[i] != 0;
  return out;
}

Status Database::pin(std::uint64_t addr, InsnId id) {
  if (!has_insn(id)) return Error::invalid_argument("pin names unknown instruction");
  if (pins_.empty() || pins_.back().first < addr) {
    pins_.emplace_back(addr, id);  // ascending insertion: the common case
    return Status::success();
  }
  auto it = std::lower_bound(pins_.begin(), pins_.end(), addr,
                             [](const auto& p, std::uint64_t a) { return p.first < a; });
  if (it != pins_.end() && it->first == addr)
    return Error::internal("address " + hex_addr(addr) + " already pinned");
  pins_.insert(it, {addr, id});
  return Status::success();
}

InsnId Database::pinned_at(std::uint64_t addr) const {
  auto it = std::lower_bound(pins_.begin(), pins_.end(), addr,
                             [](const auto& p, std::uint64_t a) { return p.first < a; });
  return (it != pins_.end() && it->first == addr) ? it->second : kNullInsn;
}

Status Database::repin(std::uint64_t addr, InsnId id) {
  auto it = std::lower_bound(pins_.begin(), pins_.end(), addr,
                             [](const auto& p, std::uint64_t a) { return p.first < a; });
  if (it == pins_.end() || it->first != addr)
    return Error::not_found("no pin at " + hex_addr(addr));
  if (!has_insn(id)) return Error::invalid_argument("repin names unknown instruction");
  it->second = id;
  return Status::success();
}

FuncId Database::add_function(Function f) {
  FuncId id = static_cast<FuncId>(funcs_.size() + 1);
  f.id = id;
  funcs_.push_back(std::move(f));
  return id;
}

Function& Database::function(FuncId id) {
  assert(id > 0 && id <= funcs_.size());
  return funcs_[id - 1];
}

const Function& Database::function(FuncId id) const {
  assert(id > 0 && id <= funcs_.size());
  return funcs_[id - 1];
}

InsnId Database::insert_before(InsnId id, const isa::Insn& what) {
  assert(has_insn(id));
  // Move the original payload to a fresh row (a straight column copy --
  // the orig-bytes view transfers without touching the blob)...
  std::size_t i = id - 1;
  InsnId moved_id = push_row(decoded_[i], orig_addr_[i], orig_[i], fallthrough_[i],
                             target_[i], abs_target_[i], data_ref_[i], function_[i],
                             verbatim_[i] != 0);
  // ...then rewrite row `id` in place as the inserted instruction. All
  // existing links/pins to `id` now reach `what` first, then fall through
  // to the original payload -- without scanning for back-references.
  i = id - 1;  // (columns may have reallocated)
  decoded_[i] = what;
  decoded_[i].length = static_cast<std::uint8_t>(isa::encoded_length(what));
  orig_[i] = {};
  verbatim_[i] = 0;
  target_[i] = kNullInsn;
  abs_target_[i] = std::nullopt;
  data_ref_[i] = std::nullopt;
  fallthrough_[i] = moved_id;
  // The moved payload keeps its own links; the pin (if any) stays on `id`
  // because pins are keyed by address, and orig_addr stays on the moved row
  // to preserve provenance.
  orig_addr_[i] = std::nullopt;
  FuncId func = function_[moved_id - 1];
  if (func != kNullFunc) {
    // Record membership of the new row.
    function(func).members.push_back(moved_id);
  }
  return moved_id;
}

InsnId Database::insert_after(InsnId id, const isa::Insn& what) {
  assert(has_insn(id));
  isa::Insn d = what;
  d.length = static_cast<std::uint8_t>(isa::encoded_length(what));
  InsnId new_id = push_row(d, std::nullopt, {}, fallthrough_[id - 1], kNullInsn,
                           std::nullopt, std::nullopt, function_[id - 1], false);
  fallthrough_[id - 1] = new_id;
  FuncId func = function_[new_id - 1];
  if (func != kNullFunc) function(func).members.push_back(new_id);
  return new_id;
}

void Database::replace(InsnId id, const isa::Insn& what) {
  assert(has_insn(id));
  std::size_t i = id - 1;
  decoded_[i] = what;
  decoded_[i].length = static_cast<std::uint8_t>(isa::encoded_length(what));
  orig_[i] = {};
  verbatim_[i] = 0;
}

Status Database::remove(InsnId id) {
  if (!has_insn(id)) return Error::invalid_argument("remove names unknown instruction");
  InsnId ft = fallthrough_[id - 1];
  if (ft == kNullInsn)
    return Error::invalid_argument("cannot remove instruction with no fallthrough");
  for (auto& f : fallthrough_)
    if (f == id) f = ft;
  for (auto& t : target_)
    if (t == id) t = ft;
  for (auto& [addr, pinned] : pins_)
    if (pinned == id) pinned = ft;
  for (auto& f : funcs_)
    if (f.entry == id) f.entry = ft;
  return Status::success();
}

Status Database::validate() const {
  for (std::size_t i = 0; i < decoded_.size(); ++i) {
    InsnId id = static_cast<InsnId>(i + 1);
    if (fallthrough_[i] != kNullInsn && !has_insn(fallthrough_[i]))
      return Error::internal("dangling fallthrough from insn " + std::to_string(id));
    if (target_[i] != kNullInsn && !has_insn(target_[i]))
      return Error::internal("dangling target from insn " + std::to_string(id));
    if (target_[i] != kNullInsn && abs_target_[i])
      return Error::internal("insn " + std::to_string(id) +
                             " has both target and abs_target (mutually exclusive)");
    if (verbatim_[i]) {
      if (!orig_addr_[i])
        return Error::internal("verbatim insn " + std::to_string(id) + " has no orig_addr");
      if (orig_[i].len == 0)
        return Error::internal("verbatim insn " + std::to_string(id) + " has no bytes");
    }
    if (function_[i] != kNullFunc && function_[i] > funcs_.size())
      return Error::internal("insn " + std::to_string(id) + " names unknown function");
  }
  for (const auto& [addr, id] : pins_) {
    if (!has_insn(id)) return Error::internal("pin at " + hex_addr(addr) + " dangles");
  }
  for (const auto& f : funcs_) {
    if (f.entry != kNullInsn && !has_insn(f.entry))
      return Error::internal("function " + f.name + " entry dangles");
    for (InsnId m : f.members)
      if (!has_insn(m)) return Error::internal("function " + f.name + " member dangles");
  }
  return Status::success();
}

}  // namespace zipr::irdb
