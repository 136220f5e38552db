// The IR database (IRDB): the representation mediating between IR
// construction, transformation and reassembly (paper Sec. II).
//
// The paper's IRDB is an SQL database shared by cooperating tools; here it
// is an in-memory relational store with the same schema essentials:
//
//   * an instruction table where control-flow relationships are LOGICAL
//     links (fallthrough id, target id) rather than addresses, so
//     instructions can be re-placed anywhere (Sec. II-A1);
//   * a pinned-address table mapping original addresses that may be
//     targeted indirectly at runtime to the instruction that must appear
//     to live there (Sec. II-A2);
//   * a function table used by the user-transform API and by CFI.
//
// Storage is struct-of-arrays: each column of the instruction table is a
// dense vector indexed by id-1, so the hot reassembly loops (which touch
// only fallthrough/target/length) stream over contiguous memory instead of
// chasing 120-byte row objects. `insn(id)` returns a lightweight row PROXY
// whose members are references into the columns -- call sites keep the
// `row.field` syntax of a materialized struct. Original bytes are not
// copied per row: the database retains ONE copy of the input text image
// (`set_backing`) and rows reference (offset, length) views into it;
// synthetic bytes (deserialized rows, tests) are interned into an overflow
// region of the same blob.
//
// A pinned address `a` corresponds to exactly one instruction id at any
// time. Transforms that rewrite the instruction in place keep the pin
// attached (Fig. 2's i -> i' example); insert_before() exploits this by
// rewriting the pinned id and moving the original payload to a fresh id.
// The pin table is a sorted flat vector: IR construction appends pins in
// ascending address order (the common case is O(1)), and lookup is a
// binary search.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "isa/insn.h"
#include "support/bytes.h"
#include "support/status.h"

namespace zipr::irdb {

/// Instruction id; 0 is the null id.
using InsnId = std::uint32_t;
inline constexpr InsnId kNullInsn = 0;

using FuncId = std::uint32_t;
inline constexpr FuncId kNullFunc = 0;

/// A materialized instruction row: the INSERTION RECORD for
/// Database::add_instruction and the snapshot type for structured edits.
/// The database itself does not store these -- see the column arrays.
struct Instruction {
  InsnId id = kNullInsn;
  isa::Insn decoded;  ///< semantic form; branch displacement fields are NOT
                      ///< authoritative -- `target` is (mandatory transform)

  /// Address in the original program, if this instruction came from it.
  /// New instructions added by transforms have no original address.
  std::optional<std::uint64_t> orig_addr;

  /// Original encoding. Used (a) to re-emit `verbatim` rows byte-exactly
  /// and (b) by tests comparing pre/post images.
  Bytes orig_bytes;

  InsnId fallthrough = kNullInsn;  ///< logical successor; null if none
  InsnId target = kNullInsn;       ///< logical static CF target; null if none

  /// Static CF target expressed as an ORIGINAL absolute address, used when
  /// the target was not lifted to a row (it lies inside a verbatim
  /// code/data range that stays at its original location). Mutually
  /// exclusive with `target` (enforced by validate()).
  std::optional<std::uint64_t> abs_target;

  /// For PC-relative data instructions (lea/loadpc): the absolute address
  /// of the referenced datum. Data keeps its original addresses after
  /// rewriting, so an absolute link suffices; if the referent is in the
  /// text segment the analysis will have pinned it.
  std::optional<std::uint64_t> data_ref;

  FuncId function = kNullFunc;

  /// True if this row's bytes must appear verbatim at orig_addr in the
  /// output: the conservative handling of ranges that may be data
  /// (paper's disassembly Cases 2 and 3).
  bool verbatim = false;

  bool is_valid() const { return id != kNullInsn; }
};

/// One row of the function table.
struct Function {
  FuncId id = kNullFunc;
  std::string name;      ///< synthesized ("func_400123") -- no symbols used
  InsnId entry = kNullInsn;
  std::vector<InsnId> members;  ///< instruction ids, entry first
};

class Database;

/// (offset, length) view into the database's retained byte blob.
struct OrigView {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

/// Read-only handle to a row's original bytes (a view into the blob).
class ConstOrigBytesRef {
 public:
  ConstOrigBytesRef(const Database* db, const OrigView* v) : db_(db), v_(v) {}
  std::size_t size() const { return v_->len; }
  bool empty() const { return v_->len == 0; }
  inline ByteView view() const;
  operator ByteView() const { return view(); }
  friend bool operator==(const ConstOrigBytesRef& a, ByteView b) {
    ByteView av = a.view();
    return std::equal(av.begin(), av.end(), b.begin(), b.end());
  }

 protected:
  const Database* db_;
  const OrigView* v_;
};

/// Mutable handle: assignment interns bytes into the blob; clear() drops
/// the view (the blob itself is append-only within a database lifetime).
class OrigBytesRef : public ConstOrigBytesRef {
 public:
  OrigBytesRef(Database* db, OrigView* v) : ConstOrigBytesRef(db, v) {}
  void clear() { const_cast<OrigView*>(v_)->len = 0; }
  inline OrigBytesRef& operator=(ByteView bytes);
};

/// Read-only row proxy over the column arrays. Cheap to construct; member
/// access compiles to a column load. `id` is the row's identity, not a
/// mutable field.
struct ConstRowRef {
  const InsnId id;
  const isa::Insn& decoded;
  const std::optional<std::uint64_t>& orig_addr;
  ConstOrigBytesRef orig_bytes;
  const InsnId& fallthrough;
  const InsnId& target;
  const std::optional<std::uint64_t>& abs_target;
  const std::optional<std::uint64_t>& data_ref;
  const FuncId& function;
  const std::uint8_t& verbatim;

  bool is_valid() const { return id != kNullInsn; }
};

/// Mutable row proxy.
struct RowRef {
  const InsnId id;
  isa::Insn& decoded;
  std::optional<std::uint64_t>& orig_addr;
  OrigBytesRef orig_bytes;
  InsnId& fallthrough;
  InsnId& target;
  std::optional<std::uint64_t>& abs_target;
  std::optional<std::uint64_t>& data_ref;
  FuncId& function;
  std::uint8_t& verbatim;  ///< boolean; stored dense as one byte

  bool is_valid() const { return id != kNullInsn; }
  operator ConstRowRef() const {
    return ConstRowRef{id,         decoded,    orig_addr, orig_bytes, fallthrough,
                       target,     abs_target, data_ref,  function,   verbatim};
  }
};

/// The database. Owns all rows; ids are stable for the database's lifetime.
class Database {
 public:
  // ---- byte backing ----

  /// Retain one copy of the original text image. Rows whose orig_bytes lie
  /// inside [vaddr, vaddr+text.size()) reference it with zero copies; call
  /// once, before lifting rows. Safe to skip (all bytes are then interned
  /// into the overflow region).
  void set_backing(ByteView text, std::uint64_t vaddr);

  ByteView blob() const { return blob_; }

  // ---- instruction table ----

  /// Add a new instruction row; returns its id. Non-empty orig_bytes are
  /// interned: referenced in place when they alias the backing image,
  /// appended to the overflow blob otherwise.
  InsnId add_instruction(Instruction insn);

  /// Convenience: add a brand-new (transform-created) instruction from its
  /// semantic form, with no original address.
  InsnId add_new(const isa::Insn& decoded);

  /// Fast path for IR construction: one row per (addr, decoded) pair, each
  /// lifted from the original image at `addr` with original bytes
  /// backing[addr .. addr+length) (no byte copy). The rows take
  /// consecutive ids; returns the first.
  InsnId add_originals(std::span<const std::pair<std::uint64_t, isa::Insn>> lifted);

  /// Fast path for IR construction: a verbatim row covering the backing
  /// range [addr, addr+len) byte-exactly.
  InsnId add_verbatim_range(std::uint64_t addr, std::uint32_t len);

  RowRef insn(InsnId id) {
    assert(has_insn(id));
    std::size_t i = id - 1;
    return RowRef{id,           decoded_[i],
                  orig_addr_[i], OrigBytesRef(this, &orig_[i]),
                  fallthrough_[i], target_[i],
                  abs_target_[i], data_ref_[i],
                  function_[i],  verbatim_[i]};
  }
  ConstRowRef insn(InsnId id) const {
    assert(has_insn(id));
    std::size_t i = id - 1;
    return ConstRowRef{id,           decoded_[i],
                       orig_addr_[i], ConstOrigBytesRef(this, &orig_[i]),
                       fallthrough_[i], target_[i],
                       abs_target_[i], data_ref_[i],
                       function_[i],  verbatim_[i]};
  }

  /// Materialize a full copy of a row (structured edits, serialization).
  Instruction snapshot(InsnId id) const;

  bool has_insn(InsnId id) const { return id > 0 && id <= decoded_.size(); }
  std::size_t insn_count() const { return decoded_.size(); }

  ByteView orig_bytes_of(InsnId id) const {
    const OrigView& v = orig_[id - 1];
    return ByteView(blob_).subspan(v.off, v.len);
  }

  /// Reserve column capacity ahead of bulk row insertion.
  void reserve_insns(std::size_t n);

  /// Iterate all instruction rows in creation order (proxy per row).
  template <typename Fn>
  void for_each_insn(Fn&& fn) {
    for (InsnId id = 1; id <= decoded_.size(); ++id) fn(insn(id));
  }
  template <typename Fn>
  void for_each_insn(Fn&& fn) const {
    for (InsnId id = 1; id <= decoded_.size(); ++id) fn(insn(id));
  }

  // ---- pinned-address table ----

  using PinVec = std::vector<std::pair<std::uint64_t, InsnId>>;

  /// Pin `addr` to instruction `id`. An address pins at most one id;
  /// re-pinning an address is an error (internal invariant). Ascending
  /// insertion (IR construction order) is amortized O(1).
  Status pin(std::uint64_t addr, InsnId id);

  /// The instruction pinned at `addr`, or null.
  InsnId pinned_at(std::uint64_t addr) const;

  /// All (address, id) pins in ascending address order.
  const PinVec& pins() const { return pins_; }

  /// Move the pin at `addr` to a different instruction (used by
  /// insert_before-style edits at pin boundaries).
  Status repin(std::uint64_t addr, InsnId id);

  // ---- function table ----

  FuncId add_function(Function f);
  Function& function(FuncId id);
  const Function& function(FuncId id) const;
  std::size_t function_count() const { return funcs_.size(); }
  template <typename Fn>
  void for_each_function(Fn&& fn) {
    for (auto& f : funcs_) fn(f);
  }
  template <typename Fn>
  void for_each_function(Fn&& fn) const {
    for (const auto& f : funcs_) fn(f);
  }

  // ---- structured edits (the substrate of the user-transform API) ----

  /// Insert `what` immediately before instruction `id` in control flow:
  /// every existing link or pin that led to `id` now executes `what`
  /// first. Implemented by moving `id`'s payload to a fresh row and
  /// rewriting row `id` in place with `what`, falling through to the
  /// moved payload. Returns the id now holding the ORIGINAL payload.
  InsnId insert_before(InsnId id, const isa::Insn& what);

  /// Insert `what` between `id` and its fallthrough. Returns the new id.
  InsnId insert_after(InsnId id, const isa::Insn& what);

  /// Replace the semantic body of `id`, keeping links and pins.
  void replace(InsnId id, const isa::Insn& what);

  /// Remove `id` from control flow by redirecting all links and pins that
  /// point at it to its fallthrough. Fails if `id` has no fallthrough.
  /// The row remains but becomes unreachable.
  Status remove(InsnId id);

  // ---- integrity ----

  /// Check referential integrity: all links and pins name existing rows,
  /// verbatim rows have original addresses and bytes, target/abs_target
  /// are mutually exclusive, functions' members exist. Cheap enough to
  /// run in tests after every transform.
  Status validate() const;

 private:
  friend class ConstOrigBytesRef;
  friend class OrigBytesRef;

  /// Intern `bytes` (known not to alias the backing image region).
  OrigView intern(ByteView bytes);
  /// View for bytes at original address `addr`; references the backing
  /// image when covered, interns a copy otherwise.
  OrigView intern_at(std::uint64_t addr, ByteView bytes);
  InsnId push_row(const isa::Insn& decoded, std::optional<std::uint64_t> orig_addr,
                  OrigView orig, InsnId fallthrough, InsnId target,
                  std::optional<std::uint64_t> abs_target,
                  std::optional<std::uint64_t> data_ref, FuncId function, bool verbatim);

  // Instruction table columns; id = index + 1.
  std::vector<isa::Insn> decoded_;
  std::vector<std::optional<std::uint64_t>> orig_addr_;
  std::vector<OrigView> orig_;
  std::vector<InsnId> fallthrough_;
  std::vector<InsnId> target_;
  std::vector<std::optional<std::uint64_t>> abs_target_;
  std::vector<std::optional<std::uint64_t>> data_ref_;
  std::vector<FuncId> function_;
  std::vector<std::uint8_t> verbatim_;

  /// Retained bytes: [0, backing_len_) is the original text image (vaddr
  /// backing_vaddr_); the tail is the append-only overflow region for
  /// synthetic bytes. Views are offsets, so blob growth never dangles.
  Bytes blob_;
  std::uint64_t backing_vaddr_ = 0;
  std::size_t backing_len_ = 0;

  PinVec pins_;                  ///< sorted by address
  std::vector<Function> funcs_;  ///< id = index + 1
};

inline ByteView ConstOrigBytesRef::view() const {
  return db_->blob().subspan(v_->off, v_->len);
}

inline OrigBytesRef& OrigBytesRef::operator=(ByteView bytes) {
  *const_cast<OrigView*>(v_) = const_cast<Database*>(db_)->intern(bytes);
  return *this;
}

}  // namespace zipr::irdb
