// Disassembly engines and their conservative aggregation (paper Sec. II-A1).
//
// The paper aggregates the output of multiple disassemblers (objdump + IDA
// Pro) so each tool's strengths compensate for the others' weaknesses. We
// reproduce that architecture with two engines with different failure
// modes:
//
//   * linear_sweep()        -- objdump-like: decodes the text segment
//     front-to-back. Strength: sees every byte. Weakness: embedded data
//     desynchronizes it and data bytes often decode as plausible code.
//
//   * recursive_traversal() -- IDA-like: follows control flow from the
//     entry point, discovering call targets, jump tables, and code
//     addresses materialized as immediates. Strength: everything it claims
//     is reachable, hence conclusively code. Weakness: misses code only
//     reachable through pointers it cannot model.
//
// aggregate() combines them into the paper's four-outcome scheme:
//   Case 1  both engines agree a range is code (recursive reached it)  ->
//           definite code, free to relocate;
//   Case 2  conclusively data (recursive never reached it; linear sweep
//           cannot decode it cleanly)                                   ->
//           kept verbatim at its original address AND decoded as code
//           for CFG/pinning purposes;
//   Case 3  ambiguous (engines disagree: linear sweep decodes it but
//           nothing conclusive reaches it)                              ->
//           treated exactly like Case 2 (both code and data);
//   Case 4  (mislabeling data as conclusive code) is avoided by only
//           letting *validated* traversal claim bytes; tentative seeds
//           whose decode runs fail validation stay in Case 3.
//
// In the rewrite pipeline the linear sweep's only product is the Case 3
// count, and inside definite code it decodes the traversal's own claims,
// so build_ir never sweeps front to back: aggregate()'s pipeline overload
// replays the sweep only where it can disagree.
#pragma once

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>
#include <vector>

#include "isa/insn.h"
#include "support/interval.h"
#include "support/status.h"
#include "zelf/image.h"

namespace zipr::analysis {

/// Sorted flat (address -> decoded instruction) table. Exposes the subset
/// of the std::map interface the pipeline uses -- count/find/lower_bound/
/// ranged iteration over pairs -- but stores one contiguous vector, so
/// building a 20k-instruction table is a handful of allocations instead
/// of 20k node allocations, and iteration streams linearly. Both engines
/// build their claims in ascending address order and hand the vector over
/// whole (adopt_sorted).
class AddrInsnMap {
 public:
  using value_type = std::pair<std::uint64_t, isa::Insn>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Take ownership of claims already in ascending address order; skips
  /// the sort and the element-wise copy a rebuild would cost.
  void adopt_sorted(std::vector<value_type> v) {
    assert(std::is_sorted(v.begin(), v.end(),
                          [](const value_type& a, const value_type& b) { return a.first < b.first; }));
    v_ = std::move(v);
  }

  std::size_t count(std::uint64_t addr) const { return find(addr) ? 1 : 0; }
  const isa::Insn* find(std::uint64_t addr) const {
    auto it = lower_bound(addr);
    return (it != v_.end() && it->first == addr) ? &it->second : nullptr;
  }
  const_iterator lower_bound(std::uint64_t addr) const {
    return std::lower_bound(
        v_.begin(), v_.end(), addr,
        [](const value_type& p, std::uint64_t a) { return p.first < a; });
  }

  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

 private:
  std::vector<value_type> v_;
};

/// Output of one disassembly engine.
struct DisasmResult {
  /// Decoded instruction at each address the engine claims is code.
  AddrInsnMap insns;
  /// Byte ranges covered by claimed instructions.
  IntervalSet code;
};

/// A discovered jump table: `slots[i]` is the code address stored at
/// table_addr + 8*i in the original image.
struct JumpTable {
  std::uint64_t jmpt_addr = 0;   ///< address of the jmpt instruction
  std::uint64_t table_addr = 0;  ///< address of the first slot
  std::vector<std::uint64_t> slots;
};

/// objdump-like engine. Decodes `text` sequentially; after an undecodable
/// byte it advances one byte and resynchronizes. The rewrite pipeline
/// never builds this table (the move overload of aggregate() replays only
/// the part of the sweep that can disagree); disassembly listings, the
/// tests and the traced replay do.
DisasmResult linear_sweep(const zelf::Segment& text);

struct TraversalResult {
  DisasmResult dis;
  std::set<std::uint64_t> function_entries;  ///< entry + call targets + fptrs
  std::vector<JumpTable> jump_tables;
  /// Code addresses discovered as immediates/table slots (indirect branch
  /// targets the rewriter must pin).
  std::set<std::uint64_t> indirect_targets;
  /// Tentative seeds that failed validation (left ambiguous).
  std::set<std::uint64_t> rejected_seeds;
};

struct TraversalOptions {
  std::size_t max_jump_table_slots = 4096;
  /// Scan rodata/data for 8-byte words that look like text addresses and
  /// treat them as tentative code seeds (validated before acceptance).
  bool scan_data_for_pointers = true;
};

/// IDA-like engine: follow control flow from the entry point to a fixpoint,
/// including jump-table and address-constant discovery.
TraversalResult recursive_traversal(const zelf::Image& image, const TraversalOptions& opts = {});

/// Aggregated classification of the text segment.
struct Aggregate {
  /// Authoritative decodes for relocatable (Case 1) code.
  AddrInsnMap code_insns;
  IntervalSet definite_code;
  /// Case 2/3 byte ranges: kept verbatim, also decoded for CFG purposes.
  IntervalSet ambiguous;
  /// Count of Case 3 decisions where the engines actively disagreed:
  /// ambiguous ranges in which the linear sweep starts an instruction.
  std::size_t disagreements = 0;
};

/// Counts disagreements against the linear sweep's full table.
Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    const TraversalResult& recursive);

/// Pipeline overload: counts the same disagreements without a sweep table,
/// replaying the sweep only outside definite code (and wherever it runs
/// misaligned inside it), and steals `recursive.dis` (a multi-MB table on
/// big binaries) instead of copying it. The traversal's metadata fields --
/// function_entries, jump_tables, indirect_targets, rejected_seeds -- are
/// NOT consumed and stay valid for compute_pins and function grouping.
Aggregate aggregate(const zelf::Segment& text, TraversalResult&& recursive);

}  // namespace zipr::analysis
