// Recyclable scratch buffers for one IR-construction pass.
//
// A cold rewrite of a multi-MB binary builds several text-proportional
// tables that die with the pass: the traversal's per-byte state bitmap
// and sorted claim table, and the IR builder's dense offset->row map plus
// function-grouping marks. On a long-lived serve/batch worker those
// allocations (and their page faults) repeat for every request. AnalysisScratch owns the backing buffers so a
// worker can hand the SAME storage to successive rewrites: build_ir()
// borrows each buffer by move, sizes it for the current input (capacity
// retained), and moves it back before returning.
//
// Not thread-safe; one scratch belongs to at most one rewrite at a time
// (zipr::RewriteWorkspace keeps one per thread). Never affects output bytes:
// every buffer is fully re-initialized for each use.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "analysis/disasm.h"
#include "irdb/ir.h"

namespace zipr::analysis {

struct AnalysisScratch {
  /// Recursive traversal's sorted claim table (build_ir reclaims it from
  /// the aggregate's AddrInsnMap once the database has copied the rows).
  std::vector<AddrInsnMap::value_type> code_claims;
  /// Traversal per-text-byte claim/coverage bitmap.
  std::vector<std::uint8_t> byte_state;
  /// IR builder's dense text-offset -> row-id map.
  std::vector<irdb::InsnId> row_at;
  /// IR builder's function-entry row marks + BFS worklist.
  std::vector<bool> entry_rows;
  std::vector<irdb::InsnId> work;
  /// Recursive traversal's pending-address queue.
  std::vector<std::uint64_t> traversal_work;
  /// IR builder's per-function member staging (copied into the database
  /// with one exact-size allocation per function).
  std::vector<irdb::InsnId> function_members;

  /// Bytes the buffers currently HOLD (capacity): what recycling pins.
  std::size_t retained_bytes() const {
    return code_claims.capacity() * sizeof(AddrInsnMap::value_type) +
           byte_state.capacity() * sizeof(std::uint8_t) +
           row_at.capacity() * sizeof(irdb::InsnId) + entry_rows.capacity() / 8 +
           work.capacity() * sizeof(irdb::InsnId) +
           traversal_work.capacity() * sizeof(std::uint64_t) +
           function_members.capacity() * sizeof(irdb::InsnId);
  }

  /// Bytes the LAST pass actually needed (sizes): the demand signal the
  /// workspace trim policy compares retained capacity against.
  std::size_t used_bytes() const {
    return code_claims.size() * sizeof(AddrInsnMap::value_type) +
           byte_state.size() * sizeof(std::uint8_t) +
           row_at.size() * sizeof(irdb::InsnId) + entry_rows.size() / 8 +
           work.size() * sizeof(irdb::InsnId) +
           traversal_work.size() * sizeof(std::uint64_t) +
           function_members.size() * sizeof(irdb::InsnId);
  }

  /// Release every buffer (capacity included). The next pass re-reserves
  /// to its actual need, so trimming after an oversized input costs one
  /// round of fresh allocations, not correctness.
  /// (Swap with a fresh vector: `v = {}` picks the initializer_list
  /// assignment, which clears but keeps the capacity.)
  void trim() {
    auto release = [](auto& v) { std::remove_reference_t<decltype(v)>().swap(v); };
    release(code_claims);
    release(byte_state);
    release(row_at);
    release(entry_rows);
    release(work);
    release(traversal_work);
    release(function_members);
  }
};

}  // namespace zipr::analysis
