#include "analysis/ir_builder.h"

#include "support/log.h"

namespace zipr::analysis {

using irdb::InsnId;
using irdb::kNullInsn;

Result<IrProgram> build_ir(const zelf::Image& image, const AnalysisOptions& opts) {
  ZIPR_TRY(image.validate());
  IrProgram prog;
  prog.original = image;
  // The rewriter must not depend on metadata: strip ground-truth symbols
  // from its working copy so accidental use is impossible.
  prog.original.symbols.clear();

  const zelf::Segment& text = image.text();
  TraversalResult recursive = recursive_traversal(image, opts.traversal);
  // The move overload steals recursive.dis (the traversal metadata the
  // later stages read stays valid) and replays the linear sweep only where
  // it can disagree with the traversal.
  Aggregate agg = aggregate(text, std::move(recursive));
  PinSet pins = compute_pins(image, agg, recursive, opts.pinning);

  // The database references original bytes as views into one retained
  // copy of the text image -- rows carry (offset, length), not buffers.
  prog.db.set_backing(text.bytes, text.vaddr);
  prog.db.reserve_insns(agg.code_insns.size() + agg.code_insns.size() / 8 + 64);

  // ---- lift definite code into rows ----
  // row_at: text offset -> row id, a dense array instead of a tree (lookup
  // is one load; the text segment is at most a few MB).
  std::vector<InsnId> row_at(text.bytes.size(), kNullInsn);
  auto row_at_addr = [&](std::uint64_t addr) -> InsnId {
    return (addr >= text.vaddr && addr - text.vaddr < row_at.size())
               ? row_at[addr - text.vaddr]
               : kNullInsn;
  };
  InsnId next_row = prog.db.add_originals({agg.code_insns.begin(), agg.code_insns.end()});
  for (const auto& claim : agg.code_insns) row_at[claim.first - text.vaddr] = next_row++;
  prog.stats.code_insns = agg.code_insns.size();

  // ---- link fallthroughs and targets (the mandatory transformation) ----
  // Synthetic jumps are appended when control flows from lifted code into
  // bytes that stay at original addresses.
  auto synthesize_jump_to = [&](std::uint64_t abs_addr, irdb::FuncId func) -> InsnId {
    irdb::Instruction j;
    j.decoded = isa::make_jmp(0, isa::BranchWidth::kRel32);
    j.abs_target = abs_addr;
    j.function = func;
    ++prog.stats.synthetic_jumps;
    return prog.db.add_instruction(std::move(j));
  };

  for (const auto& [addr, insn] : agg.code_insns) {
    // (`insn` is read from the aggregate, not the database: appending
    // synthetic rows below may reallocate the decoded column.)
    InsnId row_id = row_at[addr - text.vaddr];

    if (insn.has_static_target()) {
      std::uint64_t t = insn.target(addr);
      if (InsnId tid = row_at_addr(t); tid != kNullInsn)
        prog.db.insn(row_id).target = tid;
      else
        prog.db.insn(row_id).abs_target = t;  // stays at its original address
    }
    if (insn.is_pc_relative_data()) prog.db.insn(row_id).data_ref = insn.pc_ref(addr);

    if (insn.has_fallthrough()) {
      std::uint64_t next = addr + insn.length;
      if (InsnId nid = row_at_addr(next); nid != kNullInsn) {
        prog.db.insn(row_id).fallthrough = nid;
      } else {
        // Falls into verbatim bytes / past text end: jump to the original
        // address, reproducing in-place behaviour.
        InsnId j = synthesize_jump_to(next, irdb::kNullFunc);
        prog.db.insn(row_id).fallthrough = j;
      }
    }
  }

  // ---- verbatim rows for ambiguous ranges ----
  for (const auto& range : agg.ambiguous.intervals()) {
    InsnId id = prog.db.add_verbatim_range(range.begin,
                                           static_cast<std::uint32_t>(range.size()));
    prog.verbatim.emplace_back(range, id);
    prog.stats.verbatim_bytes += range.size();
  }
  prog.stats.verbatim_ranges = prog.verbatim.size();

  // ---- record pins ----
  for (const auto& [addr, reasons] : pins.pins) {
    InsnId id = row_at_addr(addr);
    if (id == kNullInsn)
      return Error::internal("pin at " + hex_addr(addr) + " has no lifted row");
    ZIPR_TRY(prog.db.pin(addr, id));
    prog.pin_reasons[addr] = reasons;
  }
  prog.stats.pins = pins.pins.size();
  prog.stats.pins_covered = pins.covered_by_verbatim.size();
  prog.stats.pins_dropped = pins.dropped.size();
  prog.verbatim_ibts = pins.covered_by_verbatim;

  // ---- group rows into functions ----
  // Intra-procedural reachability from each entry: follow fallthrough and
  // branch links, but do not cross call edges into callees and do not run
  // through another function's entry (a fallthrough off one function's
  // final instruction into the next function's first is a layout accident,
  // not membership).
  // Entry membership as a bitmap over row ids: the BFS below queries it
  // once per visited row, so a node-based set would be a cache miss per
  // instruction on big binaries.
  std::vector<bool> entry_rows(prog.db.insn_count() + 1, false);
  for (std::uint64_t entry : recursive.function_entries) {
    if (InsnId id = row_at_addr(entry); id != kNullInsn) entry_rows[id] = true;
  }
  // FIFO via head index (same order as a deque). Both buffers are reused
  // by every function below.
  std::vector<InsnId> work;
  std::vector<InsnId> members;
  for (std::uint64_t entry : recursive.function_entries) {
    InsnId entry_id = row_at_addr(entry);
    if (entry_id == kNullInsn) continue;
    if (prog.db.insn(entry_id).function != irdb::kNullFunc) continue;

    irdb::Function f;
    f.name = "func_" + hex_addr(entry).substr(2);
    f.entry = entry_id;
    irdb::FuncId fid = prog.db.add_function(std::move(f));

    work.clear();
    work.push_back(entry_id);
    // Members are staged in the shared buffer and copied into the
    // database afterwards: one allocation sized to the function, instead
    // of a geometric push_back growth chain per function.
    members.clear();
    for (std::size_t head = 0; head < work.size(); ++head) {
      InsnId id = work[head];
      auto row = prog.db.insn(id);
      if (row.function != irdb::kNullFunc) continue;
      if (id != entry_id && entry_rows[id]) continue;
      row.function = fid;
      members.push_back(id);
      if (row.fallthrough != kNullInsn) work.push_back(row.fallthrough);
      if (row.target != kNullInsn && !row.decoded.is_call()) work.push_back(row.target);
    }
    prog.db.function(fid).members.assign(members.begin(), members.end());
  }
  prog.stats.functions = prog.db.function_count();

  prog.jump_tables = std::move(recursive.jump_tables);
  prog.stats.jump_tables = prog.jump_tables.size();
  prog.stats.disagreements = agg.disagreements;

  ZIPR_TRY(prog.db.validate());
  return prog;
}

}  // namespace zipr::analysis
