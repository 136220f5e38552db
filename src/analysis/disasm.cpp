#include "analysis/disasm.h"

#include "support/log.h"

namespace zipr::analysis {

namespace {

/// Decode the instruction at `addr` out of the text segment into `out`.
/// False past the FILE-backed bytes (a text segment's memsize may exceed
/// its file size; the zero-filled tail holds no decodable content) or on
/// an invalid encoding. Allocation-free: both sweeps probe every data
/// byte embedded in text, so a failed decode must not compose an error
/// message.
bool decode_at(const zelf::Segment& text, std::uint64_t addr, isa::Insn& out) {
  if (addr < text.vaddr) return false;
  std::uint64_t off = addr - text.vaddr;
  if (off >= text.bytes.size()) return false;
  std::size_t avail = text.bytes.size() - static_cast<std::size_t>(off);
  std::size_t want = std::min<std::size_t>(isa::kMaxInsnLen, avail);
  return isa::decode_at(ByteView(text.bytes.data() + off, want), out);
}

/// True if `insn` carries an immediate that plausibly names a code address
/// (a materialized function pointer / label). lea's displacement is
/// PC-relative and is resolved by the caller.
bool immediate_names_code(const isa::Insn& insn, const zelf::Segment& text,
                          std::uint64_t* out_addr) {
  using isa::Op;
  switch (insn.op) {
    case Op::kMovI:
    case Op::kMovI64:
    case Op::kPushI: {
      auto v = static_cast<std::uint64_t>(insn.imm);
      if (v >= text.vaddr && v < text.end()) {
        *out_addr = v;
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

/// Insert the byte coverage of an address-sorted, non-overlapping
/// instruction sequence as maximal contiguous runs: one IntervalSet node
/// per run instead of two transient node allocations per instruction
/// (insert-then-coalesce).
template <typename Range>
void insert_coverage(const Range& insns, IntervalSet* code) {
  std::uint64_t run_lo = 0, run_hi = 0;
  for (const auto& [addr, insn] : insns) {
    if (addr != run_hi) {
      if (run_lo != run_hi) code->insert(run_lo, run_hi);
      run_lo = addr;
    }
    run_hi = addr + insn.length;
  }
  if (run_lo != run_hi) code->insert(run_lo, run_hi);
}

/// Decode the text segment's file-backed bytes front to back into `out`.
void sweep_run(const zelf::Segment& text, std::vector<AddrInsnMap::value_type>* out) {
  isa::Insn insn;
  const std::uint64_t limit = text.vaddr + text.bytes.size();
  for (std::uint64_t addr = text.vaddr; addr < limit;) {
    if (!decode_at(text, addr, insn)) {
      // Resynchronize one byte later, like objdump's ".byte" fallback.
      ++addr;
      continue;
    }
    out->emplace_back(addr, insn);
    addr += insn.length;
  }
}

}  // namespace

DisasmResult linear_sweep(const zelf::Segment& text) {
  std::vector<AddrInsnMap::value_type> v;
  v.reserve(text.bytes.size() / 4);
  sweep_run(text, &v);
  DisasmResult out;
  insert_coverage(v, &out.code);
  out.insns.adopt_sorted(std::move(v));
  return out;
}

namespace {

/// Shared traversal state. Claim-tracking lives in a per-byte state array
/// over the text segment (bit 0: an instruction STARTS here; bit 1: the
/// byte is covered by some claimed instruction) -- O(1) queries with no
/// per-claim allocation; the sorted claim table is built once at the end.
struct Traverser {
  static constexpr std::uint8_t kStart = 1;
  static constexpr std::uint8_t kCovered = 2;

  const zelf::Image& image;
  const zelf::Segment& text;
  const TraversalOptions& opts;
  TraversalResult result;
  /// FIFO via head index: identical visit order to a deque, but one flat
  /// buffer, reused by every drain(), instead of per-chunk node churn (a
  /// deque allocates and frees a block every 64 pops on this push/pop-heavy
  /// walk).
  std::vector<std::uint64_t> worklist;
  std::size_t work_head = 0;
  std::vector<std::uint8_t> state;  ///< per text byte
  std::size_t claim_count = 0;

  Traverser(const zelf::Image& img, const TraversalOptions& o)
      : image(img), text(img.text()), opts(o), state(text.bytes.size(), 0) {}

  bool in_text(std::uint64_t addr) const {
    return addr >= text.vaddr && addr - text.vaddr < state.size();
  }
  bool claimed_at(std::uint64_t addr) const {
    return in_text(addr) && (state[addr - text.vaddr] & kStart);
  }
  bool covered_at(std::uint64_t addr) const {
    return in_text(addr) && (state[addr - text.vaddr] & kCovered);
  }
  bool covered_any(std::uint64_t lo, std::uint64_t hi) const {
    for (std::uint64_t a = lo; a < hi; ++a)
      if (covered_at(a)) return true;
    return false;
  }
  void claim(std::uint64_t addr, const isa::Insn& insn) {
    ++claim_count;
    std::uint64_t off = addr - text.vaddr;
    state[off] |= kStart;
    for (std::uint8_t b = 0; b < insn.length; ++b) state[off + b] |= kCovered;
  }

  /// Validate a tentative code seed: walk the fallthrough chain from
  /// `seed`; accept only if every byte decodes and the run terminates at a
  /// non-fallthrough instruction or flows into already-claimed code. This
  /// is the Case-4 guard: data that merely looks address-like rarely
  /// decodes into a clean, properly-terminated run.
  bool validate_run(std::uint64_t seed) const {
    std::uint64_t addr = seed;
    isa::Insn insn;
    for (int steps = 0; steps < 100000; ++steps) {
      if (claimed_at(addr)) return true;  // flows into known code
      if (covered_at(addr)) return false;  // mid-insn overlap
      if (!decode_at(text, addr, insn)) return false;
      if (insn.has_static_target()) {
        std::uint64_t t = insn.target(addr);
        if (!text.contains(t)) return false;  // branch out of text
      }
      if (!insn.has_fallthrough()) return true;  // clean terminator
      addr += insn.length;
      if (addr >= text.vaddr + text.bytes.size()) {
        // Ran off the end. A trailing syscall is an idiomatic terminator
        // (terminate never returns); anything else is rejected.
        return insn.op == isa::Op::kSyscall;
      }
    }
    return false;
  }

  /// Claim one instruction; push its control-flow successors.
  void visit(std::uint64_t addr) {
    if (claimed_at(addr)) return;
    if (covered_at(addr)) {
      // Overlaps a previously-claimed instruction at a different offset --
      // conflicting evidence; leave for the aggregator.
      ZIPR_WARN << "traversal: misaligned overlap at " << hex_addr(addr);
      return;
    }
    isa::Insn insn;
    if (!decode_at(text, addr, insn)) {
      ZIPR_DEBUG << "traversal: undecodable at " << hex_addr(addr);
      return;
    }
    if (covered_any(addr, addr + insn.length)) {
      ZIPR_WARN << "traversal: tail overlap at " << hex_addr(addr);
      return;
    }
    claim(addr, insn);

    if (insn.has_fallthrough()) worklist.push_back(addr + insn.length);
    if (insn.has_static_target()) {
      std::uint64_t t = insn.target(addr);
      if (text.contains(t)) {
        worklist.push_back(t);
        if (insn.is_call()) result.function_entries.insert(t);
      }
    }
    if (insn.op == isa::Op::kJmpT) discover_jump_table(addr, insn);

    std::uint64_t const_target = 0;
    if (immediate_names_code(insn, text, &const_target)) {
      accept_indirect_target(const_target);
    }
    if (insn.op == isa::Op::kLea) {
      std::uint64_t ref = insn.pc_ref(addr);
      if (text.contains(ref)) accept_indirect_target(ref);
    }
  }

  /// Record a runtime-computable code address; validated seeds also become
  /// traversal roots (and function entries: address-taken code).
  void accept_indirect_target(std::uint64_t addr) {
    result.indirect_targets.insert(addr);
    if (claimed_at(addr)) {
      result.function_entries.insert(addr);
      return;
    }
    if (validate_run(addr)) {
      result.function_entries.insert(addr);
      worklist.push_back(addr);
    } else {
      result.rejected_seeds.insert(addr);
      ZIPR_WARN << "analysis: address-like constant " << hex_addr(addr)
                << " failed code validation; leaving bytes ambiguous";
    }
  }

  void discover_jump_table(std::uint64_t jmpt_addr, const isa::Insn& insn) {
    JumpTable table;
    table.jmpt_addr = jmpt_addr;
    table.table_addr = static_cast<std::uint64_t>(insn.imm);
    for (std::size_t i = 0; i < opts.max_jump_table_slots; ++i) {
      auto bytes = image.read_bytes(table.table_addr + 8 * i, 8);
      if (!bytes.ok()) break;
      std::uint64_t slot = get_u64(*bytes, 0);
      if (!text.contains(slot)) break;  // table terminator
      if (!claimed_at(slot) && !validate_run(slot)) break;
      table.slots.push_back(slot);
      result.indirect_targets.insert(slot);
      worklist.push_back(slot);
    }
    if (!table.slots.empty()) result.jump_tables.push_back(std::move(table));
  }

  void drain() {
    while (work_head < worklist.size()) visit(worklist[work_head++]);
    worklist.clear();
    work_head = 0;
  }

  void scan_data_segments() {
    for (const auto& seg : image.segments) {
      if (seg.kind == zelf::SegKind::kText || seg.bytes.empty()) continue;
      for (std::size_t off = 0; off + 8 <= seg.bytes.size(); off += 8) {
        std::uint64_t v = get_u64(seg.bytes, off);
        if (v >= text.vaddr && v < text.vaddr + text.bytes.size())
          accept_indirect_target(v);
        // Process discoveries eagerly so later words see updated claims.
        drain();
      }
    }
  }

  /// Build the sorted claim table + coverage set by scanning the state
  /// bitmap in address order and re-decoding each claimed start (decoding
  /// is deterministic in the bytes, so this reproduces exactly what
  /// claim() saw). One sequential pass over text-sized data, instead of
  /// accumulating claims in discovery order and paying an O(n log n) sort
  /// over a multi-MB table -- the only superlinear term in the pipeline.
  void finalize() {
    std::vector<AddrInsnMap::value_type> sorted;
    sorted.reserve(claim_count);
    isa::Insn insn;
    for (std::size_t off = 0; off < state.size(); ++off) {
      if (!(state[off] & kStart)) continue;
      std::uint64_t addr = text.vaddr + off;
      if (decode_at(text, addr, insn)) sorted.emplace_back(addr, insn);
    }
    insert_coverage(sorted, &result.dis.code);
    result.dis.insns.adopt_sorted(std::move(sorted));
  }
};

}  // namespace

TraversalResult recursive_traversal(const zelf::Image& image, const TraversalOptions& opts) {
  Traverser t(image, opts);
  if (image.entry != 0) {
    t.worklist.push_back(image.entry);
    t.result.function_entries.insert(image.entry);
  }
  // Exported entry points are conclusive roots: the loader hands them to
  // other images, so they are both code and indirect branch targets.
  for (const auto& exp : image.exports) {
    t.worklist.push_back(exp.addr);
    t.result.function_entries.insert(exp.addr);
    t.result.indirect_targets.insert(exp.addr);
  }
  t.drain();
  if (opts.scan_data_for_pointers) {
    t.scan_data_segments();
    t.drain();
  }
  t.finalize();
  return std::move(t.result);
}

namespace {

Aggregate aggregate_impl(const zelf::Segment& text, AddrInsnMap code_insns,
                         IntervalSet definite_code) {
  Aggregate out;
  out.code_insns = std::move(code_insns);
  out.definite_code = std::move(definite_code);

  // Everything in the text segment's file bytes that conclusive traversal
  // did not claim is Case 2/3: kept verbatim (data) AND decodable as code.
  const std::uint64_t lo = text.vaddr;
  const std::uint64_t hi = text.vaddr + text.bytes.size();
  out.ambiguous.insert(lo, hi);
  for (const auto& iv : out.definite_code) out.ambiguous.erase(iv.begin, iv.end);
  return out;
}

/// The Case 3 count without the sweep's table: follow the linear sweep's
/// position, decoding only where it can matter. Definite code is tiled by
/// non-overlapping traversal claims, so once the sweep lands on a claim
/// start it decodes exactly those claims up to the end of the definite
/// interval, and none of them starts in an ambiguous range: jump there.
/// Anywhere else (gaps, and misaligned stretches inside definite code
/// until they resynchronize) the sweep is replayed byte for byte.
std::size_t count_disagreements(const zelf::Segment& text, const Aggregate& agg) {
  const AddrInsnMap& claims = agg.code_insns;
  const IntervalSet& definite = agg.definite_code;
  const std::uint64_t limit = text.vaddr + text.bytes.size();
  // The definite interval at or after the sweep position; past the last
  // one, an empty sentinel at the limit.
  auto iv = definite.begin();
  auto next_interval = [&] { return iv != definite.end() ? *iv++ : Interval{limit, limit}; };
  Interval cur = next_interval();
  auto claim = claims.begin();
  std::uint64_t counted_to = text.vaddr;  // the gap below this one is counted
  std::size_t count = 0;
  isa::Insn insn;
  for (std::uint64_t addr = text.vaddr; addr < limit;) {
    while (cur.end <= addr) cur = next_interval();
    const bool in_definite = cur.begin <= addr;
    if (in_definite) {
      claim = std::lower_bound(claim, claims.end(), addr,
                               [](const AddrInsnMap::value_type& c, std::uint64_t a) {
                                 return c.first < a;
                               });
      if (claim != claims.end() && claim->first == addr) {
        addr = cur.end;
        continue;
      }
    }
    if (!decode_at(text, addr, insn)) {
      ++addr;
      continue;
    }
    if (!in_definite && addr >= counted_to) {
      ++count;
      counted_to = cur.begin;
    }
    addr += insn.length;
  }
  return count;
}

}  // namespace

Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    const TraversalResult& recursive) {
  Aggregate out = aggregate_impl(text, recursive.dis.insns, recursive.dis.code);
  // Count active disagreements: ambiguous ranges where linear sweep claims
  // decodable instructions (the paper's Case 3, engines disagree).
  for (const auto& iv : out.ambiguous) {
    auto it = linear.insns.lower_bound(iv.begin);
    if (it != linear.insns.end() && it->first < iv.end) ++out.disagreements;
  }
  return out;
}

Aggregate aggregate(const zelf::Segment& text, TraversalResult&& recursive) {
  Aggregate out =
      aggregate_impl(text, std::move(recursive.dis.insns), std::move(recursive.dis.code));
  out.disagreements = count_disagreements(text, out);
  return out;
}

}  // namespace zipr::analysis
