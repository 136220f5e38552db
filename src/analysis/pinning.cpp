#include "analysis/pinning.h"

namespace zipr::analysis {

namespace {

/// Decode every instruction embedded in a verbatim range (best effort,
/// resynchronizing on failure like linear sweep) and report the addresses
/// its control transfers can reach outside the range, plus whether
/// execution can fall off the end.
void verbatim_range_targets(const zelf::Segment& text, const Interval& range,
                            std::set<std::uint64_t>* out_targets, bool* out_falls_off_end) {
  *out_falls_off_end = false;
  std::uint64_t addr = range.begin;
  while (addr < range.end) {
    std::uint64_t off = addr - text.vaddr;
    // A range may extend into the zero-filled memsize tail of the segment
    // (memsize > filesize images): no file bytes exist there to decode, and
    // `bytes.size() - off` would underflow into a huge bogus span.
    if (off >= text.bytes.size()) break;
    std::size_t avail = static_cast<std::size_t>(
        std::min<std::uint64_t>(range.end - addr, text.bytes.size() - off));
    isa::Insn insn;
    if (!isa::decode_at(ByteView(text.bytes.data() + off, avail), insn)) {
      ++addr;
      continue;
    }
    if (insn.has_static_target()) {
      std::uint64_t t = insn.target(addr);
      if (!range.contains(t) && text.contains(t)) out_targets->insert(t);
    }
    addr += insn.length;
    if (addr >= range.end && insn.has_fallthrough()) *out_falls_off_end = true;
  }
}

}  // namespace

PinSet compute_pins(const zelf::Image& image, const Aggregate& agg,
                    const TraversalResult& recursive, const PinningOptions& opts) {
  PinSet out;
  const zelf::Segment& text = image.text();

  // Route one candidate address into pins / covered / dropped.
  auto add_pin = [&](std::uint64_t addr, std::uint32_t reason) {
    if (agg.code_insns.count(addr)) {
      out.pins[addr] |= reason;
      return;
    }
    if (agg.ambiguous.contains(addr)) {
      out.covered_by_verbatim.insert(addr);
      return;
    }
    out.dropped.insert(addr);
  };

  if (image.entry != 0) add_pin(image.entry, kPinEntry);
  for (const auto& exp : image.exports) add_pin(exp.addr, kPinExport);

  for (const auto& table : recursive.jump_tables)
    for (std::uint64_t slot : table.slots) add_pin(slot, kPinJumpTable);

  // indirect_targets covers code constants from both code immediates and
  // data words; distinguishing the source is not needed for correctness,
  // so tag them all as code/data constants.
  for (std::uint64_t t : recursive.indirect_targets) {
    bool in_table = false;
    for (const auto& table : recursive.jump_tables) {
      for (std::uint64_t slot : table.slots)
        if (slot == t) {
          in_table = true;
          break;
        }
      if (in_table) break;
    }
    if (!in_table) add_pin(t, kPinCodeConst);
  }

  // Verbatim ranges execute in place: pin everything they can reach, and
  // the address just past any range execution can fall out of.
  for (const auto& range : agg.ambiguous.intervals()) {
    std::set<std::uint64_t> targets;
    bool falls = false;
    verbatim_range_targets(text, range, &targets, &falls);
    for (std::uint64_t t : targets) add_pin(t, kPinVerbatimTarget);
    if (falls && text.contains(range.end)) add_pin(range.end, kPinVerbatimFall);
  }

  if (opts.pin_call_returns) {
    for (const auto& [addr, insn] : agg.code_insns)
      if (insn.is_call()) add_pin(addr + insn.length, kPinCallReturn);
  }

  // Ablation pins (naive / extra) are not real IBTs, so B remains a subset
  // of P if we skip any that would be awkward to reference: artificial
  // pins only go where an unconstrained 5-byte reference fits (at least 5
  // bytes from any neighbouring pin or verbatim range), never forcing
  // sleds or chains that exist to serve real indirect targets.
  auto artificial_pin_ok = [&](std::uint64_t addr, const isa::Insn& insn) {
    (void)insn;
    auto it = out.pins.lower_bound(addr);
    if (it != out.pins.end() && it->first - addr < 5) return false;
    if (it != out.pins.begin() && addr - std::prev(it)->first < 5) return false;
    if (agg.ambiguous.overlaps(addr, addr + 5)) return false;
    return true;
  };

  if (opts.naive_pin_all) {
    for (const auto& [addr, insn] : agg.code_insns)
      if (artificial_pin_ok(addr, insn)) add_pin(addr, kPinNaive);
  } else if (opts.extra_pin_fraction > 0.0) {
    Rng rng(opts.extra_pin_seed);
    const auto den = 1000000ull;
    const auto num = static_cast<std::uint64_t>(opts.extra_pin_fraction * 1000000.0);
    for (const auto& [addr, insn] : agg.code_insns)
      if (rng.chance(num, den) && artificial_pin_ok(addr, insn)) add_pin(addr, kPinExtra);
  }

  return out;
}

}  // namespace zipr::analysis
