#include "zipr/reassembler.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "support/log.h"

namespace zipr::rewriter {

using irdb::InsnId;
using irdb::kNullInsn;
using isa::BranchWidth;
using isa::Op;

namespace {

constexpr std::uint64_t kShortJump = isa::kJmp8Len;   // 2
constexpr std::uint64_t kLongJump = isa::kJmp32Len;   // 5
constexpr Byte kFillByte = isa::opc::kHlt;  // stray control flow traps cleanly
// Cap on how many successor dollops one emission region may absorb; bounds
// the main-span space a single placement decision can claim.
constexpr std::size_t kMaxCoalesceRun = 64;

// Reach of a 2-byte jump placed at `site`: its target t satisfies
// t - (site + 2) in [-128, 127].
bool rel8_reaches(std::uint64_t site, std::uint64_t target) {
  std::int64_t disp = static_cast<std::int64_t>(target) - static_cast<std::int64_t>(site + 2);
  return disp >= isa::kRel8Min && disp <= isa::kRel8Max;
}

}  // namespace

Reassembler::Reassembler(analysis::IrProgram& prog, const ReassemblyOptions& opts)
    : prog_(prog),
      opts_(opts),
      space_(Interval{prog.original.text().vaddr,
                      prog.original.text().vaddr + prog.original.text().bytes.size()}),
      dollops_(prog.db),
      // The map M sized for every current row (sled dispatch rows added
      // later grow it on demand, but they are few).
      placed_(prog.db.insn_count(), kUnplaced) {
  std::set<std::uint64_t> pinned_pages;
  for (const auto& [addr, id] : prog_.db.pins())
    pinned_pages.insert(addr & ~(zelf::layout::kPageSize - 1));
  strategy_ = make_placement(opts.placement, opts.seed, std::move(pinned_pages));
  out_.assign(space_.main_span().size(), kFillByte);
}

std::optional<std::uint64_t> Reassembler::placed_at(InsnId id) const {
  if (!is_placed(id)) return std::nullopt;
  return placed_addr(id);
}

void Reassembler::mark_placed(InsnId id, std::uint64_t addr) {
  if (id > placed_.size())
    placed_.resize(std::max<std::size_t>(id, prog_.db.insn_count()), kUnplaced);
  placed_[id - 1] = addr;
}

Status Reassembler::write_bytes(std::uint64_t addr, ByteView bytes) {
  if (bytes.empty()) return Status::success();
  const Interval& main = space_.main_span();
  // An address below the main span has no byte to back it: the subtraction
  // `addr - main.begin` below would underflow into a wild out-of-bounds
  // write. Reject it as a checked invariant violation instead of relying on
  // an assert that vanishes under NDEBUG.
  if (addr < main.begin)
    return Error::internal("write of " + std::to_string(bytes.size()) + " bytes at " +
                           hex_addr(addr) + " below the output span base " +
                           hex_addr(main.begin));
  const auto off = static_cast<std::size_t>(addr - main.begin);
  if (off + bytes.size() > out_.size()) out_.resize(off + bytes.size(), kFillByte);
  std::copy_n(bytes.data(), bytes.size(), out_.begin() + static_cast<std::ptrdiff_t>(off));
  return Status::success();
}

Status Reassembler::patch_rel32(std::uint64_t site, std::uint64_t target_addr) {
  std::span<Byte> out =
      site < space_.main_span().begin ? std::span<Byte>{} : out_span(site + 1, 4);
  if (out.size() < 4)
    return Error::internal("rel32 patch at " + hex_addr(site) + " outside the output span");
  std::int64_t disp =
      static_cast<std::int64_t>(target_addr) - static_cast<std::int64_t>(site + kLongJump);
  patch_i32(out, 0, static_cast<std::int32_t>(disp));
  return Status::success();
}

std::span<Byte> Reassembler::out_span(std::uint64_t addr, std::size_t want) {
  const Interval& main = space_.main_span();
  if (addr < main.begin) return {};  // callers detect the empty span as an error
  const auto off = static_cast<std::size_t>(addr - main.begin);
  if (addr < main.end)
    want = std::min<std::size_t>(want, main.end - addr);
  else if (off + want > out_.size())
    out_.resize(off + want, kFillByte);
  return {out_.data() + off, want};
}

Result<std::size_t> Reassembler::emit_insn_at(const isa::Insn& in, std::uint64_t addr) {
  if (addr < space_.main_span().begin)
    return Error::internal("emission at " + hex_addr(addr) + " below the output span base");
  int len = isa::encoded_length(in);
  if (len <= 0)
    return Error::invalid_argument("cannot encode invalid instruction at " + hex_addr(addr));
  ZIPR_ASSIGN_OR_RETURN(std::size_t n,
                        isa::encode_into(in, out_span(addr, static_cast<std::size_t>(len))));
  if (n != static_cast<std::size_t>(len))
    return Error::internal("encoded length drifted from layout at " + hex_addr(addr));
  return n;
}

isa::BranchWidth Reassembler::ref_width(std::uint64_t site, std::uint64_t target, bool can_short,
                                        bool glue) const {
  if (can_short && (glue || opts_.prefer_short_refs) && rel8_reaches(site, target))
    return BranchWidth::kRel8;
  return BranchWidth::kRel32;
}

// ---- stage 0: verbatim ranges stay put ----

Status Reassembler::place_verbatim_ranges() {
  for (const auto& [range, row_id] : prog_.verbatim) {
    ZIPR_TRY(space_.reserve(range.begin, range.size()));
    ZIPR_TRY(write_bytes(range.begin, prog_.db.insn(row_id).orig_bytes));
    mark_placed(row_id, range.begin);
  }
  return Status::success();
}

// ---- stage 1+2: pinned references and sleds ----

Status Reassembler::build_sleds() {
  // Collect pin addresses; find maximal runs where successive pins are one
  // byte apart -- too dense for any 2-byte jump.
  std::vector<std::uint64_t> addrs;
  for (const auto& [addr, id] : prog_.db.pins()) addrs.push_back(addr);

  for (std::size_t i = 0; i + 1 < addrs.size();) {
    if (addrs[i + 1] - addrs[i] != 1) {
      ++i;
      continue;
    }
    // Dense run [first..last].
    std::size_t j = i;
    while (j + 1 < addrs.size() && addrs[j + 1] - addrs[j] == 1) ++j;
    std::uint64_t first = addrs[i], last = addrs[j];
    std::size_t next_idx = j + 1;

    // Footprint: 0x68 bytes over [first..last], four 0x90s, then a 5-byte
    // jump to the dispatch routine.
    std::uint64_t nop_begin = last + 1, nop_end = last + 5;  // [nop_begin, nop_end)
    std::uint64_t jmp_at = last + 5;
    std::uint64_t footprint_end = jmp_at + kLongJump;

    // Pins falling inside the nop region converge on the dispatch
    // fallthrough; at most one is representable.
    InsnId nop_region_target = kNullInsn;
    while (next_idx < addrs.size() && addrs[next_idx] < footprint_end) {
      std::uint64_t extra = addrs[next_idx];
      if (extra >= nop_begin && extra < nop_end && nop_region_target == kNullInsn) {
        nop_region_target = prog_.db.pinned_at(extra);
        ++next_idx;
      } else {
        return Error::unsupported("pin at " + hex_addr(extra) +
                                  " collides with sled footprint starting at " +
                                  hex_addr(first));
      }
    }

    std::uint64_t push_len = last - first + 1;
    if (push_len > 5)
      return Error::unsupported("dense pin run of length " + std::to_string(push_len) +
                                " at " + hex_addr(first) +
                                " exceeds single-push sled capacity (the paper reports "
                                "dense areas of size 2-3 in practice)");

    ZIPR_TRY(space_.reserve(first, footprint_end - first));

    // Materialize the sled bytes.
    Bytes sled(push_len, isa::opc::kPushI);
    sled.insert(sled.end(), 4, isa::opc::kNop);
    ZIPR_TRY(write_bytes(first, sled));

    // Each 0x68 entry pushes the imm32 formed by the 4 bytes after it.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;  // (value, entry addr)
    for (std::uint64_t p = first; p <= last; ++p) {
      std::uint32_t value = 0;
      for (int b = 0; b < 4; ++b) {
        std::uint64_t q = p + 1 + static_cast<std::uint64_t>(b);
        std::uint8_t byte = q <= last ? isa::opc::kPushI : isa::opc::kNop;
        value |= static_cast<std::uint32_t>(byte) << (8 * b);
      }
      entries.emplace_back(p, value);
    }

    ZIPR_ASSIGN_OR_RETURN(InsnId dispatch_head,
                          build_sled_dispatch(entries, nop_region_target));
    // The jump after the nop tail carries control into the dispatcher.
    ZIPR_TRY(emit_insn_at(isa::make_jmp(0, BranchWidth::kRel32), jmp_at));
    pending_.push_back({jmp_at, dispatch_head, jmp_at});

    ++stats_.sleds;
    stats_.sled_entries += entries.size() + (nop_region_target != kNullInsn ? 1 : 0);
    // Runs are discovered in ascending address order, so the vector stays
    // sorted for the binary searches in reserve_pin_sites().
    sled_handled_.insert(sled_handled_.end(),
                         addrs.begin() + static_cast<std::ptrdiff_t>(i),
                         addrs.begin() + static_cast<std::ptrdiff_t>(next_idx));
    i = next_idx;
  }
  return Status::success();
}

Result<InsnId> Reassembler::build_sled_dispatch(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
    InsnId nop_region_target) {
  irdb::Database& db = prog_.db;
  auto ri = [](Op op, std::uint8_t reg, std::int64_t imm) {
    isa::Insn in;
    in.op = op;
    in.ra = reg;
    in.imm = imm;
    return in;
  };
  auto reg1 = [](Op op, std::uint8_t reg) {
    isa::Insn in;
    in.op = op;
    in.ra = reg;
    return in;
  };
  auto mem = [](Op op, std::uint8_t ra, std::uint8_t rb, std::int64_t disp) {
    isa::Insn in;
    in.op = op;
    in.ra = ra;
    in.rb = rb;
    in.imm = disp;
    return in;
  };
  auto rr_cmp = [](std::uint8_t ra, std::uint8_t rb) {
    isa::Insn in;
    in.op = Op::kCmp;
    in.ra = ra;
    in.rb = rb;
    return in;
  };

  // Dispatch preamble: preserve r0/r6, fetch the sled's pushed word.
  //   push r0 ; push r6 ; load r0, [sp+16]
  // Sled constants exceed the signed imm32 range (they are built from
  // 0x68/0x90 bytes), so each comparison materializes its constant with
  // movi64 into the second saved scratch register.
  // NOTE (documented limitation, as in the paper): dispatch comparison
  // clobbers condition flags; programs that carry flags across an indirect
  // transfer into a dense-pin region are not supported.
  InsnId head = db.add_new(reg1(Op::kPush, 0));
  InsnId save6 = db.add_new(reg1(Op::kPush, 6));
  InsnId loadv = db.add_new(mem(Op::kLoad, 0, isa::kSpReg, 16));
  db.insn(head).fallthrough = save6;
  db.insn(save6).fallthrough = loadv;

  InsnId prev = loadv;
  for (const auto& [pin_addr, value] : entries) {
    InsnId pinned = db.pinned_at(pin_addr);
    if (pinned == kNullInsn)
      return Error::internal("sled entry at unpinned address " + hex_addr(pin_addr));
    // fix_i: pop r6 ; pop r0 ; addi sp, 8 (drop the pushed word) ; jmp target_i
    InsnId fix = db.add_new(reg1(Op::kPop, 6));
    InsnId fix2 = db.add_new(reg1(Op::kPop, 0));
    InsnId drop = db.add_new(ri(Op::kAddI, isa::kSpReg, 8));
    InsnId go = db.add_new(isa::make_jmp(0, BranchWidth::kRel32));
    db.insn(fix).fallthrough = fix2;
    db.insn(fix2).fallthrough = drop;
    db.insn(drop).fallthrough = go;
    db.insn(go).target = pinned;

    // movi64 r6, V_i ; cmp r0, r6 ; jeq fix_i
    InsnId setv = db.add_new(ri(Op::kMovI64, 6, static_cast<std::int64_t>(value)));
    InsnId cmp = db.add_new(rr_cmp(0, 6));
    InsnId br = db.add_new(isa::make_jcc(isa::Cond::kEq, 0, BranchWidth::kRel32));
    db.insn(br).target = fix;
    db.insn(prev).fallthrough = setv;
    db.insn(setv).fallthrough = cmp;
    db.insn(cmp).fallthrough = br;
    prev = br;
  }

  // No value matched: control entered through the nop region (no push).
  // Restore scratch state and continue at the nop-region pin, or trap.
  InsnId restore6 = db.add_new(reg1(Op::kPop, 6));
  InsnId restore0 = db.add_new(reg1(Op::kPop, 0));
  db.insn(prev).fallthrough = restore6;
  db.insn(restore6).fallthrough = restore0;
  if (nop_region_target != kNullInsn) {
    InsnId go = db.add_new(isa::make_jmp(0, BranchWidth::kRel32));
    db.insn(go).target = nop_region_target;
    db.insn(restore0).fallthrough = go;
  } else {
    InsnId trap = db.add_new(isa::make_hlt());
    db.insn(restore0).fallthrough = trap;
  }
  return head;
}

Status Reassembler::reserve_pin_sites() {
  // pins() is already a sorted flat vector; iterate it in place.
  const auto& pins = prog_.db.pins();
  stats_.pins = pins.size();

  for (std::size_t i = 0; i < pins.size(); ++i) {
    auto [addr, target] = pins[i];
    if (std::binary_search(sled_handled_.begin(), sled_handled_.end(), addr)) continue;

    std::uint64_t gap = UINT64_MAX;
    if (i + 1 < pins.size()) gap = pins[i + 1].first - addr;

    bool reserved = false;
    for (std::uint8_t size = 5; size >= 2; --size) {
      if (size <= gap && space_.is_free(addr, size)) {
        ZIPR_TRY(space_.reserve(addr, size));
        pin_sites_.push_back({addr, size, target, std::nullopt, false});
        reserved = true;
        break;
      }
    }
    if (reserved) continue;

    // Last resort: a pinned 1-byte terminator (ret/hlt) can simply be
    // emitted in place of a reference.
    const auto row = prog_.db.insn(target);
    if (!row.verbatim && row.decoded.length == 1 && !row.decoded.has_fallthrough() &&
        space_.is_free(addr, 1)) {
      ZIPR_TRY(space_.reserve(addr, 1));
      ZIPR_TRY(emit_insn_at(row.decoded, addr));
      ++stats_.pins_in_place;
      continue;
    }
    return Error::unsupported("pin at " + hex_addr(addr) +
                              " has no room for a reference (squeezed by neighbours)");
  }

  // Second pass, after every pin slot is held: secure a chaining
  // trampoline within rel8 reach of each constrained (reserved < 5)
  // reference, while the space around it is still free (the paper runs
  // expansion/chaining ahead of dollop placement, Sec. II-C3).
  for (PinSite& site : pin_sites_) {
    if (site.reserved >= kLongJump) continue;
    const std::uint64_t win_lo = site.addr + 2 >= 128 ? site.addr - 126 : 0;
    const std::uint64_t win_hi = site.addr + 129;
    site.trampoline = space_.allocate_in_window(kLongJump, win_lo, win_hi, site.addr);
    if (!site.trampoline && space_.overflow_end() >= win_lo &&
        space_.overflow_end() <= win_hi) {
      site.trampoline = space_.allocate_overflow(kLongJump);
      site.trampoline_in_overflow = true;
    }
  }
  return Status::success();
}

// ---- stage 3+4: resolution, chaining, placement ----

Status Reassembler::resolve_all() {
  for (const auto& pin : pin_sites_) ZIPR_TRY(resolve_pin(pin));
  // The uDR loop: new references are appended while we drain.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingRef ref = pending_[i];
    ZIPR_TRY(resolve_ref(ref));
  }
  return Status::success();
}

Status Reassembler::resolve_pin(const PinSite& pin) {
  // Pin-site coalescing, the "unmoved dollop" case (paper Sec. II-C4): if
  // the pinned instruction is still unplaced and the pin's reserved bytes
  // plus the free run behind them can hold the front of its dollop, emit
  // the dollop directly at its pinned address and elide the reference jump
  // altogether. The capacity gate runs BEFORE constructing the dollop:
  // construction takes ownership of the downstream chain, which must not
  // happen for attempts that cannot succeed.
  if (opts_.coalesce && pin.reserved >= kLongJump && !is_placed(pin.target)) {
    const auto trow = prog_.db.insn(pin.target);
    std::uint64_t avail = pin.reserved + space_.free_run_at(pin.addr + pin.reserved);
    std::uint64_t min_need = estimated_size(trow) +
                             (trow.decoded.has_fallthrough() ? kLongJump : 0);
    if (!trow.verbatim && min_need <= avail) {
      auto placed_fn = [this](InsnId id) { return is_placed(id); };
      Dollop* d = dollops_.dollop_starting_at(pin.target, placed_fn);
      if (d != nullptr) {
        if (d->size_estimate > avail) dollops_.split_to_fit(d, avail);
        if (d->size_estimate <= avail) {
          std::uint64_t budget = std::max<std::uint64_t>(d->size_estimate, pin.reserved);
          if (budget > pin.reserved)
            ZIPR_TRY(space_.reserve(pin.addr + pin.reserved, budget - pin.reserved));
          ++stats_.pins_in_place;
          ++stats_.jumps_elided;
          stats_.bytes_saved += kLongJump;
          return emit_dollop_at(d, pin.addr, budget, /*in_overflow=*/false);
        }
        // Construction already happened; fall through and place the dollop
        // through the strategy as usual.
      }
    }
  }

  ZIPR_ASSIGN_OR_RETURN(std::uint64_t t, ensure_placed(pin.target, pin.addr));

  auto release_trampoline = [&]() -> Status {
    if (!pin.trampoline) return Status::success();
    if (!pin.trampoline_in_overflow) return space_.release(*pin.trampoline, kLongJump);
    // An unused overflow trampoline that is still the frontier allocation
    // can be handed straight back to the bump allocator; otherwise it stays
    // as 5 filler bytes already counted in overflow_bytes.
    if (*pin.trampoline + kLongJump == space_.overflow_end())
      return space_.shrink_overflow(*pin.trampoline);
    return Status::success();
  };

  // A squeezed pin (reserved < 5) is glue: it must take the short form
  // whenever it reaches, there is no room for anything else.
  BranchWidth w = ref_width(pin.addr, t, /*can_short=*/true, /*glue=*/pin.reserved < kLongJump);
  if (w == BranchWidth::kRel8) {
    ZIPR_TRY(emit_insn_at(
        isa::make_jmp(static_cast<std::int64_t>(t) - static_cast<std::int64_t>(pin.addr + 2),
                      BranchWidth::kRel8),
        pin.addr));
    if (pin.reserved > kShortJump)
      ZIPR_TRY(space_.release(pin.addr + kShortJump, pin.reserved - kShortJump));
    ZIPR_TRY(release_trampoline());
    ++stats_.pin_refs_short;
    return Status::success();
  }
  if (pin.reserved >= kLongJump) {
    ZIPR_TRY(emit_insn_at(
        isa::make_jmp(static_cast<std::int64_t>(t) - static_cast<std::int64_t>(pin.addr + 5),
                      BranchWidth::kRel32),
        pin.addr));
    ZIPR_TRY(release_trampoline());
    ++stats_.pin_refs_long;
    return Status::success();
  }
  return chain_pin(pin);
}

Status Reassembler::chain_pin(const PinSite& pin) {
  // The reference must stay 2 bytes; hop through trampolines until a
  // 5-byte slot is reachable (Sec. II-C3, span-dependent jump chaining).
  std::uint64_t cur = pin.addr;
  ++stats_.chains;

  // Fast path: the trampoline reserved before placement.
  if (pin.trampoline) {
    std::uint64_t b = *pin.trampoline;
    ZIPR_TRY(emit_insn_at(
        isa::make_jmp(static_cast<std::int64_t>(b) - static_cast<std::int64_t>(cur + 2),
                      BranchWidth::kRel8),
        cur));
    ZIPR_TRY(emit_insn_at(isa::make_jmp(0, BranchWidth::kRel32), b));
    pending_.push_back({b, pin.target, b});
    return Status::success();
  }

  for (int hops = 0; hops < 64; ++hops) {
    // Base window for a jump placed at b, reached from a 2-byte jmp at cur:
    // b = (cur+2) + disp8, disp8 in [-128, 127].
    const std::uint64_t win_lo = cur + 2 >= 128 ? cur - 126 : 0;
    const std::uint64_t win_hi = cur + 129;

    std::optional<std::uint64_t> slot = space_.allocate_in_window(kLongJump, win_lo, win_hi, cur);
    if (!slot && space_.overflow_end() >= win_lo && space_.overflow_end() <= win_hi) {
      // The overflow frontier itself is within reach: trampoline there.
      slot = space_.allocate_overflow(kLongJump);
    }
    if (slot) {
      ZIPR_TRY(emit_insn_at(
          isa::make_jmp(static_cast<std::int64_t>(*slot) - static_cast<std::int64_t>(cur + 2),
                        BranchWidth::kRel8),
          cur));
      ZIPR_TRY(emit_insn_at(isa::make_jmp(0, BranchWidth::kRel32), *slot));
      pending_.push_back({*slot, pin.target, *slot});
      return Status::success();
    }
    // No 5-byte slot in reach: take a 2-byte hop as far forward as we can.
    if (auto c = space_.allocate_in_window(kShortJump, win_lo, win_hi, win_hi)) {
      ZIPR_TRY(emit_insn_at(
          isa::make_jmp(static_cast<std::int64_t>(*c) - static_cast<std::int64_t>(cur + 2),
                        BranchWidth::kRel8),
          cur));
      cur = *c;
      ++stats_.chain_hops;
      continue;
    }
    return Error::out_of_space("chaining from pin " + hex_addr(pin.addr) +
                               " found no reachable trampoline space");
  }
  return Error::out_of_space("chain from pin " + hex_addr(pin.addr) + " exceeded hop limit");
}

Status Reassembler::resolve_ref(const PendingRef& ref) {
  ZIPR_ASSIGN_OR_RETURN(std::uint64_t t, ensure_placed(ref.target, ref.preferred));
  ZIPR_TRY(patch_rel32(ref.site, t));
  ++stats_.refs_resolved;
  return Status::success();
}

Result<std::uint64_t> Reassembler::ensure_placed(InsnId insn,
                                                 std::optional<std::uint64_t> preferred) {
  if (is_placed(insn)) return placed_addr(insn);
  auto placed_fn = [this](InsnId id) { return is_placed(id); };
  Dollop* d = dollops_.dollop_starting_at(insn, placed_fn);
  if (!d) return Error::internal("instruction neither placed nor materializable");
  ZIPR_TRY(place_dollop(d, preferred));
  if (!is_placed(insn)) return Error::internal("dollop placement failed to register target");
  return placed_addr(insn);
}

Status Reassembler::place_dollop(Dollop* d, std::optional<std::uint64_t> preferred) {
  assert(d->last > d->first);
  PlacementRequest req;
  req.size = d->size_estimate;
  req.min_viable = estimated_size(prog_.db.insn(dollops_.insns(*d).front())) + kLongJump;
  req.preferred = preferred;

  std::optional<Interval> iv = strategy_->pick(space_, req);
  if (iv && iv->size() < req.size) {
    // Split the dollop so the head fills the fragment (Sec. II-C4).
    if (dollops_.split_to_fit(d, iv->size()) == nullptr) {
      iv = std::nullopt;  // unsplittable: send it to the overflow area
    }
  }

  if (!iv) {
    std::uint64_t base = space_.allocate_overflow(d->size_estimate);
    return emit_dollop_at(d, base, d->size_estimate, /*in_overflow=*/true);
  }
  ZIPR_TRY(space_.reserve(iv->begin, d->size_estimate));
  return emit_dollop_at(d, iv->begin, d->size_estimate, /*in_overflow=*/false);
}

Status Reassembler::emit_dollop_at(Dollop* d, std::uint64_t base, std::uint64_t budget,
                                   bool in_overflow) {
  std::uint64_t addr = base;
  std::uint64_t region_end = base + budget;  // bytes this emission owns
  std::size_t run = 0;                       // successors absorbed so far
  auto placed_fn = [this](InsnId id) { return is_placed(id); };

  // Bytes claimable past the cursor: slack inside our region plus the free
  // run after it (main span), or unbounded at the bump frontier (overflow;
  // emission performs no other overflow allocation, so our region is the
  // frontier and can grow without bound). Checked BEFORE constructing the
  // successor dollop: construction takes ownership of the downstream chain,
  // which perturbs every later placement decision, so it must not happen
  // for attempts that cannot possibly succeed (fragment regions walled in
  // by occupied bytes).
  auto claimable = [&]() -> std::uint64_t {
    std::uint64_t avail = region_end - addr;
    if (in_overflow)
      return region_end == space_.overflow_end() ? UINT64_MAX : avail;
    return avail + space_.free_run_at(region_end);
  };

  // Claim the successor dollop's bytes directly past the cursor, growing
  // the region. Only absorbs the successor whole -- splitting it to fit
  // would trade the elided jump for a new one at the split point. Returns
  // false when it does not fit.
  auto claim_successor = [&](Dollop* next) -> Result<bool> {
    std::uint64_t avail = region_end - addr;
    std::uint64_t cap = claimable();
    if (next->size_estimate > cap) return false;
    if (next->size_estimate > avail) {
      std::uint64_t extra = next->size_estimate - avail;
      if (in_overflow) {
        if (space_.allocate_overflow(extra) != region_end)
          return Error::internal("overflow frontier moved during dollop emission");
      } else {
        ZIPR_TRY(space_.reserve(region_end, extra));
      }
      region_end += extra;
    }
    ++run;
    ++stats_.dollops_coalesced;
    ++stats_.jumps_elided;
    stats_.bytes_saved += kLongJump;
    return true;
  };

  for (;;) {
    const bool may_coalesce = opts_.coalesce && run < kMaxCoalesceRun;

    // Emitting rows constructs no dollop, so the view stays valid until
    // the terminal row's successor is looked up below.
    const std::span<const InsnId> rows = dollops_.insns(*d);
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
      InsnId id = rows[i];
      ZIPR_ASSIGN_OR_RETURN(std::size_t n, emit_row_at(prog_.db.insn(id), addr));
      mark_placed(id, addr);
      addr += n;
      ++stats_.insns_placed;
    }

    // The terminal row. An unconditional jmp to an unplaced target IS the
    // dollop's fallthrough continuation in disguise (jmp never has a
    // fallthrough, so it always ends its dollop): instead of emitting a
    // rel32 placeholder and letting the uDR loop place the target anywhere,
    // elide the jump and keep emitting the target dollop in place (paper
    // Sec. III). The elided row resolves to the successor's first byte, so
    // references to the jump itself still land on equivalent code.
    InsnId last = rows.back();
    const auto lrow = prog_.db.insn(last);
    Dollop* next = nullptr;
    if (may_coalesce && !lrow.verbatim && lrow.decoded.op == Op::kJmp &&
        lrow.target != kNullInsn && !is_placed(lrow.target) &&
        claimable() >= isa::kMaxInsnLen)
      next = dollops_.dollop_starting_at(lrow.target, placed_fn);
    if (next != nullptr) {
      ZIPR_ASSIGN_OR_RETURN(bool claimed, claim_successor(next));
      if (claimed) {
        mark_placed(last, addr);  // the jump's address is its target's code
        ++stats_.insns_placed;
        ++stats_.dollops_placed;
        ZIPR_TRY(dollops_.retire(d));
        d = next;
        continue;
      }
    }
    ZIPR_ASSIGN_OR_RETURN(std::size_t n, emit_row_at(lrow, addr));
    mark_placed(last, addr);
    addr += n;
    ++stats_.insns_placed;

    const InsnId cont = d->continuation;
    ++stats_.dollops_placed;
    ZIPR_TRY(dollops_.retire(d));
    d = nullptr;  // retired: the manager destroyed it

    if (cont == kNullInsn) break;  // ends in a non-fallthrough instruction

    if (is_placed(cont)) {
      // Already placed: the trailing jump is glue, shortest reaching form.
      std::uint64_t t = placed_addr(cont);
      BranchWidth w = ref_width(addr, t, /*can_short=*/true, /*glue=*/true);
      std::uint64_t len = w == BranchWidth::kRel8 ? kShortJump : kLongJump;
      ZIPR_TRY(emit_insn_at(
          isa::make_jmp(static_cast<std::int64_t>(t) - static_cast<std::int64_t>(addr + len), w),
          addr));
      addr += len;
      ++stats_.cont_jumps;
      stats_.trailing_jump_bytes += len;
      break;
    }

    // Unplaced continuation (a split tail): coalesce it in place if the
    // bytes past the cursor are claimable.
    if (may_coalesce && claimable() >= isa::kMaxInsnLen) {
      next = dollops_.dollop_starting_at(cont, placed_fn);
      if (next != nullptr) {
        ZIPR_ASSIGN_OR_RETURN(bool claimed, claim_successor(next));
        if (claimed) {
          d = next;
          continue;
        }
      }
    }

    // Trailing rel32 placeholder; the uDR loop patches it later.
    ZIPR_TRY(emit_insn_at(isa::make_jmp(0, BranchWidth::kRel32), addr));
    pending_.push_back({addr, cont, addr});
    addr += kLongJump;
    ++stats_.cont_jumps;
    stats_.trailing_jump_bytes += kLongJump;
    break;
  }

  if (addr > region_end)
    return Error::internal("dollop emission overran its budget at " + hex_addr(base));
  if (in_overflow) {
    // The bump allocator can hand back the conservative tail immediately.
    ZIPR_TRY(space_.shrink_overflow(addr));
  } else if (addr < region_end) {
    ZIPR_TRY(space_.release(addr, region_end - addr));
  }
  return Status::success();
}

Result<std::size_t> Reassembler::emit_row_at(irdb::ConstRowRef row, std::uint64_t addr) {
  if (row.verbatim)
    return Error::internal("verbatim row reached dollop emission");

  isa::Insn in = row.decoded;

  if (in.has_static_target()) {
    if (row.target != kNullInsn) {
      const bool can_short = in.op != Op::kCall;  // call has no rel8 form
      if (is_placed(row.target)) {
        std::uint64_t t = placed_addr(row.target);
        in.width = ref_width(addr, t, can_short, /*glue=*/false);
        int len = isa::encoded_length(in);
        in.imm = static_cast<std::int64_t>(t) - static_cast<std::int64_t>(addr + len);
        return emit_insn_at(in, addr);
      }
      // Unplaced: emit the unconstrained form and register an unresolved
      // reference (all jmp32/jcc32/call encodings are [op][rel32]).
      in.width = BranchWidth::kRel32;
      in.imm = 0;
      ZIPR_ASSIGN_OR_RETURN(std::size_t n, emit_insn_at(in, addr));
      pending_.push_back({addr, row.target, addr});
      return n;
    }
    if (row.abs_target) {
      in.width = BranchWidth::kRel32;
      in.imm = static_cast<std::int64_t>(*row.abs_target) -
               static_cast<std::int64_t>(addr + isa::kJmp32Len);
      return emit_insn_at(in, addr);
    }
    return Error::internal("branch row has neither logical nor absolute target");
  }

  if (in.is_pc_relative_data()) {
    if (!row.data_ref) return Error::internal("pc-relative row without data_ref");
    in.imm = static_cast<std::int64_t>(*row.data_ref) -
             static_cast<std::int64_t>(addr + isa::encoded_length(in));
  }

  return emit_insn_at(in, addr);
}

Result<zelf::Image> Reassembler::run() {
  ZIPR_TRY(place_verbatim_ranges());
  ZIPR_TRY(build_sleds());
  ZIPR_TRY(reserve_pin_sites());
  ZIPR_TRY(resolve_all());

  stats_.dollop_splits = dollops_.total_splits();
  stats_.overflow_bytes = space_.overflow_used();
  stats_.free_bytes_left = space_.free_bytes();

  zelf::Image out = prog_.original;
  zelf::Segment& text = out.text();
  // Size the overflow tail to exactly what the bump allocator handed out
  // (writes may have been shorter than allocations).
  out_.resize(space_.main_span().size() + static_cast<std::size_t>(space_.overflow_used()),
              kFillByte);
  text.bytes = std::move(out_);
  text.memsize = text.bytes.size();
  stats_.output_text_bytes = text.bytes.size();

  ZIPR_TRY(out.validate());
  return out;
}

}  // namespace zipr::rewriter
