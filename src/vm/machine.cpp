#include "vm/machine.h"

namespace zipr::vm {

using isa::Cond;
using isa::Insn;
using isa::Op;

namespace {
// Syscall numbers (DECREE-style).
enum : std::uint64_t {
  kSysTerminate = 1,
  kSysTransmit = 2,
  kSysReceive = 3,
  kSysFdwait = 4,
  kSysAllocate = 5,
  kSysDeallocate = 6,
  kSysRandom = 7,
};

// allocate() may never grow the heap into the guard page below the stack
// mapping (the stack itself is [kStackTop - kStackSize, kStackTop)).
constexpr std::uint64_t kHeapCeiling =
    zelf::layout::kStackTop - zelf::layout::kStackSize - kPageSize;
}  // namespace

Machine::Machine(const zelf::Image& image, RunLimits limits) : limits_(limits) {
  for (const auto& seg : image.segments) mem_.map_segment(seg);
  mem_.map_anon(zelf::layout::kStackTop - zelf::layout::kStackSize, zelf::layout::kStackSize,
                kPermRead | kPermWrite);
  regs_[isa::kSpReg] = zelf::layout::kStackTop;
  pc_ = image.entry;
}

Machine::Machine(const LinkResult& linked, RunLimits limits) : limits_(limits) {
  for (const auto& image : linked.images)
    for (const auto& seg : image.segments) mem_.map_segment(seg);
  mem_.map_anon(zelf::layout::kStackTop - zelf::layout::kStackSize, zelf::layout::kStackSize,
                kPermRead | kPermWrite);
  regs_[isa::kSpReg] = zelf::layout::kStackTop;
  pc_ = linked.entry;
}

bool Machine::eval_cond(Cond c) const {
  switch (c) {
    case Cond::kEq: return flags_.zf;
    case Cond::kNe: return !flags_.zf;
    case Cond::kLt: return flags_.slt;
    case Cond::kLe: return flags_.slt || flags_.zf;
    case Cond::kGt: return !(flags_.slt || flags_.zf);
    case Cond::kGe: return !flags_.slt;
    case Cond::kB: return flags_.ult;
    case Cond::kAe: return !flags_.ult;
  }
  return false;
}

Fault Machine::push64(std::uint64_t v) {
  std::uint64_t& sp = regs_[isa::kSpReg];
  if (sp < zelf::layout::kStackTop - zelf::layout::kStackSize + 8)
    return Fault::kStackOverflow;
  sp -= 8;
  return mem_.write_u64(sp, v) ? Fault::kNone : Fault::kBadAccess;
}

std::optional<std::uint64_t> Machine::pop64() {
  std::uint64_t& sp = regs_[isa::kSpReg];
  auto v = mem_.read_u64(sp);
  if (v) sp += 8;
  return v;
}

Fault Machine::do_syscall() {
  ++stats_.syscalls;
  std::uint64_t no = regs_[0];
  switch (no) {
    case kSysTerminate:
      exited_ = true;
      exit_status_ = static_cast<std::int64_t>(regs_[1]);
      return Fault::kNone;
    case kSysTransmit: {
      std::uint64_t buf = regs_[2], count = regs_[3];
      if (output_.size() + count > limits_.max_output) return Fault::kBadSyscall;
      auto data = mem_.read_block(buf, count);
      if (!data.ok()) return Fault::kBadAccess;
      put_bytes(output_, *data);
      regs_[0] = count;
      return Fault::kNone;
    }
    case kSysReceive: {
      std::uint64_t buf = regs_[2], count = regs_[3];
      std::size_t avail = input_.size() - input_pos_;
      std::size_t n = std::min<std::size_t>(count, avail);
      if (n > 0) {
        if (!mem_.write_block(buf, ByteView(input_.data() + input_pos_, n)).ok())
          return Fault::kBadAccess;
        input_pos_ += n;
      }
      regs_[0] = n;
      return Fault::kNone;
    }
    case kSysFdwait:
      regs_[0] = 0;
      return Fault::kNone;
    case kSysAllocate: {
      std::uint64_t size = regs_[1];
      if (size == 0 || size > (64ull << 20)) return Fault::kBadSyscall;
      std::uint64_t base = heap_next_;
      std::uint64_t mapped = (size + kPageSize - 1) & kPageMask;
      if (base > kHeapCeiling || mapped > kHeapCeiling - base)
        return Fault::kBadSyscall;  // heap would run into the stack guard
      mem_.map_anon(base, mapped, kPermRead | kPermWrite);
      heap_next_ += mapped;
      regs_[0] = base;
      return Fault::kNone;
    }
    case kSysDeallocate:
      regs_[0] = 0;
      return Fault::kNone;
    case kSysRandom: {
      std::uint64_t buf = regs_[1], count = regs_[2];
      Bytes data;
      data.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i)
        data.push_back(static_cast<Byte>(rng_.next() & 0xff));
      if (!mem_.write_block(buf, data).ok()) return Fault::kBadAccess;
      regs_[0] = count;
      return Fault::kNone;
    }
    default:
      return Fault::kBadSyscall;
  }
}

Fault Machine::dispatch(const Insn& in) {
  const std::uint64_t next = pc_ + in.length;
  auto set_zs = [&](std::uint64_t r) {
    flags_.zf = r == 0;
    flags_.slt = static_cast<std::int64_t>(r) < 0;
  };

  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kHlt:
      return Fault::kHalt;
    case Op::kSyscall:
      if (Fault f = do_syscall(); f != Fault::kNone) return f;
      break;

    case Op::kJmp:
      pc_ = in.target(pc_);
      return Fault::kNone;
    case Op::kJcc:
      if (eval_cond(in.cond)) {
        pc_ = in.target(pc_);
        return Fault::kNone;
      }
      break;
    case Op::kCall: {
      if (Fault f = push64(next); f != Fault::kNone) return f;
      pc_ = in.target(pc_);
      return Fault::kNone;
    }
    case Op::kCallR: {
      if (Fault f = push64(next); f != Fault::kNone) return f;
      pc_ = regs_[in.ra];
      return Fault::kNone;
    }
    case Op::kJmpR:
      pc_ = regs_[in.ra];
      return Fault::kNone;
    case Op::kJmpT: {
      std::uint64_t slot = static_cast<std::uint64_t>(in.imm) + regs_[in.ra] * 8;
      auto t = mem_.read_u64(slot);
      if (!t) return Fault::kBadAccess;
      pc_ = *t;
      return Fault::kNone;
    }
    case Op::kRet: {
      auto t = pop64();
      if (!t) return Fault::kBadAccess;
      pc_ = *t;
      return Fault::kNone;
    }

    case Op::kPush:
      if (Fault f = push64(regs_[in.ra]); f != Fault::kNone) return f;
      break;
    case Op::kPushI:
      if (Fault f = push64(static_cast<std::uint64_t>(in.imm)); f != Fault::kNone) return f;
      break;
    case Op::kPop: {
      auto v = pop64();
      if (!v) return Fault::kBadAccess;
      regs_[in.ra] = *v;
      break;
    }

    case Op::kMovI64:
    case Op::kMovI:
      regs_[in.ra] = static_cast<std::uint64_t>(in.imm);
      break;
    case Op::kMov:
      regs_[in.ra] = regs_[in.rb];
      break;
    case Op::kLea:
      regs_[in.ra] = in.pc_ref(pc_);
      break;
    case Op::kLoadPc: {
      auto v = mem_.read_u64(in.pc_ref(pc_));
      if (!v) return Fault::kBadAccess;
      regs_[in.ra] = *v;
      break;
    }
    case Op::kLoad: {
      auto v = mem_.read_u64(regs_[in.rb] + static_cast<std::uint64_t>(in.imm));
      if (!v) return Fault::kBadAccess;
      regs_[in.ra] = *v;
      break;
    }
    case Op::kStore:
      if (!mem_.write_u64(regs_[in.ra] + static_cast<std::uint64_t>(in.imm), regs_[in.rb]))
        return Fault::kBadAccess;
      break;
    case Op::kLoad8: {
      auto v = mem_.read_u8(regs_[in.rb] + static_cast<std::uint64_t>(in.imm));
      if (!v) return Fault::kBadAccess;
      regs_[in.ra] = *v;
      break;
    }
    case Op::kStore8:
      if (!mem_.write_u8(regs_[in.ra] + static_cast<std::uint64_t>(in.imm),
                         static_cast<std::uint8_t>(regs_[in.rb] & 0xff)))
        return Fault::kBadAccess;
      break;

    case Op::kAdd: regs_[in.ra] += regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kSub: regs_[in.ra] -= regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kAnd: regs_[in.ra] &= regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kOr: regs_[in.ra] |= regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kXor: regs_[in.ra] ^= regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kMul: regs_[in.ra] *= regs_[in.rb]; set_zs(regs_[in.ra]); break;
    case Op::kDiv:
      if (regs_[in.rb] == 0) return Fault::kDivByZero;
      regs_[in.ra] /= regs_[in.rb];
      set_zs(regs_[in.ra]);
      break;
    case Op::kMod:
      if (regs_[in.rb] == 0) return Fault::kDivByZero;
      regs_[in.ra] %= regs_[in.rb];
      set_zs(regs_[in.ra]);
      break;
    case Op::kShl: regs_[in.ra] <<= (regs_[in.rb] & 63); set_zs(regs_[in.ra]); break;
    case Op::kShr: regs_[in.ra] >>= (regs_[in.rb] & 63); set_zs(regs_[in.ra]); break;
    case Op::kSar:
      regs_[in.ra] = static_cast<std::uint64_t>(static_cast<std::int64_t>(regs_[in.ra]) >>
                                                (regs_[in.rb] & 63));
      set_zs(regs_[in.ra]);
      break;

    case Op::kAddI: regs_[in.ra] += static_cast<std::uint64_t>(in.imm); set_zs(regs_[in.ra]); break;
    case Op::kSubI: regs_[in.ra] -= static_cast<std::uint64_t>(in.imm); set_zs(regs_[in.ra]); break;
    case Op::kAndI: regs_[in.ra] &= static_cast<std::uint64_t>(in.imm); set_zs(regs_[in.ra]); break;
    case Op::kOrI: regs_[in.ra] |= static_cast<std::uint64_t>(in.imm); set_zs(regs_[in.ra]); break;
    case Op::kXorI: regs_[in.ra] ^= static_cast<std::uint64_t>(in.imm); set_zs(regs_[in.ra]); break;
    case Op::kShlI: regs_[in.ra] <<= (static_cast<std::uint64_t>(in.imm) & 63); set_zs(regs_[in.ra]); break;
    case Op::kShrI: regs_[in.ra] >>= (static_cast<std::uint64_t>(in.imm) & 63); set_zs(regs_[in.ra]); break;

    case Op::kCmp: {
      std::uint64_t a = regs_[in.ra], b = regs_[in.rb];
      flags_.zf = a == b;
      flags_.slt = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      flags_.ult = a < b;
      break;
    }
    case Op::kCmpI: {
      std::uint64_t a = regs_[in.ra], b = static_cast<std::uint64_t>(in.imm);
      flags_.zf = a == b;
      flags_.slt = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      flags_.ult = a < b;
      break;
    }
    case Op::kTest: {
      std::uint64_t t = regs_[in.ra] & regs_[in.rb];
      flags_.zf = t == 0;
      flags_.slt = static_cast<std::int64_t>(t) < 0;
      flags_.ult = false;
      break;
    }

    case Op::kInvalid:
      return Fault::kBadInsn;
  }

  pc_ = next;
  return Fault::kNone;
}

Fault Machine::step() {
  auto bytes = mem_.fetch(pc_, isa::kMaxInsnLen);
  if (!bytes.ok()) return Fault::kBadAccess;
  Insn in;
  if (!isa::decode_at(*bytes, in)) return Fault::kBadInsn;

  if (trace_) trace_(pc_, in);
  ++stats_.insns;
  stats_.cycles += static_cast<std::uint64_t>(isa::cost_of(in.op));
  return dispatch(in);
}

const Machine::CodePage* Machine::code_page(std::uint64_t base) {
  if (code_cache_epoch_ != mem_.code_epoch()) {
    // Executable content changed somewhere: drop every decode table and
    // rebuild lazily (events are rare -- exec pages are r-x in practice).
    code_cache_.clear();
    code_cache_epoch_ = mem_.code_epoch();
  }
  auto it = code_cache_.find(base);
  if (it != code_cache_.end()) return it->second.get();
  const Byte* data = mem_.exec_page_data(base);
  if (data == nullptr) return nullptr;  // negatives are not cached: mappings can appear
  auto page = std::make_unique<CodePage>();
  page->slots.resize(kPageSize);
  for (std::size_t off = 0; off < kPageSize; ++off) {
    CodePage::Slot& slot = page->slots[off];
    if (off + isa::kMaxInsnLen > kPageSize) {
      slot.kind = CodePage::Kind::kBoundary;
    } else if (isa::decode_at(ByteView(data + off, isa::kMaxInsnLen), slot.insn)) {
      slot.cost = static_cast<std::uint16_t>(isa::cost_of(slot.insn.op));
      slot.kind = CodePage::Kind::kDecoded;
    }  // else stays kBadInsn
  }
  return code_cache_.emplace(base, std::move(page)).first->second.get();
}

void Machine::run_slow(RunResult& r) {
  while (!exited_) {
    if (stats_.insns >= limits_.max_insns) {
      r.fault = Fault::kGasExhausted;
      r.fault_pc = pc_;
      return;
    }
    const std::uint64_t pc_before = pc_;
    const Fault fault = step();
    if (fault != Fault::kNone) {
      r.fault = fault;
      r.fault_pc = pc_before;
      return;
    }
  }
}

void Machine::run_fast(RunResult& r) {
  const CodePage* page = nullptr;
  std::uint64_t page_base = kNoPage;
  std::uint64_t epoch = mem_.code_epoch();
  while (!exited_) {
    if (stats_.insns >= limits_.max_insns) {
      r.fault = Fault::kGasExhausted;
      r.fault_pc = pc_;
      return;
    }
    const std::uint64_t base = pc_ & kPageMask;
    if (base != page_base || epoch != mem_.code_epoch()) {
      page = code_page(base);
      epoch = mem_.code_epoch();
      page_base = base;
      // One page per retired instruction is exactly the slow path's
      // touched set: non-boundary slots have in-page fetch windows.
      if (page != nullptr) mem_.touch_page(base);
    }
    const std::uint64_t pc_before = pc_;
    Fault fault;
    if (page == nullptr) {
      fault = step();      // unmapped / non-exec pc: fault via the slow path
      page_base = kNoPage;  // pc may have moved into freshly visible code
    } else {
      const CodePage::Slot& slot = page->slots[pc_ & (kPageSize - 1)];
      switch (slot.kind) {
        case CodePage::Kind::kDecoded:
          ++stats_.insns;
          stats_.cycles += slot.cost;
          fault = dispatch(slot.insn);
          break;
        case CodePage::Kind::kBoundary:
          fault = step();  // fetch window crosses the page edge
          page_base = kNoPage;
          break;
        case CodePage::Kind::kBadInsn:
          fault = Fault::kBadInsn;
          break;
      }
    }
    if (fault != Fault::kNone) {
      r.fault = fault;
      r.fault_pc = pc_before;
      return;
    }
  }
}

RunResult Machine::run() {
  RunResult r;
  // Tracing observes every retired instruction: take the per-instruction
  // slow path so hook behavior is independent of caching.
  if (decode_cache_on_ && !trace_)
    run_fast(r);
  else
    run_slow(r);
  r.exited = exited_;
  if (exited_) r.exit_status = exit_status_;
  r.stats = stats_;
  r.stats.max_rss_pages = mem_.pages_touched();
  r.output = std::move(output_);
  r.input_bytes_consumed = input_pos_;
  return r;
}

Machine::Snapshot Machine::snapshot() {
  Snapshot snap;
  snap.mem = mem_.snapshot();
  for (int i = 0; i < isa::kNumRegs; ++i) snap.regs[i] = regs_[i];
  snap.pc = pc_;
  snap.flags = flags_;
  snap.heap_next = heap_next_;
  return snap;
}

Status Machine::restore(const Snapshot& snap) {
  ZIPR_TRY(mem_.restore(snap.mem));
  for (int i = 0; i < isa::kNumRegs; ++i) regs_[i] = snap.regs[i];
  pc_ = snap.pc;
  flags_ = snap.flags;
  heap_next_ = snap.heap_next;
  rng_ = Rng(0);
  input_.clear();
  input_pos_ = 0;
  output_.clear();
  stats_ = ExecStats{};
  exited_ = false;
  exit_status_ = -1;
  return Status::success();
}

RunResult run_program(const zelf::Image& image, ByteView input, std::uint64_t seed,
                      RunLimits limits) {
  Machine m(image, limits);
  m.set_input(Bytes(input.begin(), input.end()));
  m.set_random_seed(seed);
  return m.run();
}

RunResult run_linked(const LinkResult& linked, ByteView input, std::uint64_t seed,
                     RunLimits limits) {
  Machine m(linked, limits);
  m.set_input(Bytes(input.begin(), input.end()));
  m.set_random_seed(seed);
  return m.run();
}

}  // namespace zipr::vm
