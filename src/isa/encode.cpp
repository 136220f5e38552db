#include <cstring>

#include "isa/table.h"

namespace zipr::isa {

namespace {

bool fits_i8(std::int64_t v) { return v >= kRel8Min && v <= kRel8Max; }
bool fits_i32(std::int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }
bool fits_u32(std::int64_t v) { return v >= 0 && v <= UINT32_MAX; }
bool reg_ok(std::uint8_t r) { return r < kNumRegs; }

std::uint8_t pack_rr(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>((a << 4) | (b & 0x0f));
}

template <typename T>
void store_le(Byte* p, T v) {
  std::memcpy(p, &v, sizeof v);  // VLX is little-endian
}

// Whether `in`'s operands fit the form of its row `s`: registers, then immediate.
Status check_operands(const Insn& in, const Spec& s) {
  bool regs = true, imm = true;
  switch (s.form) {
    case Form::kNone: case Form::kSys:
      break;
    case Form::kRegInOp: case Form::kReg: case Form::kRegImm64:
      regs = reg_ok(in.ra);
      break;
    case Form::kRegReg:
      regs = reg_ok(in.ra) && reg_ok(in.rb);
      break;
    case Form::kRel8:
      imm = fits_i8(in.imm);
      break;
    case Form::kRel32:
      imm = fits_i32(in.imm);
      break;
    case Form::kImm32:
      imm = fits_u32(in.imm);
      break;
    case Form::kRegImm32: case Form::kPcRel:
      regs = reg_ok(in.ra);
      imm = fits_i32(in.imm);
      break;
    case Form::kRegAbs32:
      regs = reg_ok(in.ra);
      imm = fits_u32(in.imm);
      break;
    case Form::kLoad: case Form::kStore:
      regs = reg_ok(in.ra) && reg_ok(in.rb);
      imm = fits_i32(in.imm);
      break;
  }
  if (!regs) return Error::invalid_argument(std::string(s.mnemonic) + ": register out of range");
  if (!imm)
    return Error::invalid_argument(std::string(s.mnemonic) + ": immediate " +
                                   std::to_string(in.imm) + " out of range");
  return Status::success();
}

}  // namespace

Result<std::size_t> encode_into(const Insn& insn, std::span<Byte> out) {
  const Spec* s = spec_of(insn);
  if (!s) return Error::invalid_argument("cannot encode invalid instruction");
  ZIPR_TRY(check_operands(insn, *s));
  if (out.size() < s->length)
    return Error::invalid_argument("encode buffer too small (" + std::to_string(out.size()) +
                                   " bytes) for instruction");
  Byte* p = out.data();
  p[0] = s->opcode;
  const auto imm32 = static_cast<std::uint32_t>(insn.imm);
  switch (s->form) {
    case Form::kNone:
      break;
    case Form::kSys:
      p[1] = opc::kSysSuffix;
      break;
    case Form::kRegInOp:
      p[0] = static_cast<Byte>(s->opcode | insn.ra);
      break;
    case Form::kReg:
      p[1] = insn.ra;
      break;
    case Form::kRegReg:
      p[1] = pack_rr(insn.ra, insn.rb);
      break;
    case Form::kRel8:
      p[1] = static_cast<Byte>(insn.imm);
      break;
    case Form::kRel32: case Form::kImm32:
      store_le(p + 1, imm32);
      break;
    case Form::kRegImm32: case Form::kRegAbs32: case Form::kPcRel:
      p[1] = insn.ra;
      store_le(p + 2, imm32);
      break;
    case Form::kRegImm64:
      p[1] = insn.ra;
      store_le(p + 2, static_cast<std::uint64_t>(insn.imm));
      break;
    case Form::kLoad: case Form::kStore:
      p[1] = pack_rr(insn.ra, insn.rb);
      store_le(p + 2, imm32);
      break;
  }
  return static_cast<std::size_t>(s->length);
}

Status encode(const Insn& insn, Bytes& out) {
  Byte buf[kMaxInsnLen];
  ZIPR_ASSIGN_OR_RETURN(std::size_t n, encode_into(insn, std::span<Byte>(buf, sizeof buf)));
  out.insert(out.end(), buf, buf + n);
  return Status::success();
}

Result<Bytes> encode(const Insn& insn) {
  Bytes out;
  ZIPR_TRY(encode(insn, out));
  return out;
}

int encoded_length(const Insn& insn) {
  const Spec* s = spec_of(insn);
  return s ? s->length : 0;
}

namespace {

Insn make(Op op, std::int64_t imm = 0, BranchWidth w = BranchWidth::kRel32,
          Cond c = Cond::kEq) {
  Insn i;
  i.op = op;
  i.imm = imm;
  i.width = w;
  i.cond = c;
  i.length = static_cast<std::uint8_t>(encoded_length(i));
  return i;
}

}  // namespace

Insn make_jmp(std::int64_t rel, BranchWidth w) { return make(Op::kJmp, rel, w); }
Insn make_jcc(Cond c, std::int64_t rel, BranchWidth w) { return make(Op::kJcc, rel, w, c); }
Insn make_call(std::int64_t rel) { return make(Op::kCall, rel); }
Insn make_nop() { return make(Op::kNop); }
Insn make_push_imm(std::uint32_t imm) { return make(Op::kPushI, imm); }
Insn make_ret() { return make(Op::kRet); }
Insn make_hlt() { return make(Op::kHlt); }

}  // namespace zipr::isa
