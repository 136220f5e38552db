#include <cstring>

#include "isa/table.h"

namespace zipr::isa {

namespace {

// Inline, unlike support/bytes.h's get_*: decode_at is the hot path of the
// sweep, the traversal and the VM's page predecode.
template <typename T>
T load_le(const Byte* p) {
  T v;
  std::memcpy(&v, p, sizeof v);  // VLX is little-endian
  return v;
}

}  // namespace

bool decode_at(ByteView bytes, Insn& out) {
  if (bytes.empty()) return false;
  const std::uint8_t idx = kOpcodeSpec[bytes[0]];
  if (idx == kNoSpec) return false;
  const Spec& s = kSpecs[idx];
  if (bytes.size() < s.length) return false;

  const Byte* b = bytes.data();
  out = Insn{};
  out.op = s.op;
  out.length = s.length;
  out.cond = s.cond;
  out.width = s.width();
  switch (s.form) {
    case Form::kNone:
      return true;
    case Form::kSys:
      return b[1] == opc::kSysSuffix;
    case Form::kRegInOp:
      out.ra = static_cast<std::uint8_t>(b[0] - s.opcode);
      return true;
    case Form::kReg:
      out.ra = b[1];
      return out.ra < kNumRegs;
    case Form::kRegReg:
      out.ra = b[1] >> 4;
      out.rb = b[1] & 0x0f;
      return out.ra < kNumRegs && out.rb < kNumRegs;
    case Form::kRel8:
      out.imm = static_cast<std::int8_t>(b[1]);
      return true;
    case Form::kRel32:
      out.imm = load_le<std::int32_t>(b + 1);
      return true;
    case Form::kImm32:
      out.imm = load_le<std::uint32_t>(b + 1);  // zero-extended
      return true;
    case Form::kRegImm32:
    case Form::kPcRel:
      out.ra = b[1];
      out.imm = load_le<std::int32_t>(b + 2);
      return out.ra < kNumRegs;
    case Form::kRegAbs32:
      out.ra = b[1];
      out.imm = load_le<std::uint32_t>(b + 2);  // zero-extended absolute address
      return out.ra < kNumRegs;
    case Form::kRegImm64:
      out.ra = b[1];
      out.imm = static_cast<std::int64_t>(load_le<std::uint64_t>(b + 2));
      return out.ra < kNumRegs;
    case Form::kLoad:
    case Form::kStore:
      out.ra = b[1] >> 4;
      out.rb = b[1] & 0x0f;
      out.imm = load_le<std::int32_t>(b + 2);
      return out.ra < kNumRegs && out.rb < kNumRegs;
  }
  return false;
}

Result<Insn> decode(ByteView bytes) {
  Insn in;
  if (decode_at(bytes, in)) return in;
  // Name the cause; decode_at rejects only these.
  if (bytes.empty()) return Error::decode("empty byte range");
  const std::uint8_t idx = kOpcodeSpec[bytes[0]];
  if (idx == kNoSpec) return Error::decode("invalid opcode " + hex_addr(bytes[0]));
  const Spec& s = kSpecs[idx];
  const std::string m(s.mnemonic);
  if (bytes.size() < s.length)
    return Error::decode("truncated " + m + " operand (" + std::to_string(bytes.size()) +
                         " of " + std::to_string(s.length) + " bytes)");
  if (s.form == Form::kSys) return Error::decode("bad syscall suffix " + hex_addr(bytes[1]));
  return Error::decode(m + " register operand out of range");
}

int cost_of(Op op) {
  Insn in;
  in.op = op;
  const Spec* s = spec_of(in);
  return s ? s->cost : 1;
}

}  // namespace zipr::isa
