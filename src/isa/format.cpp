#include <cstdio>

#include "isa/table.h"

namespace zipr::isa {

namespace {

std::string reg(std::uint8_t r) {
  if (r == kSpReg) return "sp";
  return "r" + std::to_string(r);
}

std::string imm_str(std::int64_t v) {
  char buf[32];
  if (v < 0)
    std::snprintf(buf, sizeof buf, "-0x%llx", static_cast<unsigned long long>(-v));
  else
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string rel_str(std::int64_t v) {
  return (v >= 0 ? "+" : "") + imm_str(v);
}

// `target` is the text for a PC-relative branch target.
std::string body(const Insn& in, const std::string& target) {
  const Spec* s = spec_of(in);
  if (!s) return "(invalid)";
  const std::string m(s->mnemonic);
  switch (s->form) {
    case Form::kNone: case Form::kSys:
      return m;
    case Form::kRegInOp: case Form::kReg:
      return m + " " + reg(in.ra);
    case Form::kRegReg:
      return m + " " + reg(in.ra) + ", " + reg(in.rb);
    case Form::kRel8: case Form::kRel32:
      return m + " " + target;
    case Form::kImm32:
      return m + " " + imm_str(in.imm);
    case Form::kRegImm32: case Form::kRegAbs32: case Form::kRegImm64:
      return m + " " + reg(in.ra) + ", " + imm_str(in.imm);
    case Form::kPcRel:
      return m + " " + reg(in.ra) + ", [pc" + rel_str(in.imm) + "]";
    case Form::kLoad:
      return m + " " + reg(in.ra) + ", [" + reg(in.rb) + rel_str(in.imm) + "]";
    case Form::kStore:
      return m + " [" + reg(in.ra) + rel_str(in.imm) + "], " + reg(in.rb);
  }
  return "?";
}

}  // namespace

std::string to_string(const Insn& in) { return body(in, rel_str(in.imm)); }

std::string to_string_at(const Insn& in, std::uint64_t addr) {
  if (in.has_static_target()) return body(in, hex_addr(in.target(addr)));
  return body(in, rel_str(in.imm));
}

}  // namespace zipr::isa
