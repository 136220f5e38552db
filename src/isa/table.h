// The VLX ISA table: one row per (Op, opcode byte). Every other part of the
// ISA layer reads these rows -- decode_at() through the opcode map,
// encode_into()/encoded_length()/cost_of()/to_string() through the
// instruction map, and the assembler through find_mnemonic() -- so an
// opcode, its operand form, length, mnemonic and cost are each written once.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>

#include "isa/insn.h"

namespace zipr::isa {

struct Spec {
  Op op = Op::kInvalid;
  std::uint8_t opcode = 0;  ///< first byte; the base (0x50|r) for kRegInOp
  Form form = Form::kNone;
  std::uint8_t length = 0;  ///< encoded bytes, fixed by the form
  Cond cond = Cond::kEq;    ///< kJcc rows only
  std::string_view mnemonic;
  std::uint8_t cost = 1;    ///< abstract cycles (cost_of)

  constexpr BranchWidth width() const {
    return form == Form::kRel8 ? BranchWidth::kRel8 : BranchWidth::kRel32;
  }
};

namespace table_detail {

constexpr Spec row(Op op, std::uint8_t opcode, Form form, std::string_view mnemonic,
                   std::uint8_t cost, Cond cond = Cond::kEq) {
  return {op, opcode, form, static_cast<std::uint8_t>(form_length(form)), cond, mnemonic, cost};
}

// Every row but the sixteen Jcc ones, which kSpecs adds from a loop.
inline constexpr Spec kFixedRows[] = {
    // Control flow
    row(Op::kJmp, opc::kJmp8, Form::kRel8, "jmp", 2),
    row(Op::kJmp, opc::kJmp32, Form::kRel32, "jmp", 2),
    row(Op::kCall, opc::kCall, Form::kRel32, "call", 4),
    row(Op::kRet, opc::kRet, Form::kNone, "ret", 4),
    row(Op::kCallR, opc::kCallR, Form::kReg, "callr", 4),
    row(Op::kJmpR, opc::kJmpR, Form::kReg, "jmpr", 4),
    row(Op::kJmpT, opc::kJmpT, Form::kRegAbs32, "jmpt", 4),
    row(Op::kSyscall, opc::kSysPrefix, Form::kSys, "syscall", 20),
    row(Op::kHlt, opc::kHlt, Form::kNone, "hlt", 1),
    row(Op::kNop, opc::kNop, Form::kNone, "nop", 1),
    // Stack
    row(Op::kPush, opc::kPushBase, Form::kRegInOp, "push", 3),
    row(Op::kPop, opc::kPopBase, Form::kRegInOp, "pop", 3),
    row(Op::kPushI, opc::kPushI, Form::kImm32, "pushi", 3),
    // Data movement
    row(Op::kMovI64, opc::kMovI64, Form::kRegImm64, "movi64", 1),
    row(Op::kMovI, opc::kMovI, Form::kRegImm32, "movi", 1),
    row(Op::kMov, opc::kMov, Form::kRegReg, "mov", 1),
    row(Op::kLoad, opc::kLoad, Form::kLoad, "load", 3),
    row(Op::kStore, opc::kStore, Form::kStore, "store", 3),
    row(Op::kLoad8, opc::kLoad8, Form::kLoad, "load8", 3),
    row(Op::kStore8, opc::kStore8, Form::kStore, "store8", 3),
    row(Op::kLea, opc::kLea, Form::kPcRel, "lea", 1),
    row(Op::kLoadPc, opc::kLoadPc, Form::kPcRel, "loadpc", 3),
    // ALU, register-register
    row(Op::kAdd, opc::kAdd, Form::kRegReg, "add", 1),
    row(Op::kSub, opc::kSub, Form::kRegReg, "sub", 1),
    row(Op::kAnd, opc::kAnd, Form::kRegReg, "and", 1),
    row(Op::kOr, opc::kOr, Form::kRegReg, "or", 1),
    row(Op::kXor, opc::kXor, Form::kRegReg, "xor", 1),
    row(Op::kMul, opc::kMul, Form::kRegReg, "mul", 3),
    row(Op::kDiv, opc::kDiv, Form::kRegReg, "div", 10),
    row(Op::kMod, opc::kMod, Form::kRegReg, "mod", 10),
    row(Op::kShl, opc::kShl, Form::kRegReg, "shl", 1),
    row(Op::kShr, opc::kShr, Form::kRegReg, "shr", 1),
    row(Op::kSar, opc::kSar, Form::kRegReg, "sar", 1),
    // ALU, register-immediate
    row(Op::kAddI, opc::kAddI, Form::kRegImm32, "addi", 1),
    row(Op::kSubI, opc::kSubI, Form::kRegImm32, "subi", 1),
    row(Op::kAndI, opc::kAndI, Form::kRegImm32, "andi", 1),
    row(Op::kOrI, opc::kOrI, Form::kRegImm32, "ori", 1),
    row(Op::kXorI, opc::kXorI, Form::kRegImm32, "xori", 1),
    row(Op::kShlI, opc::kShlI, Form::kRegImm32, "shli", 1),
    row(Op::kShrI, opc::kShrI, Form::kRegImm32, "shri", 1),
    // Comparison
    row(Op::kCmp, opc::kCmp, Form::kRegReg, "cmp", 1),
    row(Op::kCmpI, opc::kCmpI, Form::kRegImm32, "cmpi", 1),
    row(Op::kTest, opc::kTest, Form::kRegReg, "test", 1),
};

inline constexpr int kNumConds = 8;
inline constexpr std::string_view kJccMnemonics[kNumConds] = {"jeq", "jne", "jlt", "jle",
                                                              "jgt", "jge", "jb",  "jae"};

}  // namespace table_detail

inline constexpr std::size_t kNumSpecs =
    std::size(table_detail::kFixedRows) + 2 * table_detail::kNumConds;

/// The table: the fixed rows, then j<cc>8 and j<cc> for each condition.
inline constexpr std::array<Spec, kNumSpecs> kSpecs = [] {
  using namespace table_detail;
  std::array<Spec, kNumSpecs> t{};
  std::size_t n = 0;
  for (const Spec& s : kFixedRows) t[n++] = s;
  for (int c = 0; c < kNumConds; ++c) {
    const auto cc = static_cast<std::uint8_t>(c);
    t[n++] = row(Op::kJcc, opc::kJcc8Base | cc, Form::kRel8, kJccMnemonics[c], 2, Cond{cc});
    t[n++] = row(Op::kJcc, opc::kJcc32Base | cc, Form::kRel32, kJccMnemonics[c], 2, Cond{cc});
  }
  return t;
}();

inline constexpr std::uint8_t kNoSpec = 0xFF;
static_assert(kNumSpecs < kNoSpec);

/// Opcode map for the decoder: first byte -> kSpecs index, or kNoSpec.
inline constexpr std::array<std::uint8_t, 256> kOpcodeSpec = [] {
  std::array<std::uint8_t, 256> m{};
  m.fill(kNoSpec);
  for (std::size_t i = 0; i < kNumSpecs; ++i) {
    const int span = kSpecs[i].form == Form::kRegInOp ? kNumRegs : 1;
    for (int r = 0; r < span; ++r) m[kSpecs[i].opcode + r] = static_cast<std::uint8_t>(i);
  }
  return m;
}();

// No two rows may claim the same opcode byte.
static_assert(std::count_if(kOpcodeSpec.begin(), kOpcodeSpec.end(),
                            [](std::uint8_t i) { return i != kNoSpec; }) ==
              kNumSpecs - 2 + 2 * kNumRegs);

inline constexpr int kNumOps = static_cast<int>(Op::kInvalid);

/// Instruction map for the encoder: (op, width, cond) -> the kSpecs row of
/// that op matching the most of the instruction's width and cond. Only
/// branch rows differ in width and only Jcc rows in cond, so every other op
/// has exactly one row whatever the two fields say.
inline constexpr std::array<std::uint8_t, kNumOps * 2 * table_detail::kNumConds> kInsnSpec = [] {
  std::array<std::uint8_t, kNumOps * 2 * table_detail::kNumConds> m{};
  m.fill(kNoSpec);
  for (std::size_t slot = 0; slot < m.size(); ++slot) {
    const auto op = static_cast<Op>(slot / (2 * table_detail::kNumConds));
    const auto w = static_cast<BranchWidth>(slot / table_detail::kNumConds % 2);
    const auto c = static_cast<Cond>(slot % table_detail::kNumConds);
    int best = -1;
    for (std::size_t i = 0; i < kNumSpecs; ++i) {
      if (kSpecs[i].op != op) continue;
      const int score = (kSpecs[i].width() == w) + (kSpecs[i].cond == c);
      if (score > best) {
        best = score;
        m[slot] = static_cast<std::uint8_t>(i);
      }
    }
  }
  return m;
}();

// Every Op has at least one row.
static_assert(std::find(kInsnSpec.begin(), kInsnSpec.end(), kNoSpec) == kInsnSpec.end());

/// The row `in` encodes as, or nullptr for Op::kInvalid.
constexpr const Spec* spec_of(const Insn& in) {
  const auto op = static_cast<std::size_t>(in.op);
  if (op >= static_cast<std::size_t>(kNumOps)) return nullptr;
  const std::size_t slot = (op * 2 + (static_cast<std::size_t>(in.width) & 1)) *
                               table_detail::kNumConds +
                           (static_cast<std::size_t>(in.cond) & (table_detail::kNumConds - 1));
  return &kSpecs[kInsnSpec[slot]];
}

/// The row assembler mnemonic `m` names, or nullptr. A rel8 branch row is
/// spelled with an "8" suffix (jmp8, jeq8); every other row by its plain
/// mnemonic, so "jmp" names the rel32 row.
constexpr const Spec* find_mnemonic(std::string_view m) {
  const bool rel8 = m.size() > 1 && m.back() == '8';
  for (const Spec& s : kSpecs) {
    if (s.form != Form::kRel8 && s.mnemonic == m) return &s;
    if (s.form == Form::kRel8 && rel8 && s.mnemonic == m.substr(0, m.size() - 1)) return &s;
  }
  return nullptr;
}

}  // namespace zipr::isa
