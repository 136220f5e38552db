// VLX: a variable-length, x86-flavoured instruction set.
//
// VLX is the target ISA for this Zipr reproduction. It is deliberately built
// to exhibit every property that makes static rewriting of x86 hard, with
// the same opcode values where the paper depends on them:
//
//   * variable instruction length (1-10 bytes);
//   * short PC-relative branches with a +/-127 byte reach (0xEB rel8) and
//     long 5-byte branches (0xE9 rel32) -- the basis of constrained vs
//     unconstrained references and of relaxation (paper Sec. III);
//   * a 1-byte NOP (0x90) and a push-imm32 (0x68) so the paper's sled
//     construction (Sec. II-C2) is encodable byte-for-byte;
//   * PC-relative data addressing (LEA/LOADPC), the subject of the
//     mandatory transformations (Sec. II-B1);
//   * indirect calls/jumps and memory-table jumps, which force pinned
//     addresses (Sec. II-A2);
//   * a dense opcode map in the ASCII-letter range (0x61..0x7a decode as
//     ALU/branch instructions) so embedded data plausibly decodes as code,
//     reproducing the code/data disambiguation problem (Sec. II-A1).
//
// Registers: 8 general-purpose 64-bit registers r0..r7; r7 is the stack
// pointer by convention (push/pop/call/ret use it). All immediates and
// displacements are little-endian; rel displacements are measured from the
// END of the instruction, as on x86.
#pragma once

#include <cstdint>

namespace zipr::isa {

inline constexpr int kNumRegs = 8;
inline constexpr int kSpReg = 7;  ///< stack pointer register index

/// Condition codes for conditional branches (Jcc).
enum class Cond : std::uint8_t {
  kEq = 0,  ///< equal (ZF)
  kNe = 1,  ///< not equal
  kLt = 2,  ///< signed less-than
  kLe = 3,  ///< signed less-or-equal
  kGt = 4,  ///< signed greater-than
  kGe = 5,  ///< signed greater-or-equal
  kB = 6,   ///< unsigned below
  kAe = 7,  ///< unsigned at-or-above
};

/// Semantic operation, independent of encoding width.
enum class Op : std::uint8_t {
  // Control flow
  kJmp,      ///< unconditional PC-relative jump (rel8 or rel32 encoding)
  kJcc,      ///< conditional PC-relative jump (rel8 or rel32 encoding)
  kCall,     ///< PC-relative call; pushes 8-byte return address
  kRet,      ///< pop 8-byte address and jump
  kCallR,    ///< indirect call through register
  kJmpR,     ///< indirect jump through register
  kJmpT,     ///< indirect jump via memory table: pc = mem64[imm + reg*8]
  kSyscall,  ///< DECREE-style system call (number in r0)
  kHlt,      ///< halt with fault
  kNop,

  // Stack
  kPush,   ///< push register
  kPop,    ///< pop register
  kPushI,  ///< push zero-extended imm32 (opcode 0x68 -- the sled builder)

  // Data movement
  kMovI64,   ///< reg <- imm64
  kMovI,     ///< reg <- sign-extended imm32
  kMov,      ///< reg <- reg
  kLoad,     ///< reg <- mem64[reg + disp32]
  kStore,    ///< mem64[reg + disp32] <- reg
  kLoad8,    ///< reg <- zero-extended mem8[reg + disp32]
  kStore8,   ///< mem8[reg + disp32] <- low byte of reg
  kLea,      ///< reg <- pc_end + disp32 (PC-relative address formation)
  kLoadPc,   ///< reg <- mem64[pc_end + disp32] (PC-relative load)

  // ALU, register-register (set ZF/SLT from result)
  kAdd, kSub, kAnd, kOr, kXor, kMul, kDiv, kMod, kShl, kShr, kSar,
  // ALU, register-immediate
  kAddI, kSubI, kAndI, kOrI, kXorI, kShlI, kShrI,
  // Comparison (set full flags)
  kCmp, kCmpI, kTest,

  kInvalid,
};

/// Encoding widths for PC-relative control transfers.
enum class BranchWidth : std::uint8_t {
  kRel8,   ///< 1-byte displacement, reach [-128, +127] from end of insn
  kRel32,  ///< 4-byte displacement, full address space
};

// ---- Opcode byte values (the wire encoding) ----
// Chosen to match x86 where the paper's techniques depend on exact bytes.
namespace opc {
inline constexpr std::uint8_t kAdd = 0x01;
inline constexpr std::uint8_t kShl = 0x02;
inline constexpr std::uint8_t kShr = 0x03;
inline constexpr std::uint8_t kSar = 0x04;
inline constexpr std::uint8_t kAddI = 0x05;
inline constexpr std::uint8_t kShlI = 0x06;
inline constexpr std::uint8_t kShrI = 0x07;
inline constexpr std::uint8_t kOr = 0x09;
inline constexpr std::uint8_t kMod = 0x0A;
inline constexpr std::uint8_t kOrI = 0x0B;
inline constexpr std::uint8_t kMul = 0x0D;
inline constexpr std::uint8_t kDiv = 0x0E;
inline constexpr std::uint8_t kSysPrefix = 0x0F;  // 0x0F 0x05 = syscall
inline constexpr std::uint8_t kSysSuffix = 0x05;
inline constexpr std::uint8_t kAnd = 0x21;
inline constexpr std::uint8_t kAndI = 0x25;
inline constexpr std::uint8_t kSub = 0x29;
inline constexpr std::uint8_t kSubI = 0x2D;
inline constexpr std::uint8_t kXor = 0x31;
inline constexpr std::uint8_t kXorI = 0x35;
inline constexpr std::uint8_t kCmp = 0x39;
inline constexpr std::uint8_t kCmpI = 0x3D;
inline constexpr std::uint8_t kPushBase = 0x50;  // 0x50|r
inline constexpr std::uint8_t kPopBase = 0x58;   // 0x58|r
inline constexpr std::uint8_t kPushI = 0x68;     // as x86 push imm32 (sleds)
inline constexpr std::uint8_t kJcc8Base = 0x70;  // 0x70|cc, rel8
inline constexpr std::uint8_t kJcc32Base = 0x78; // 0x78|cc, rel32
inline constexpr std::uint8_t kLoad8 = 0x84;
inline constexpr std::uint8_t kStore8 = 0x85;
inline constexpr std::uint8_t kTest = 0x86;
inline constexpr std::uint8_t kMov = 0x89;
inline constexpr std::uint8_t kStore = 0x8A;
inline constexpr std::uint8_t kLoad = 0x8B;
inline constexpr std::uint8_t kLoadPc = 0x8C;
inline constexpr std::uint8_t kLea = 0x8D;
inline constexpr std::uint8_t kNop = 0x90;       // as x86 nop (sleds)
inline constexpr std::uint8_t kMovI64 = 0xB8;
inline constexpr std::uint8_t kMovI = 0xB9;
inline constexpr std::uint8_t kRet = 0xC3;       // as x86 ret
inline constexpr std::uint8_t kCall = 0xE8;      // as x86 call rel32
inline constexpr std::uint8_t kJmp32 = 0xE9;     // as x86 jmp rel32
inline constexpr std::uint8_t kJmp8 = 0xEB;      // as x86 jmp rel8
inline constexpr std::uint8_t kHlt = 0xF4;       // as x86 hlt
inline constexpr std::uint8_t kCallR = 0xFD;
inline constexpr std::uint8_t kJmpR = 0xFE;
inline constexpr std::uint8_t kJmpT = 0xFF;
}  // namespace opc

/// Operand form: the wire layout that follows the opcode byte. The ISA
/// table (isa/table.h) gives every opcode one form; the decoder, encoder,
/// formatter and assembler switch on the form, never on an opcode or Op.
enum class Form : std::uint8_t {
  kNone,      ///< opcode only                           nop, ret, hlt
  kSys,       ///< opcode + fixed suffix byte            syscall (0x0F 0x05)
  kRegInOp,   ///< register in the opcode's low 3 bits   push r, pop r
  kReg,       ///< opcode + register byte                callr r, jmpr r
  kRegReg,    ///< opcode + packed (ra<<4 | rb)          add ra, rb
  kRel8,      ///< opcode + rel8                         jmp8, j<cc>8
  kRel32,     ///< opcode + rel32                        jmp, j<cc>, call
  kImm32,     ///< opcode + zero-extended imm32          pushi
  kRegImm32,  ///< opcode + reg + sign-extended imm32    movi, addi, ...
  kRegAbs32,  ///< opcode + reg + zero-extended imm32    jmpt r, table
  kRegImm64,  ///< opcode + reg + imm64                  movi64
  kPcRel,     ///< opcode + reg + disp32 from insn end   lea, loadpc
  kLoad,      ///< opcode + packed regs + disp32         load ra, [rb+d]
  kStore,     ///< opcode + packed regs + disp32         store [ra+d], rb
};

/// Encoded length of every instruction of form `f`.
constexpr int form_length(Form f) {
  switch (f) {
    case Form::kNone: case Form::kRegInOp:
      return 1;
    case Form::kSys: case Form::kReg: case Form::kRegReg: case Form::kRel8:
      return 2;
    case Form::kRel32: case Form::kImm32:
      return 5;
    case Form::kRegImm32: case Form::kRegAbs32: case Form::kPcRel: case Form::kLoad:
    case Form::kStore:
      return 6;
    case Form::kRegImm64:
      return 10;
  }
  return 0;
}

inline constexpr int kJmp8Len = form_length(Form::kRel8);
inline constexpr int kJmp32Len = form_length(Form::kRel32);
inline constexpr int kMaxInsnLen = form_length(Form::kRegImm64);

/// Reach of a rel8 displacement measured from end-of-instruction.
inline constexpr std::int64_t kRel8Min = -128;
inline constexpr std::int64_t kRel8Max = 127;

}  // namespace zipr::isa
