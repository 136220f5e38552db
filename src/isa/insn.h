// Decoded VLX instruction representation and classification helpers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "isa/opcodes.h"
#include "support/bytes.h"
#include "support/status.h"

namespace zipr::isa {

/// A decoded instruction. `length` is the encoded size in bytes; operand
/// fields are meaningful only for ops that use them.
struct Insn {
  Op op = Op::kInvalid;
  std::uint8_t length = 0;

  std::uint8_t ra = 0;   ///< first register operand (dst where applicable)
  std::uint8_t rb = 0;   ///< second register operand
  Cond cond = Cond::kEq; ///< for kJcc
  BranchWidth width = BranchWidth::kRel32;  ///< for kJmp / kJcc
  std::int64_t imm = 0;  ///< immediate / displacement (sign- or zero-extended
                         ///< per the op's semantics; rel branches keep the
                         ///< raw displacement here)

  // ---- classification ----
  bool is_control_flow() const {
    switch (op) {
      case Op::kJmp: case Op::kJcc: case Op::kCall: case Op::kRet:
      case Op::kCallR: case Op::kJmpR: case Op::kJmpT: case Op::kHlt:
        return true;
      default:
        return false;
    }
  }

  /// True for control flow through a runtime-computed target.
  bool is_indirect() const {
    return op == Op::kRet || op == Op::kCallR || op == Op::kJmpR || op == Op::kJmpT;
  }

  bool is_call() const { return op == Op::kCall || op == Op::kCallR; }

  /// True if the instruction has a statically-known control-flow target.
  bool has_static_target() const {
    return op == Op::kJmp || op == Op::kJcc || op == Op::kCall;
  }

  /// True if execution can continue at the next sequential instruction.
  /// (Unconditional jmp, ret, indirect jmp and hlt have no fallthrough;
  /// calls do: the callee returns to the next instruction.)
  bool has_fallthrough() const {
    switch (op) {
      case Op::kJmp: case Op::kRet: case Op::kJmpR: case Op::kJmpT:
      case Op::kHlt:
        return false;
      default:
        return true;
    }
  }

  /// True if the instruction reads data at a PC-relative address (the
  /// subject of mandatory transformations).
  bool is_pc_relative_data() const { return op == Op::kLea || op == Op::kLoadPc; }

  /// Static branch target given this instruction's address.
  /// Only valid when has_static_target().
  std::uint64_t target(std::uint64_t addr) const {
    return addr + length + static_cast<std::uint64_t>(imm);
  }

  /// Referenced data address for PC-relative data ops, given this
  /// instruction's address. Only valid when is_pc_relative_data().
  std::uint64_t pc_ref(std::uint64_t addr) const {
    return addr + length + static_cast<std::uint64_t>(imm);
  }

  friend bool operator==(const Insn&, const Insn&) = default;
};

/// Decode one instruction from `bytes` (which starts at the instruction's
/// first byte) into `out`. Returns false (leaving `out` unspecified) on an
/// empty input, an invalid opcode, truncated operands, a register out of
/// range or a bad syscall suffix. Allocation-free: one lookup in the ISA
/// table's opcode map, then one switch on the row's operand form. Decoding
/// never consults the address: VLX, like x86, has a position-independent
/// wire format (targets are computed from addr+imm). This is the entry the
/// disassembler and the VM's predecoded pages use, where a failed decode is
/// an expected outcome (data bytes inside an executable page).
bool decode_at(ByteView bytes, Insn& out);

/// decode_at() with a diagnostic: on failure, an Error::decode naming the
/// cause (empty input, invalid opcode, truncated operand of a named
/// mnemonic, register out of range, bad syscall suffix), composed only then.
Result<Insn> decode(ByteView bytes);

/// Encode `insn` directly into `out`, returning the number of bytes written.
/// Allocation-free: this is the hot-path entry used by the reassembler to
/// write into the output image in place. Fails if the operand values do not
/// fit the encoding or if `out` is too small (provide >= kMaxInsnLen to be
/// safe for any instruction).
Result<std::size_t> encode_into(const Insn& insn, std::span<Byte> out);

/// Encode `insn` by appending its wire form to `out`. Fails if the operand
/// values do not fit the encoding (e.g. rel8 displacement out of range).
Status encode(const Insn& insn, Bytes& out);

/// Convenience: encode to a fresh byte vector.
Result<Bytes> encode(const Insn& insn);

/// Encoded length the instruction will have (its ISA table row's length);
/// 0 for Op::kInvalid.
int encoded_length(const Insn& insn);

/// Disassembly-style text ("jmp +0x12", "add r1, r2"), address-independent.
std::string to_string(const Insn& insn);

/// Text with resolved targets for branches ("jmp 0x40010a").
std::string to_string_at(const Insn& insn, std::uint64_t addr);

// ---- small constructors used throughout the rewriter ----
Insn make_jmp(std::int64_t rel, BranchWidth w);
Insn make_jcc(Cond c, std::int64_t rel, BranchWidth w);
Insn make_call(std::int64_t rel);
Insn make_nop();
Insn make_push_imm(std::uint32_t imm);
Insn make_ret();
Insn make_hlt();

/// Execution cost in abstract cycles; used by the VM's stats so "execution
/// overhead" reflects that transfers and memory ops cost more than ALU ops.
int cost_of(Op op);

}  // namespace zipr::isa
