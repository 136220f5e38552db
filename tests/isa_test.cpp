// Unit + property tests for the VLX ISA: decode/encode round trips, exact
// wire encodings the rest of the system depends on (sled bytes, jump
// encodings), and classification predicates.
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "isa/table.h"

namespace zipr::isa {
namespace {

TEST(Decode, Nop) {
  Bytes b{0x90};
  auto i = decode(b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->op, Op::kNop);
  EXPECT_EQ(i->length, 1);
}

TEST(Decode, Jmp8NegativeDisplacement) {
  Bytes b{0xEB, 0xFE};  // jmp -2 => self-loop
  auto i = decode(b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->op, Op::kJmp);
  EXPECT_EQ(i->width, BranchWidth::kRel8);
  EXPECT_EQ(i->imm, -2);
  EXPECT_EQ(i->target(0x1000), 0x1000u);  // addr + 2 + (-2)
}

TEST(Decode, Jmp32) {
  Bytes b{0xE9, 0x10, 0x00, 0x00, 0x00};
  auto i = decode(b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->op, Op::kJmp);
  EXPECT_EQ(i->width, BranchWidth::kRel32);
  EXPECT_EQ(i->target(0x400000), 0x400015u);
}

TEST(Decode, JccBothWidths) {
  Bytes b8{0x71, 0x05};  // jne +5
  auto i8 = decode(b8);
  ASSERT_TRUE(i8.ok());
  EXPECT_EQ(i8->op, Op::kJcc);
  EXPECT_EQ(i8->cond, Cond::kNe);
  EXPECT_EQ(i8->width, BranchWidth::kRel8);

  Bytes b32{0x7E, 0x00, 0x01, 0x00, 0x00};  // jb +256
  auto i32 = decode(b32);
  ASSERT_TRUE(i32.ok());
  EXPECT_EQ(i32->op, Op::kJcc);
  EXPECT_EQ(i32->cond, Cond::kB);
  EXPECT_EQ(i32->width, BranchWidth::kRel32);
  EXPECT_EQ(i32->imm, 256);
}

TEST(Decode, PushImmMatchesX86SledBytes) {
  // The exact byte sequence from the paper's sled discussion:
  // 0x68 0x90 0x90 0x90 0x90 decodes as push 0x90909090.
  Bytes b{0x68, 0x90, 0x90, 0x90, 0x90};
  auto i = decode(b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->op, Op::kPushI);
  EXPECT_EQ(i->length, 5);
  EXPECT_EQ(static_cast<std::uint64_t>(i->imm), 0x90909090u);
}

// A failed decode is an Error::Kind::kDecode whose message names the cause.
void expect_decode_error(const Bytes& b, const std::string& cause) {
  auto r = decode(b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, Error::Kind::kDecode);
  EXPECT_NE(r.error().message.find(cause), std::string::npos) << r.error().message;
}

TEST(Decode, InvalidOpcode) { expect_decode_error(Bytes{0x00}, "invalid opcode 0x0"); }

TEST(Decode, TruncatedOperandFails) {
  // jmp32 with only 3 bytes
  expect_decode_error(Bytes{0xE9, 0x01, 0x02}, "truncated jmp operand (3 of 5 bytes)");
}

TEST(Decode, EmptyFails) { expect_decode_error(Bytes{}, "empty byte range"); }

TEST(Decode, RegisterOutOfRangeFails) {
  // movi64 r9
  expect_decode_error(Bytes{0xB8, 0x09, 0, 0, 0, 0, 0, 0, 0, 0},
                      "movi64 register operand out of range");
  // add r1, r8: the packed low nibble
  expect_decode_error(Bytes{0x01, 0x18}, "add register operand out of range");
}

TEST(Decode, SyscallNeedsSuffix) {
  Bytes good{0x0F, 0x05};
  EXPECT_TRUE(decode(good).ok());
  expect_decode_error(Bytes{0x0F, 0x06}, "bad syscall suffix 0x6");
  expect_decode_error(Bytes{0x0F}, "truncated syscall operand");
}

TEST(Decode, PushPopRegisterEncodedInOpcode) {
  for (int r = 0; r < kNumRegs; ++r) {
    Bytes pu{static_cast<Byte>(0x50 | r)};
    auto i = decode(pu);
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(i->op, Op::kPush);
    EXPECT_EQ(i->ra, r);

    Bytes po{static_cast<Byte>(0x58 | r)};
    auto j = decode(po);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j->op, Op::kPop);
    EXPECT_EQ(j->ra, r);
  }
}

TEST(Encode, JmpRel8OutOfRangeRejected) {
  EXPECT_FALSE(encode(make_jmp(128, BranchWidth::kRel8)).ok());
  EXPECT_FALSE(encode(make_jmp(-129, BranchWidth::kRel8)).ok());
  EXPECT_TRUE(encode(make_jmp(127, BranchWidth::kRel8)).ok());
  EXPECT_TRUE(encode(make_jmp(-128, BranchWidth::kRel8)).ok());
}

TEST(Encode, ExactJumpBytes) {
  auto b8 = encode(make_jmp(-2, BranchWidth::kRel8));
  ASSERT_TRUE(b8.ok());
  EXPECT_EQ(*b8, (Bytes{0xEB, 0xFE}));

  auto b32 = encode(make_jmp(0x1000, BranchWidth::kRel32));
  ASSERT_TRUE(b32.ok());
  EXPECT_EQ(*b32, (Bytes{0xE9, 0x00, 0x10, 0x00, 0x00}));
}

TEST(Encode, SledPushBytes) {
  auto b = encode(make_push_imm(0x90909090));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (Bytes{0x68, 0x90, 0x90, 0x90, 0x90}));
}

TEST(Classify, ControlFlowPredicates) {
  EXPECT_TRUE(make_jmp(0, BranchWidth::kRel32).is_control_flow());
  EXPECT_FALSE(make_jmp(0, BranchWidth::kRel32).has_fallthrough());
  EXPECT_TRUE(make_jcc(Cond::kEq, 0, BranchWidth::kRel8).has_fallthrough());
  EXPECT_TRUE(make_call(0).has_fallthrough());
  EXPECT_TRUE(make_call(0).has_static_target());
  EXPECT_FALSE(make_ret().has_fallthrough());
  EXPECT_TRUE(make_ret().is_indirect());
  EXPECT_FALSE(make_nop().is_control_flow());
  EXPECT_FALSE(make_hlt().has_fallthrough());
}

TEST(Classify, PcRelativeData) {
  Insn lea;
  lea.op = Op::kLea;
  lea.ra = 1;
  lea.imm = 0x10;
  lea.length = 6;
  EXPECT_TRUE(lea.is_pc_relative_data());
  EXPECT_EQ(lea.pc_ref(0x400000), 0x400016u);
  EXPECT_FALSE(lea.is_control_flow());
}

TEST(Format, Readable) {
  EXPECT_EQ(to_string(make_nop()), "nop");
  EXPECT_EQ(to_string(make_jmp(0x10, BranchWidth::kRel32)), "jmp +0x10");
  EXPECT_EQ(to_string_at(make_jmp(0x10, BranchWidth::kRel32), 0x400000), "jmp 0x400015");
  Insn mov;
  mov.op = Op::kMov;
  mov.ra = 0;
  mov.rb = 7;
  EXPECT_EQ(to_string(mov), "mov r0, sp");
}

TEST(Cost, TransfersCostMoreThanAlu) {
  EXPECT_GT(cost_of(Op::kCall), cost_of(Op::kAdd));
  EXPECT_GT(cost_of(Op::kJmp), cost_of(Op::kAdd));
  EXPECT_GT(cost_of(Op::kSyscall), cost_of(Op::kCall));
}

// ---- property: encode(decode(x)) round trip over every constructible op ----

std::vector<Insn> representative_insns() {
  std::vector<Insn> v;
  auto add = [&](Insn i) { v.push_back(i); };

  for (Op op : {Op::kNop, Op::kHlt, Op::kRet, Op::kSyscall}) {
    Insn i;
    i.op = op;
    add(i);
  }
  add(make_jmp(5, BranchWidth::kRel8));
  add(make_jmp(-77, BranchWidth::kRel8));
  add(make_jmp(100000, BranchWidth::kRel32));
  for (int cc = 0; cc < 8; ++cc) {
    add(make_jcc(static_cast<Cond>(cc), 7, BranchWidth::kRel8));
    add(make_jcc(static_cast<Cond>(cc), -30000, BranchWidth::kRel32));
  }
  add(make_call(0x1234));
  add(make_push_imm(0xdeadbeef));
  for (Op op : {Op::kPush, Op::kPop, Op::kCallR, Op::kJmpR}) {
    for (std::uint8_t r : {0, 3, 7}) {
      Insn i;
      i.op = op;
      i.ra = r;
      add(i);
    }
  }
  {
    Insn i;
    i.op = Op::kJmpT;
    i.ra = 2;
    i.imm = 0x600010;
    add(i);
  }
  for (Op op : {Op::kMovI, Op::kAddI, Op::kSubI, Op::kAndI, Op::kOrI, Op::kXorI,
                Op::kShlI, Op::kShrI, Op::kCmpI, Op::kLea, Op::kLoadPc}) {
    Insn i;
    i.op = op;
    i.ra = 4;
    i.imm = -42;
    add(i);
  }
  {
    Insn i;
    i.op = Op::kMovI64;
    i.ra = 6;
    i.imm = static_cast<std::int64_t>(0xfedcba9876543210ULL);
    add(i);
  }
  for (Op op : {Op::kMov, Op::kAdd, Op::kSub, Op::kAnd, Op::kOr, Op::kXor, Op::kMul,
                Op::kDiv, Op::kMod, Op::kShl, Op::kShr, Op::kSar, Op::kCmp, Op::kTest}) {
    Insn i;
    i.op = op;
    i.ra = 1;
    i.rb = 5;
    add(i);
  }
  for (Op op : {Op::kLoad, Op::kStore, Op::kLoad8, Op::kStore8}) {
    Insn i;
    i.op = op;
    i.ra = 2;
    i.rb = 3;
    i.imm = -8;
    add(i);
  }
  return v;
}

class RoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTripTest, EncodeDecodeIdentity) {
  auto all = representative_insns();
  ASSERT_LT(GetParam(), all.size());
  Insn in = all[GetParam()];
  in.length = static_cast<std::uint8_t>(encoded_length(in));

  auto bytes = encode(in);
  ASSERT_TRUE(bytes.ok()) << to_string(in) << ": " << bytes.error().message;
  EXPECT_EQ(bytes->size(), static_cast<std::size_t>(encoded_length(in)));

  auto back = decode(*bytes);
  ASSERT_TRUE(back.ok()) << to_string(in) << ": " << back.error().message;
  EXPECT_EQ(*back, in) << "decoded " << to_string(*back) << " from " << to_string(in);
}

INSTANTIATE_TEST_SUITE_P(AllRepresentatives, RoundTripTest,
                         ::testing::Range<std::size_t>(0, 68));

TEST(RoundTrip, RepresentativeCountMatchesRange) {
  // Keep the INSTANTIATE range in sync with the corpus size.
  EXPECT_EQ(representative_insns().size(), 68u);
}

// Decoding arbitrary byte soup must never crash, and successful decodes must
// report a length within the fetched window.
TEST(DecodeFuzz, ArbitraryBytesAreSafe) {
  std::uint64_t seed = 0x12345;
  for (int iter = 0; iter < 5000; ++iter) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    Bytes b;
    std::size_t n = 1 + (seed % 12);
    for (std::size_t i = 0; i < n; ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      b.push_back(static_cast<Byte>(seed >> 33));
    }
    auto r = decode(b);
    if (r.ok()) {
      EXPECT_GE(r->length, 1);
      EXPECT_LE(r->length, static_cast<int>(b.size()));
      // Whatever decoded must re-encode to the identical prefix.
      auto re = encode(*r);
      ASSERT_TRUE(re.ok());
      EXPECT_EQ(Bytes(b.begin(), b.begin() + r->length), *re);
    }
  }
}

// decode() is decode_at() plus an error built on failure: on every input
// the two must agree on accept/reject, and on accept produce the identical
// Insn. (Golden.IsaDigest below pins what they agree on.)
TEST(DecodeAt, AgreesWithDecodeOnAllTwoByteStrings) {
  Bytes b(2);
  for (int op0 = 0; op0 < 256; ++op0) {
    for (int b1 = 0; b1 < 256; ++b1) {
      b[0] = static_cast<Byte>(op0);
      b[1] = static_cast<Byte>(b1);
      Insn at;
      bool ok = decode_at(b, at);
      auto ref = decode(b);
      ASSERT_EQ(ok, ref.ok()) << "op0=" << op0 << " b1=" << b1;
      if (ok) {
        EXPECT_EQ(at, *ref) << "op0=" << op0 << " b1=" << b1;
      }
    }
  }
}

// The fixed random byte soup: 20,000 strings of 1..kMaxInsnLen bytes.
template <typename Visit>
void for_each_soup_string(Visit visit) {
  std::uint64_t seed = 0xdec0dea7;
  for (int iter = 0; iter < 20000; ++iter) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    Bytes b;
    std::size_t n = 1 + (seed % static_cast<std::uint64_t>(kMaxInsnLen));
    for (std::size_t i = 0; i < n; ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      b.push_back(static_cast<Byte>(seed >> 33));
    }
    visit(b);
  }
}

TEST(DecodeAt, AgreesWithDecodeOnRandomStrings) {
  for_each_soup_string([](const Bytes& b) {
    Insn at;
    bool ok = decode_at(b, at);
    auto ref = decode(b);
    ASSERT_EQ(ok, ref.ok());
    if (ok) {
      EXPECT_EQ(at, *ref);
    }
  });
}

// Golden ISA digest: an order-sensitive FNV-1a over everything the ISA layer
// says about every 1-byte string, every 2-byte string and the random soup --
// accept/reject, each Insn field, and for accepted instructions the encoded
// bytes, encoded_length, cost_of and both text forms. The constant was
// recorded from the hand-written per-opcode decoder/encoder/formatter that
// preceded the ISA table, so it pins the table to that independent source.
constexpr std::uint64_t kGoldenIsaDigest = 0xa21820c92878f921ULL;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  void num(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    num(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

void digest_one(Fnv& f, ByteView b) {
  Insn in;
  bool ok = decode_at(b, in);
  f.num(ok);
  if (!ok) return;
  f.num(static_cast<std::int64_t>(in.op));
  f.num(in.length);
  f.num(in.ra);
  f.num(in.rb);
  f.num(static_cast<std::int64_t>(in.cond));
  f.num(static_cast<std::int64_t>(in.width));
  f.num(in.imm);
  auto enc = encode(in);
  f.num(enc.ok());
  if (enc.ok()) {
    f.num(static_cast<std::int64_t>(enc->size()));
    f.bytes(enc->data(), enc->size());
  }
  f.num(encoded_length(in));
  f.num(cost_of(in.op));
  f.str(to_string(in));
  f.str(to_string_at(in, 0x400000));
}

TEST(Golden, IsaDigest) {
  Fnv f;
  Bytes one(1), two(2);
  for (int b0 = 0; b0 < 256; ++b0) {
    one[0] = static_cast<Byte>(b0);
    digest_one(f, one);
  }
  for (int b0 = 0; b0 < 256; ++b0) {
    for (int b1 = 0; b1 < 256; ++b1) {
      two[0] = static_cast<Byte>(b0);
      two[1] = static_cast<Byte>(b1);
      digest_one(f, two);
    }
  }
  for_each_soup_string([&](const Bytes& b) { digest_one(f, b); });
  EXPECT_EQ(f.h, kGoldenIsaDigest) << std::hex << "0x" << f.h;
}

// A canonical instruction for table row `s`: the row's op, cond and width,
// and sample values in exactly the operand fields its form encodes.
Insn representative(const Spec& s) {
  Insn in;
  in.op = s.op;
  in.cond = s.cond;
  in.width = s.width();
  in.length = s.length;
  switch (s.form) {
    case Form::kNone: case Form::kSys:
      break;
    case Form::kRegInOp: case Form::kReg:
      in.ra = 3;
      break;
    case Form::kRegReg:
      in.ra = 3;
      in.rb = 5;
      break;
    case Form::kRel8:
      in.imm = -2;
      break;
    case Form::kRel32:
      in.imm = -5;
      break;
    case Form::kImm32:
      in.imm = 0x90909090;
      break;
    case Form::kRegImm32: case Form::kPcRel:
      in.ra = 3;
      in.imm = -42;
      break;
    case Form::kRegAbs32:
      in.ra = 3;
      in.imm = 0x600010;
      break;
    case Form::kRegImm64:
      in.ra = 3;
      in.imm = 0x123456789;
      break;
    case Form::kLoad: case Form::kStore:
      in.ra = 3;
      in.rb = 5;
      in.imm = -8;
      break;
  }
  return in;
}

// Every table row agrees with itself through each reader: encode/decode
// round-trip through the row's own opcode, the row's length, the formatter's
// mnemonic, and the assembler's mnemonic lookup.
TEST(IsaTable, EveryRowIsConsistent) {
  for (const Spec& s : kSpecs) {
    const std::string m(s.mnemonic);
    SCOPED_TRACE(m);
    const Insn in = representative(s);
    EXPECT_EQ(spec_of(in), &s);
    EXPECT_EQ(encoded_length(in), s.length);
    EXPECT_EQ(cost_of(s.op), s.cost);

    auto bytes = encode(in);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    ASSERT_EQ(bytes->size(), s.length);
    EXPECT_EQ(&kSpecs[kOpcodeSpec[(*bytes)[0]]], &s);
    auto back = decode(*bytes);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(*back, in);

    const std::string text = to_string(in);
    EXPECT_TRUE(text == m || text.rfind(m + " ", 0) == 0) << text;

    // The assembler spells rel8 rows with an "8" suffix and takes a label
    // as branch target; every other row assembles from its to_string text.
    const bool branch = s.form == Form::kRel8 || s.form == Form::kRel32;
    const std::string line = branch ? m + (s.form == Form::kRel8 ? "8" : "") + " main" : text;
    auto img = assembler::assemble(".entry main\n.text\nmain:\n  " + line + "\n");
    ASSERT_TRUE(img.ok()) << line << ": " << img.error().message;
    auto assembled = decode(img->text().bytes);
    ASSERT_TRUE(assembled.ok()) << line;
    EXPECT_EQ(assembled->op, s.op) << line;
    EXPECT_EQ(assembled->width, s.width()) << line;
    EXPECT_EQ(assembled->cond, s.cond) << line;
    if (!branch) {
      EXPECT_EQ(img->text().bytes, *bytes) << line;
    }
  }
}

}  // namespace
}  // namespace zipr::isa
