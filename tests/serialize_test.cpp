// Tests for IRDB text serialization: round trips, determinism, and
// rejection of malformed dumps.
#include <gtest/gtest.h>

#include "analysis/ir_builder.h"
#include "irdb/serialize.h"
#include "testing_util.h"

namespace zipr::irdb {
namespace {

using ::zipr::testing::must_assemble;

Database sample_db() {
  Database db;
  Instruction a;
  a.decoded = isa::make_jmp(0, isa::BranchWidth::kRel32);
  a.orig_addr = 0x400000;
  a.orig_bytes = {0xE9, 0, 0, 0, 0};
  InsnId ja = db.add_instruction(std::move(a));

  Instruction b;
  b.decoded = isa::make_ret();
  b.orig_addr = 0x400005;
  b.orig_bytes = {0xC3};
  InsnId rb = db.add_instruction(std::move(b));

  db.insn(ja).target = rb;

  Instruction v;
  v.verbatim = true;
  v.orig_addr = 0x400006;
  v.orig_bytes = {0x00, 0x01, 0x02};
  db.add_instruction(std::move(v));

  Instruction lea;
  lea.decoded.op = isa::Op::kLea;
  lea.decoded.ra = 1;
  lea.decoded.length = 6;
  lea.data_ref = 0x600010;
  InsnId l = db.add_instruction(std::move(lea));
  db.insn(rb).fallthrough = l;

  EXPECT_TRUE(db.pin(0x400000, ja).ok());
  EXPECT_TRUE(db.pin(0x400005, rb).ok());

  Function f;
  f.name = "func_400000";
  f.entry = ja;
  f.members = {ja, rb};
  FuncId fid = db.add_function(std::move(f));
  db.insn(ja).function = fid;
  db.insn(rb).function = fid;
  return db;
}

TEST(Serialize, RoundTripPreservesEverything) {
  Database db = sample_db();
  std::string text = serialize(db);
  auto back = deserialize(text);
  ASSERT_TRUE(back.ok()) << back.error().message;

  EXPECT_EQ(back->insn_count(), db.insn_count());
  EXPECT_EQ(back->pins(), db.pins());
  EXPECT_EQ(back->function_count(), db.function_count());
  EXPECT_EQ(back->insn(1).decoded.op, isa::Op::kJmp);
  EXPECT_EQ(back->insn(1).target, 2u);
  EXPECT_EQ(back->insn(1).orig_addr, 0x400000u);
  EXPECT_EQ(back->insn(2).fallthrough, 4u);
  EXPECT_TRUE(back->insn(3).verbatim);
  EXPECT_EQ(back->insn(3).orig_bytes, (Bytes{0x00, 0x01, 0x02}));
  EXPECT_EQ(back->insn(4).data_ref, 0x600010u);
  EXPECT_EQ(back->function(1).name, "func_400000");
  EXPECT_EQ(back->function(1).members, (std::vector<InsnId>{1, 2}));
}

TEST(Serialize, CanonicalFormIsStable) {
  Database db = sample_db();
  std::string once = serialize(db);
  auto back = deserialize(once);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(serialize(*back), once);
}

TEST(Serialize, RealProgramIrRoundTrips) {
  auto img = must_assemble(R"(
    .entry main
    .text
    main:
      movi r1, helper
      callr r1
      lea r2, konst
      movi r0, 1
      movi r1, 0
      syscall
    helper:
      movi r1, 9
      ret
    blob:
      .byte 0x00, 0x13, 0x37
    .rodata
    konst: .quad 5
  )");
  auto prog = analysis::build_ir(img);
  ASSERT_TRUE(prog.ok()) << prog.error().message;

  std::string text = serialize(prog->db);
  auto back = deserialize(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->insn_count(), prog->db.insn_count());
  EXPECT_EQ(back->pins(), prog->db.pins());
  EXPECT_EQ(serialize(*back), text);
}

struct BadDump {
  const char* name;
  const char* text;
};

// Print a case as its name; gtest's default byte dump of the pointers
// differs from run to run, and so would the listed test names.
void PrintTo(const BadDump& d, std::ostream* os) { *os << d.name; }

class SerializeErrorTest : public ::testing::TestWithParam<BadDump> {};

TEST_P(SerializeErrorTest, Rejected) {
  EXPECT_FALSE(deserialize(GetParam().text).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SerializeErrorTest,
    ::testing::Values(
        BadDump{"Empty", ""},
        BadDump{"NoHeader", "insn 1 bytes=90\n"},
        BadDump{"BadHeader", "zipr-irdb 99\n"},
        BadDump{"BadHex", "zipr-irdb 1\ninsn 1 bytes=zz\n"},
        BadDump{"OddHex", "zipr-irdb 1\ninsn 1 bytes=901\n"},
        BadDump{"NoBytes", "zipr-irdb 1\ninsn 1 orig=4\n"},
        BadDump{"UndecodableBytes", "zipr-irdb 1\ninsn 1 bytes=00\n"},
        BadDump{"NonSequentialId", "zipr-irdb 1\ninsn 5 bytes=90\n"},
        BadDump{"DanglingPin", "zipr-irdb 1\ninsn 1 bytes=90\npin 4194304 9\n"},
        BadDump{"DanglingTarget", "zipr-irdb 1\ninsn 1 bytes=90 tgt=7\n"},
        BadDump{"UnknownRecord", "zipr-irdb 1\nfrob 1 2 3\n"},
        BadDump{"UnknownField", "zipr-irdb 1\ninsn 1 bytes=90 wat=3\n"}),
    [](const ::testing::TestParamInfo<BadDump>& info) { return info.param.name; });

// An undecodable row reports the decoder's cause, not just the line.
TEST(Serialize, UndecodableBytesNameTheCause) {
  auto r = deserialize("zipr-irdb 1\ninsn 1 bytes=e90102\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("irdb line 2: undecodable insn bytes: truncated jmp operand"),
            std::string::npos)
      << r.error().message;
}

}  // namespace
}  // namespace zipr::irdb
