// Shared-library support: assembling libraries, linking, and -- the
// paper's Apache scenario -- rewriting the executable and its libraries
// INDEPENDENTLY and running the transformed set together.
#include <gtest/gtest.h>

#include "testing_util.h"
#include "vm/link.h"
#include "zelf/io.h"

namespace zipr {
namespace {

using ::zipr::testing::must_rewrite;

// Library: exports two functions; lives at its own addresses.
const char* kMathLibSrc = R"(
  .library
  .text
  .export lib_double
  .func lib_double
    add r1, r1
    ret
  .export lib_mix
  .func lib_mix
    mov r2, r1
    mul r1, r2
    addi r1, 13
    call internal_helper     ; NOT exported: private to the library
    ret
  .func internal_helper
    xori r1, 0x5a
    ret
)";

// Executable: imports both, computes f(x) = lib_mix(lib_double(x)).
const char* kMainSrc = R"(
  .entry main
  .text
  main:
    movi r0, 3
    movi r1, 0
    movi r2, buf
    movi r3, 1
    syscall
    load8 r1, [r2]
    movi r6, got_double
    load r6, [r6]
    callr r6
    movi r6, got_mix
    load r6, [r6]
    callr r6
    movi r2, buf
    store [r2], r1
    movi r0, 2
    movi r1, 1
    movi r3, 8
    syscall
    movi r0, 1
    movi r1, 0
    syscall
  .data
  .import got_double, lib_double
  .import got_mix, lib_mix
  .bss
  buf: .space 8
)";

assembler::Options lib_bases() {
  assembler::Options o;
  o.text_base = 0x900000;
  o.rodata_base = 0xa00000;
  o.data_base = 0xa80000;
  o.bss_base = 0xb00000;
  return o;
}

zelf::Image must_assemble_lib(std::string_view src) {
  auto img = assembler::assemble(src, lib_bases());
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
  return std::move(img).value();
}

TEST(Library, AssemblesWithExports) {
  zelf::Image lib = must_assemble_lib(kMathLibSrc);
  EXPECT_TRUE(lib.library);
  EXPECT_EQ(lib.entry, 0u);
  ASSERT_EQ(lib.exports.size(), 2u);
  EXPECT_EQ(lib.exports[0].name, "lib_double");
  EXPECT_EQ(lib.exports[0].addr, 0x900000u);
  EXPECT_TRUE(lib.validate().ok());
}

TEST(Library, ExecutableRecordsImports) {
  zelf::Image main = ::zipr::testing::must_assemble(kMainSrc);
  ASSERT_EQ(main.imports.size(), 2u);
  EXPECT_EQ(main.imports[0].name, "lib_double");
  EXPECT_EQ(main.imports[0].slot, zelf::layout::kDataBase);
  EXPECT_EQ(main.imports[1].slot, zelf::layout::kDataBase + 8);
}

TEST(Library, RoundTripsThroughZelf) {
  zelf::Image lib = must_assemble_lib(kMathLibSrc);
  auto back = zelf::read_image(zelf::write_image(lib));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_TRUE(back->library);
  EXPECT_EQ(back->exports.size(), 2u);
  EXPECT_EQ(back->exports[1].name, "lib_mix");
  zelf::Image main = ::zipr::testing::must_assemble(kMainSrc);
  auto main_back = zelf::read_image(zelf::write_image(main));
  ASSERT_TRUE(main_back.ok());
  EXPECT_EQ(main_back->imports.size(), 2u);
}

std::int64_t expected_result(std::uint8_t x) {
  std::uint64_t v = 2ull * x;
  v = v * v + 13;
  v ^= 0x5a;
  return static_cast<std::int64_t>(v & 0xffffffffffffffffull);
}

TEST(Link, BindsAndRuns) {
  auto linked = vm::link({::zipr::testing::must_assemble(kMainSrc),
                          must_assemble_lib(kMathLibSrc)});
  ASSERT_TRUE(linked.ok()) << linked.error().message;
  for (std::uint8_t x : {std::uint8_t{0}, std::uint8_t{5}, std::uint8_t{200}}) {
    auto r = vm::run_linked(*linked, Bytes{x});
    ASSERT_TRUE(r.exited);
    ASSERT_EQ(r.output.size(), 8u);
    EXPECT_EQ(static_cast<std::int64_t>(get_u64(r.output, 0)), expected_result(x)) << int(x);
  }
}

TEST(Link, ErrorCases) {
  zelf::Image main = ::zipr::testing::must_assemble(kMainSrc);
  zelf::Image lib = must_assemble_lib(kMathLibSrc);

  // Missing library -> unresolved import.
  EXPECT_FALSE(vm::link({main}).ok());
  // A library cannot come first.
  EXPECT_FALSE(vm::link({lib, main}).ok());
  // Duplicate exports.
  EXPECT_FALSE(vm::link({main, lib, lib}).ok());
  // Overlapping images.
  zelf::Image clash = ::zipr::testing::must_assemble(
      ".entry m\n.text\nm: movi r0, 1\nmovi r1, 0\nsyscall\n");
  zelf::Image overlapping_lib = lib;
  for (auto& seg : overlapping_lib.segments) seg.vaddr = clash.text().vaddr;
  EXPECT_FALSE(vm::link({clash, overlapping_lib}).ok());
}

TEST(Link, RejectsBssImportSlot) {
  auto img = assembler::assemble(R"(
    .entry m
    .text
    m: hlt
    .data
    .import slot_ok, something
  )");
  ASSERT_TRUE(img.ok());
  // Force the slot out of file-backed bytes.
  img->imports[0].slot = zelf::layout::kBssBase;
  zelf::Segment bss;
  bss.kind = zelf::SegKind::kBss;
  bss.vaddr = zelf::layout::kBssBase;
  bss.memsize = 16;
  img->segments.push_back(bss);
  zelf::Image lib = must_assemble_lib(".library\n.text\n.export something\nsomething: ret\n");
  EXPECT_FALSE(vm::link({*img, lib}).ok());
}

TEST(Library, ImportOutsideDataRejected) {
  auto img = assembler::assemble(".entry m\n.text\n.import s, f\nm: hlt\n");
  EXPECT_FALSE(img.ok());
}

TEST(Library, LibraryWithEntryRejected) {
  auto img = assembler::assemble(".library\n.entry m\n.text\nm: ret\n");
  EXPECT_FALSE(img.ok());
}

TEST(Library, UndefinedExportRejected) {
  auto img = assembler::assemble(".library\n.text\n.export ghost\nf: ret\n");
  EXPECT_FALSE(img.ok());
}

// ---- the paper's Apache experiment shape ----

struct LibRewriteCase {
  const char* name;
  std::vector<std::string> main_transforms;
  std::vector<std::string> lib_transforms;
  rewriter::PlacementKind lib_placement;
};

// Print a case by name, not as its raw bytes (which hold heap pointers),
// so the listed test names are the same in every run.
void PrintTo(const LibRewriteCase& c, std::ostream* os) { *os << c.name; }

class IndependentRewriteTest : public ::testing::TestWithParam<LibRewriteCase> {};

TEST_P(IndependentRewriteTest, TransformedImagesInterOperate) {
  const auto& param = GetParam();
  zelf::Image main = ::zipr::testing::must_assemble(kMainSrc);
  zelf::Image lib = must_assemble_lib(kMathLibSrc);

  // Rewrite each image in isolation -- neither rewrite sees the other.
  RewriteOptions main_opts;
  main_opts.transforms = param.main_transforms;
  auto new_main = must_rewrite(main, main_opts);

  RewriteOptions lib_opts;
  lib_opts.transforms = param.lib_transforms;
  lib_opts.placement = param.lib_placement;
  lib_opts.seed = 77;
  auto new_lib = must_rewrite(lib, lib_opts);
  EXPECT_TRUE(new_lib.image.library);
  EXPECT_EQ(new_lib.image.exports.size(), 2u);

  auto orig = vm::link({main, lib});
  auto both = vm::link({new_main.image, new_lib.image});
  auto mixed = vm::link({main, new_lib.image});  // old main, new lib
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(both.ok()) << both.error().message;
  ASSERT_TRUE(mixed.ok());

  for (std::uint8_t x : {std::uint8_t{1}, std::uint8_t{42}, std::uint8_t{255}}) {
    auto a = vm::run_linked(*orig, Bytes{x});
    auto b = vm::run_linked(*both, Bytes{x});
    auto c = vm::run_linked(*mixed, Bytes{x});
    EXPECT_EQ(a.output, b.output) << param.name << " x=" << int(x);
    EXPECT_EQ(a.output, c.output) << param.name << " (mixed) x=" << int(x);
    EXPECT_EQ(a.exit_status, b.exit_status);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IndependentRewriteTest,
    ::testing::Values(
        LibRewriteCase{"NullNull", {}, {}, rewriter::PlacementKind::kNearfit},
        LibRewriteCase{"CfiBoth", {"cfi"}, {"cfi"}, rewriter::PlacementKind::kNearfit},
        LibRewriteCase{"DiverseLib", {}, {}, rewriter::PlacementKind::kDiversity},
        LibRewriteCase{"FullStack",
                       {"cfi", "canary"},
                       {"cfi", "canary"},
                       rewriter::PlacementKind::kPinPage}),
    [](const ::testing::TestParamInfo<LibRewriteCase>& info) { return info.param.name; });

TEST(LibraryRewrite, ExportsArePinnedAndPreserved) {
  zelf::Image lib = must_assemble_lib(kMathLibSrc);
  auto r = must_rewrite(lib, {});
  // The rewritten library's export table is unchanged: callers bound to
  // the original addresses must still work.
  ASSERT_EQ(r.image.exports.size(), lib.exports.size());
  for (std::size_t i = 0; i < lib.exports.size(); ++i)
    EXPECT_EQ(r.image.exports[i].addr, lib.exports[i].addr);
  // Each export address holds either a reference (2- or 5-byte jump) or,
  // when pin-site coalescing kept the function at its original address,
  // the function's own first instruction.
  for (const auto& exp : lib.exports) {
    std::size_t off = static_cast<std::size_t>(exp.addr - lib.text().vaddr);
    Byte op = r.image.text().bytes[off];
    Byte orig = lib.text().bytes[off];
    EXPECT_TRUE(op == 0xEB || op == 0xE9 || op == orig) << exp.name << ": " << int(op);
  }
}

}  // namespace
}  // namespace zipr
