// Tests for the VLX VM: instruction semantics, syscalls, faults, memory
// protection, and the statistics the evaluation relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.h"
#include "vm/machine.h"

namespace zipr::vm {
namespace {

zelf::Image build(std::string_view src) {
  auto img = assembler::assemble(src);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
  return std::move(img).value();
}

RunResult run_src(std::string_view src, ByteView input = {}, std::uint64_t seed = 0) {
  return run_program(build(src), input, seed);
}

std::string out_str(const RunResult& r) {
  return std::string(r.output.begin(), r.output.end());
}

TEST(Vm, TerminateWithStatus) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 42
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 42);
  EXPECT_EQ(r.fault, Fault::kNone);
}

TEST(Vm, TransmitWritesOutput) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 2        ; transmit
      movi r1, 1        ; fd (ignored)
      movi r2, msg
      movi r3, 5
      syscall
      movi r0, 1
      movi r1, 0
      syscall
    .rodata
    msg: .ascii "hello"
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(out_str(r), "hello");
}

TEST(Vm, ReceiveReadsInputAndEof) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 3        ; receive
      movi r1, 0
      movi r2, buf
      movi r3, 16
      syscall
      mov r3, r0        ; echo exactly what we read
      movi r0, 2
      movi r1, 1
      movi r2, buf
      syscall
      ; second receive at EOF must return 0
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 16
      syscall
      mov r1, r0        ; exit status = bytes read at EOF
      movi r0, 1
      syscall
    .bss
    buf: .space 16
  )",
                   Bytes{'a', 'b', 'c'});
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(out_str(r), "abc");
  EXPECT_EQ(r.exit_status, 0);
}

TEST(Vm, AllocateReturnsUsableMemory) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 5        ; allocate
      movi r1, 100
      syscall
      mov r4, r0        ; base
      movi r5, 0x77
      store8 [r4+50], r5
      load8 r6, [r4+50]
      movi r0, 1
      mov r1, r6
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 0x77);
}

TEST(Vm, RandomIsDeterministicPerSeed) {
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 7        ; random
      movi r1, buf
      movi r2, 8
      syscall
      movi r0, 2        ; transmit the 8 random bytes
      movi r1, 1
      movi r2, buf
      movi r3, 8
      syscall
      movi r0, 1
      movi r1, 0
      syscall
    .bss
    buf: .space 8
  )";
  auto a = run_src(src, {}, 99);
  auto b = run_src(src, {}, 99);
  auto c = run_src(src, {}, 100);
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output, c.output);
}

TEST(Vm, FdwaitAndDeallocateSucceed) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 4
      syscall
      mov r5, r0
      movi r0, 6
      movi r1, 0x10000000
      movi r2, 4096
      syscall
      add r5, r0
      movi r0, 1
      mov r1, r5
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 0);
}

TEST(Vm, BadSyscallFaults) {
  auto r = run_src(".entry m\n.text\nm: movi r0, 99\nsyscall\n");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadSyscall);
}

TEST(Vm, CallAndRet) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, 5
      call double
      ; r1 = 10 now
      movi r0, 1
      syscall
    double:
      add r1, r1
      ret
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 10);
}

TEST(Vm, IndirectCallThroughRegister) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r2, target
      callr r2
      movi r0, 1
      syscall
    target:
      movi r1, 77
      ret
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 77);
}

TEST(Vm, JumpTableDispatch) {
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 3        ; receive selector byte
      movi r1, 0
      movi r2, sel
      movi r3, 1
      syscall
      load8 r0, [r2]
      jmpt r0, table
    case0:
      movi r1, 100
      jmp done
    case1:
      movi r1, 200
      jmp done
    case2:
      movi r1, 300
    done:
      movi r0, 1
      syscall
    .rodata
    table:
      .quad case0, case1, case2
    .bss
    sel: .space 1
  )";
  EXPECT_EQ(run_src(src, Bytes{0}).exit_status, 100);
  EXPECT_EQ(run_src(src, Bytes{1}).exit_status, 200);
  EXPECT_EQ(run_src(src, Bytes{2}).exit_status, 300);
}

TEST(Vm, ConditionalSemantics) {
  // exit status = bitmask of taken conditions for the pair (3, 5).
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, 3
      movi r2, 5
      movi r3, 0
      cmp r1, r2
      jlt is_lt
      jmp after_lt
    is_lt:
      ori r3, 1
    after_lt:
      cmp r1, r2
      jne is_ne
      jmp after_ne
    is_ne:
      ori r3, 2
    after_ne:
      cmp r2, r1
      jgt is_gt
      jmp after_gt
    is_gt:
      ori r3, 4
    after_gt:
      movi r1, -1
      cmpi r1, 1
      jb is_b           ; unsigned: 0xfff... is not below 1
      ori r3, 8
    is_b:
      movi r0, 1
      mov r1, r3
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 1 | 2 | 4 | 8);
}

TEST(Vm, PcRelativeLoadpcAndLea) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      loadpc r1, value   ; r1 = 123
      lea r2, value
      load r3, [r2]      ; r3 = 123 via the lea'd address
      add r1, r3
      movi r0, 1
      syscall
    .rodata
    value: .quad 123
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 246);
}

TEST(Vm, AluAndShifts) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, 7
      movi r2, 3
      mov r3, r1
      mul r3, r2        ; 21
      mov r4, r3
      div r4, r2        ; 7
      mov r5, r3
      mod r5, r2        ; 0
      movi r6, 1
      shli r6, 4        ; 16
      add r3, r4        ; 28
      add r3, r5        ; 28
      add r3, r6        ; 44
      movi r6, -8
      mov r2, r6
      movi r1, 3
      sar r2, r1        ; -1
      sub r3, r2        ; 45
      movi r0, 1
      mov r1, r3
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 45);
}

TEST(Vm, DivByZeroFaults) {
  auto r = run_src(".entry m\n.text\nm: movi r1, 1\nmovi r2, 0\ndiv r1, r2\nhlt\n");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kDivByZero);
}

TEST(Vm, HltFaults) {
  auto r = run_src(".entry m\n.text\nm: hlt\n");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kHalt);
  EXPECT_EQ(r.fault_pc, zelf::layout::kTextBase);
}

TEST(Vm, WriteToTextFaults) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, main
      movi r2, 0
      store [r1], r2
      hlt
  )");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadAccess);
}

TEST(Vm, WriteToRodataFaults) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, konst
      movi r2, 9
      store [r1], r2
      hlt
    .rodata
    konst: .quad 5
  )");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadAccess);
}

TEST(Vm, ExecuteDataFaults) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r1, blob
      jmpr r1
    .data
    blob: .byte 0x90, 0x90
  )");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadAccess);
}

TEST(Vm, UnmappedAccessFaults) {
  auto r = run_src(".entry m\n.text\nm: movi r1, 0x1000\nload r2, [r1]\nhlt\n");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadAccess);
}

TEST(Vm, UndecodableInstructionFaults) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      jmp data
    data:
      .byte 0x00, 0x00
  )");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kBadInsn);
}

TEST(Vm, GasLimitStopsRunaway) {
  RunLimits lim;
  lim.max_insns = 1000;
  auto img = build(".entry m\n.text\nm: jmp m\n");
  auto r = run_program(img, {}, 0, lim);
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kGasExhausted);
  EXPECT_EQ(r.stats.insns, 1000u);
}

TEST(Vm, StackOverflowFaults) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      call main        ; infinite recursion
  )");
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.fault, Fault::kStackOverflow);
}

TEST(Vm, StatsCountInsnsAndPages) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.stats.insns, 3u);
  EXPECT_EQ(r.stats.syscalls, 1u);
  // One text page; terminate touches no memory; no stack use.
  EXPECT_GE(r.stats.max_rss_pages, 1u);
  EXPECT_LE(r.stats.max_rss_pages, 2u);
}

TEST(Vm, CyclesExceedInsns) {
  auto r = run_src(".entry m\n.text\nm: push r0\npop r1\nmovi r0, 1\nmovi r1, 0\nsyscall\n");
  EXPECT_TRUE(r.exited);
  EXPECT_GT(r.stats.cycles, r.stats.insns);
}

TEST(Vm, TouchingMorePagesIncreasesRss) {
  auto small = run_src(R"(
    .entry main
    .text
    main:
      movi r0, 1
      movi r1, 0
      syscall
  )");
  auto large = run_src(R"(
    .entry main
    .text
    main:
      movi r1, buf
      movi r2, 0
    loop:
      store8 [r1], r2
      addi r1, 4096
      addi r2, 1
      cmpi r2, 8
      jlt loop
      movi r0, 1
      movi r1, 0
      syscall
    .bss
    buf: .space 32768
  )");
  EXPECT_GT(large.stats.max_rss_pages, small.stats.max_rss_pages + 6);
}

TEST(Vm, SledSemantics) {
  // Jumping into the middle of a push-imm32's immediate executes nops:
  // the byte-level aliasing the paper's sleds exploit.
  auto r = run_src(R"(
    .entry main
    .text
    main:
      jmp sled_mid
    sled:
      .byte 0x68, 0x90, 0x90, 0x90, 0x90   ; push 0x90909090
    after:
      movi r0, 1
      movi r1, 7
      syscall
    sled_mid:
      jmp sled+1       ; lands on the first 0x90
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 7);
}

TEST(Vm, SledPushPathLeavesValueOnStack) {
  auto r = run_src(R"(
    .entry main
    .text
    main:
      jmp sled         ; lands on 0x68: pushes 0x90909090
    sled:
      .byte 0x68, 0x90, 0x90, 0x90, 0x90
    after:
      pop r1           ; the sled's pushed word
      movi r0, 1
      syscall
  )");
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_status, 0x90909090);
}

TEST(Vm, InputBytesConsumedTracksReceive) {
  const char* src = R"(
    .entry m
    .text
    m:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 8
      syscall
      movi r0, 1
      movi r1, 0
      syscall
    .bss
    buf: .space 8
  )";
  Bytes fat(32, 5);
  auto r = run_src(src, fat);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.input_bytes_consumed, 8u);  // 24 tail bytes never read
  Bytes thin(3, 5);
  auto r2 = run_src(src, thin);
  EXPECT_TRUE(r2.exited);
  EXPECT_EQ(r2.input_bytes_consumed, 3u);  // short read at EOF
}

TEST(Vm, SnapshotRestoreRewindsAllState) {
  const char* src = R"(
    .entry m
    .text
    m:
      movi r0, 3
      movi r1, 0
      movi r2, buf
      movi r3, 8
      syscall
      movi r6, buf
      load r1, [r6]
      movi r0, 1
      syscall
    .bss
    buf: .space 8
  )";
  auto img = build(src);
  Machine m(img);
  auto snap = m.snapshot();

  m.set_input(Bytes{1, 0, 0, 0, 0, 0, 0, 0});
  auto r1 = m.run();
  EXPECT_TRUE(r1.exited);
  EXPECT_EQ(r1.exit_status, 1);

  ASSERT_TRUE(m.restore(snap).ok());
  m.set_input(Bytes{9, 0, 0, 0, 0, 0, 0, 0});
  auto r2 = m.run();
  EXPECT_TRUE(r2.exited);
  EXPECT_EQ(r2.exit_status, 9) << "stale memory from the first run leaked through";
  EXPECT_EQ(r2.stats.insns, r1.stats.insns);

  // Restore also rewinds the touched-page accounting (MaxRSS metric).
  ASSERT_TRUE(m.restore(snap).ok());
  m.set_input(Bytes{2, 0, 0, 0, 0, 0, 0, 0});
  auto r3 = m.run();
  EXPECT_EQ(r3.stats.max_rss_pages, r2.stats.max_rss_pages);
}

TEST(Vm, RestoreWithoutSnapshotFails) {
  auto img = build(".entry m\n.text\nm: movi r0, 1\nmovi r1, 0\nsyscall\n");
  Machine a(img);
  Machine b(img);
  auto snap = a.snapshot();
  EXPECT_FALSE(b.restore(snap).ok()) << "no snapshot was ever taken on b";
}

TEST(Vm, TraceHookSeesEveryInstruction) {
  auto img = build(".entry m\n.text\nm: nop\nnop\nmovi r0, 1\nmovi r1, 0\nsyscall\n");
  Machine m(img);
  std::vector<std::uint64_t> pcs;
  m.set_trace([&](std::uint64_t pc, const isa::Insn&) { pcs.push_back(pc); });
  auto r = m.run();
  EXPECT_TRUE(r.exited);
  ASSERT_EQ(pcs.size(), 5u);
  EXPECT_EQ(pcs[0], zelf::layout::kTextBase);
  EXPECT_EQ(pcs[1], zelf::layout::kTextBase + 1);
}

// allocate() must refuse to grow the heap into the guard page below the
// stack mapping; a run of large allocations used to map pages straight
// through the stack region.
TEST(Vm, AllocateRefusesToGrowHeapIntoStackGuard) {
  constexpr std::uint64_t kCeiling =
      zelf::layout::kStackTop - zelf::layout::kStackSize - kPageSize;
  const char* src = R"(
    .entry main
    .text
    main:
      movi r0, 5          ; allocate
      movi r1, 1048576    ; 1 MiB
      syscall
      movi r0, 1
      movi r1, 0
      syscall
  )";

  {  // 1 MiB does not fit below the ceiling: must fault, not map.
    Machine m(build(src));
    m.set_heap_next(kCeiling - 0x1000);
    auto r = m.run();
    EXPECT_FALSE(r.exited);
    EXPECT_EQ(r.fault, Fault::kBadSyscall);
    // Nothing may have been mapped over the guard or the stack.
    EXPECT_FALSE(m.memory().is_mapped(kCeiling));
    EXPECT_EQ(m.heap_next(), kCeiling - 0x1000);
  }
  {  // An exact fit against the ceiling is still allowed.
    Machine m(build(src));
    m.set_heap_next(kCeiling - 0x100000);
    auto r = m.run();
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.exit_status, 0);
    EXPECT_EQ(m.heap_next(), kCeiling);
  }
  {  // heap_next past the ceiling (overflow-adjacent) also faults.
    Machine m(build(src));
    m.set_heap_next(kCeiling + kPageSize);
    auto r = m.run();
    EXPECT_FALSE(r.exited);
    EXPECT_EQ(r.fault, Fault::kBadSyscall);
  }
}

// restore() erases pages mapped after the snapshot; the inline TLB must
// not serve stale translations for them afterwards.
TEST(VmMemory, RestoreDropsTlbEntriesForUnmappedPages) {
  Memory mem;
  mem.map_anon(0x1000, kPageSize, kPermRead | kPermWrite);
  auto snap = mem.snapshot();

  mem.map_anon(0x5000, kPageSize, kPermRead | kPermWrite);
  ASSERT_TRUE(mem.write_u8(0x5000, 0xAB));  // warms the TLB
  ASSERT_TRUE(mem.read_u8(0x5000).has_value());

  ASSERT_TRUE(mem.restore(snap).ok());
  EXPECT_FALSE(mem.read_u8(0x5000).has_value());  // page is gone again
  EXPECT_TRUE(mem.read_u8(0x1000).has_value());   // surviving page still works
}

// Non-exec anonymous mappings are recorded as regions; pages appear
// zero-filled on first access.
constexpr std::uint64_t kLazyBase = 0x100000;
constexpr std::uint64_t kLazySize = 1 << 20;

TEST(VmMemory, LazyAnonMapCreatesNoPages) {
  Memory mem;
  mem.map_anon(kLazyBase, kLazySize, kPermRead | kPermWrite);
  EXPECT_EQ(mem.pages_touched(), 0u);
  EXPECT_TRUE(mem.is_mapped(kLazyBase));
  EXPECT_TRUE(mem.is_mapped(kLazyBase + kLazySize - 1));
  EXPECT_FALSE(mem.is_mapped(kLazyBase + kLazySize));
  EXPECT_FALSE(mem.is_mapped(kLazyBase - 1));
}

TEST(VmMemory, LazyPageFirstReadIsZeroAndCountsOnePage) {
  Memory mem;
  mem.map_anon(kLazyBase, kLazySize, kPermRead | kPermWrite);
  EXPECT_EQ(mem.read_u64(kLazyBase + 0x18), std::optional<std::uint64_t>(0));
  EXPECT_EQ(mem.pages_touched(), 1u);
  EXPECT_EQ(mem.read_u8(kLazyBase + 0x19), std::optional<std::uint8_t>(0));
  EXPECT_EQ(mem.pages_touched(), 1u);  // same page
  EXPECT_FALSE(mem.read_u8(kLazyBase + kLazySize).has_value());  // past the region
  EXPECT_EQ(mem.pages_touched(), 1u);
}

TEST(VmMemory, RestoreDropsLazyPageCreatedAfterSnapshot) {
  Memory mem;
  mem.map_anon(kLazyBase, kLazySize, kPermRead | kPermWrite);
  auto snap = mem.snapshot();
  ASSERT_TRUE(mem.write_u64(kLazyBase + 0x40, 0xdeadbeef));
  EXPECT_EQ(mem.read_u64(kLazyBase + 0x40), std::optional<std::uint64_t>(0xdeadbeef));
  EXPECT_EQ(mem.pages_touched(), 1u);

  ASSERT_TRUE(mem.restore(snap).ok());
  EXPECT_EQ(mem.pages_touched(), 0u);
  EXPECT_TRUE(mem.is_mapped(kLazyBase + 0x40));
  EXPECT_EQ(mem.read_u64(kLazyBase + 0x40), std::optional<std::uint64_t>(0));
  EXPECT_EQ(mem.pages_touched(), 1u);
}

TEST(VmMemory, PeekIntoLazyPageReadsZerosWithoutTouching) {
  Memory mem;
  mem.map_anon(kLazyBase, kLazySize, kPermRead | kPermWrite);
  ASSERT_TRUE(mem.write_u8(kLazyBase, 7));  // one created page, one lazy one
  ASSERT_EQ(mem.pages_touched(), 1u);
  std::vector<Byte> buf(2 * kPageSize, 0xff);
  ASSERT_TRUE(mem.peek_into(kLazyBase, std::span<Byte>(buf)).ok());
  EXPECT_EQ(buf[0], 7);
  EXPECT_TRUE(std::all_of(buf.begin() + 1, buf.end(), [](Byte b) { return b == 0; }));
  EXPECT_EQ(mem.pages_touched(), 1u);
  EXPECT_FALSE(mem.peek_into(kLazyBase + kLazySize - 1, std::span<Byte>(buf)).ok());
}

// allocate() maps adjacent ranges; they may coalesce into one region, but
// never into a region the snapshot holds, so restore() unmaps them all.
TEST(VmMemory, RestoreUnmapsAnonRegionsMappedAfterSnapshot) {
  Memory mem;
  mem.map_anon(kLazyBase, kPageSize, kPermRead | kPermWrite);
  auto snap = mem.snapshot();
  mem.map_anon(kLazyBase + kPageSize, kPageSize, kPermRead | kPermWrite);
  mem.map_anon(kLazyBase + 2 * kPageSize, kPageSize, kPermRead | kPermWrite);
  ASSERT_TRUE(mem.write_u8(kLazyBase + 2 * kPageSize, 1));

  ASSERT_TRUE(mem.restore(snap).ok());
  EXPECT_TRUE(mem.is_mapped(kLazyBase));
  EXPECT_FALSE(mem.is_mapped(kLazyBase + kPageSize));
  EXPECT_FALSE(mem.is_mapped(kLazyBase + 2 * kPageSize));
  EXPECT_FALSE(mem.read_u8(kLazyBase + 2 * kPageSize).has_value());
}

TEST(VmMemory, ExecAnonMapBumpsCodeEpoch) {
  Memory mem;
  const std::uint64_t e0 = mem.code_epoch();
  mem.map_anon(kLazyBase, kLazySize, kPermRead | kPermWrite);
  EXPECT_EQ(mem.code_epoch(), e0);
  mem.map_anon(0x10000, kPageSize, kPermRead | kPermWrite | kPermExec);
  EXPECT_GT(mem.code_epoch(), e0);
  EXPECT_NE(mem.exec_page_data(0x10000), nullptr);
}

}  // namespace
}  // namespace zipr::vm
