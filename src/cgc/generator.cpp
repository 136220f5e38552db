#include "cgc/generator.h"

#include <cassert>

#include "asm/assembler.h"
#include "support/rng.h"

namespace zipr::cgc {

namespace {

/// Builds the assembly text of one CB. All randomness flows from the
/// spec seed, so generation is reproducible.
class CbBuilder {
 public:
  explicit CbBuilder(const CbSpec& spec) : spec_(spec), rng_(spec.seed) {}

  std::string build(std::vector<int>* payload_len) {
    draw_payload_lengths();
    emit_header();
    emit_main();
    if (spec_.dispatch != DispatchMode::kDenseTable) {
      for (int i = 0; i < spec_.handlers; ++i) emit_handler(i);
    }
    emit_transmit_result();
    for (int j = 0; j < spec_.filler_funcs; ++j) emit_filler(j);
    if (spec_.recursion) emit_recur();
    if (spec_.unused_fptrs) emit_unused_functions();
    if (spec_.data_in_text) emit_text_blobs();
    emit_data_sections();
    *payload_len = payload_len_;
    return std::move(out_);
  }

 private:
  // ---- low-level emission ----
  void line(const std::string& s) { out_ += s + "\n"; }
  void label(const std::string& s) { out_ += s + ":\n"; }
  void insn(const std::string& s) { out_ += "  " + s + "\n"; }
  static std::string num(std::uint64_t v) { return std::to_string(v); }

  void draw_payload_lengths() {
    payload_len_.resize(static_cast<std::size_t>(spec_.handlers), 0);
    if (spec_.dispatch == DispatchMode::kDenseTable) return;  // no payloads
    for (auto& l : payload_len_)
      l = static_cast<int>(rng_.below(static_cast<std::uint64_t>(spec_.payload_max) + 1));
    if (spec_.interpreter_cases > 0) payload_len_[0] = 2;  // the case selector
  }

  void emit_header() {
    line("; generated challenge binary: " + spec_.name);
    line(".entry main");
    line(".text");
  }

  // Seeded ALU mutation of the accumulator r4 using r6 as a constant.
  void emit_acc_ops(int count) {
    for (int i = 0; i < count; ++i) {
      switch (rng_.below(7)) {
        case 0: insn("addi r4, " + num(rng_.below(1 << 20))); break;
        case 1: insn("xori r4, " + num(rng_.below(1 << 20))); break;
        case 2: insn("subi r4, " + num(rng_.below(1 << 16))); break;
        case 3:
          insn("movi r6, " + num(3 + rng_.below(97)));
          insn("mul r4, r6");
          break;
        case 4: insn("shli r4, " + num(1 + rng_.below(3))); break;
        case 5: insn("shri r4, " + num(1 + rng_.below(3))); break;
        case 6:
          insn("movi r6, " + num(1 + rng_.below(1u << 30)));
          insn("add r4, r6");
          break;
      }
    }
  }

  // Seeded scratch-memory traffic (drives the MaxRSS metric).
  void emit_memory_traffic(int rounds) {
    const std::uint64_t span = static_cast<std::uint64_t>(spec_.scratch_pages) * 4096 - 8;
    for (int i = 0; i < rounds; ++i) {
      std::uint64_t off1 = rng_.below(span) & ~7ull;
      std::uint64_t off2 = rng_.below(span) & ~7ull;
      insn("movi r2, scratch");
      insn("store [r2+" + num(off1) + "], r4");
      insn("load r5, [r2+" + num(off2) + "]");
      insn("add r4, r5");
    }
  }

  void emit_main() {
    line(".func main");
    label("svc_loop");
    insn("movi r0, 3");
    insn("movi r1, 0");
    insn("movi r2, cmdbuf");
    insn("movi r3, 1");
    insn("syscall");
    insn("cmpi r0, 1");
    insn("jlt svc_exit");
    insn("movi r2, cmdbuf");
    insn("load8 r1, [r2]");
    insn("cmpi r1, 0xff");
    insn("jeq svc_exit");
    insn("movi r2, " + num(static_cast<std::uint64_t>(spec_.handlers)));
    insn("mod r1, r2");

    switch (spec_.dispatch) {
      case DispatchMode::kJmpTable: {
        insn("jmpt r1, dtable");
        for (int i = 0; i < spec_.handlers; ++i) {
          label("stub_" + num(i));
          insn("call handler_" + num(i));
          insn("jmp svc_loop");
        }
        break;
      }
      case DispatchMode::kFptrTable: {
        insn("shli r1, 3");
        insn("movi r2, ftable");
        insn("add r2, r1");
        insn("load r6, [r2]");
        insn("callr r6");
        insn("jmp svc_loop");
        break;
      }
      case DispatchMode::kDenseTable: {
        // Adjacent 1-byte targets: landing depth is observable through the
        // number of pushes, so a mis-routed sled changes the output.
        insn("mov r6, sp");
        insn("jmpt r1, dtable");
        for (int i = 0; i < spec_.handlers; ++i) {
          label("dense_" + num(i));
          insn("push r1");  // 1 byte: consecutive entry points
        }
        insn("mov r5, r6");
        insn("sub r5, sp");
        insn("shri r5, 3");  // pushes executed = handlers - index
        insn("mov sp, r6");
        insn("mov r4, r5");
        insn("addi r4, " + num(rng_.below(1u << 24)));
        if (spec_.filler_funcs > 0) insn("call filler_0");
        insn("call transmit_result");
        insn("jmp svc_loop");
        break;
      }
    }

    label("svc_exit");
    insn("movi r0, 1");
    insn("movi r1, 0");
    insn("syscall");
    insn("hlt");
  }

  // The interpreter handler: a 2-byte selector picks one of N fixed-size
  // case blocks reached via computed jump (base + idx * 15). Every case is
  // address-taken through the rodata registry, hence pinned; the 15-byte
  // spacing leaves 10-byte fragments after each 5-byte reference --
  // unusable by any dollop -- so all case code relocates to overflow.
  void emit_interpreter_handler() {
    const int cases = spec_.interpreter_cases;
    line(".func handler_0");
    insn("subi sp, 32");
    insn("movi r0, 3");
    insn("movi r1, 0");
    insn("movi r2, pbuf");
    insn("movi r3, 2");
    insn("syscall");
    insn("movi r2, pbuf");
    insn("load8 r5, [r2]");
    insn("load8 r6, [r2+1]");
    insn("shli r6, 8");
    insn("or r5, r6");
    insn("mov r4, r5");
    insn("movi r3, 34");  // chain length: dispatches per command
    insn("jmp interp_next");
    // Dispatch loop: each iteration derives the next case index from the
    // accumulator and re-enters the case region through a COMPUTED jump to
    // the case's ORIGINAL (pinned) address. One command thus touches ~33
    // case pages both at their pinned addresses and wherever the bodies
    // were relocated -- the working set the memory metric sees.
    label("interp_next");
    insn("subi r3, 1");
    insn("cmpi r3, 0");
    insn("jle interp_done");
    insn("mov r5, r4");
    insn("andi r5, " + num(static_cast<std::uint64_t>(cases - 1)));
    insn("movi r6, 15");  // case block size
    insn("mul r5, r6");
    insn("addi r5, case_0");
    insn("jmpr r5");
    // The case region: fixed 15-byte blocks (movi64 + jmp), each pinned
    // via the registry. After the 5-byte reference at each pin only 10
    // free bytes remain -- less than any dollop's minimum footprint -- so
    // every relocated body spills to the overflow area.
    for (int k = 0; k < cases; ++k) {
      label("case_" + num(k));
      insn("movi64 r4, " + num(rng_.next()));  // 10 bytes
      insn("jmp interp_next");                 // 5 bytes -> 15-byte blocks
    }
    label("interp_done");
    insn("call transmit_result");
    insn("addi sp, 32");
    insn("ret");
  }

  void emit_handler(int i) {
    if (spec_.interpreter_cases > 0 && i == 0) {
      emit_interpreter_handler();
      return;
    }
    const std::string id = num(i);
    const int len = payload_len_[static_cast<std::size_t>(i)];
    line(".func handler_" + id);
    insn("subi sp, 32");
    if (len > 0) {
      insn("movi r0, 3");
      insn("movi r1, 0");
      insn("movi r2, pbuf");
      insn("movi r3, " + num(len));
      insn("syscall");
    }
    insn("movi r4, " + num(rng_.below(1u << 31)));  // accumulator seed

    if (len > 0) {
      insn("movi r2, pbuf");
      insn("movi r3, 0");
      label("hloop_" + id);
      insn("cmpi r3, " + num(len));
      insn("jge hdone_" + id);
      insn("load8 r5, [r2]");
      // 1-3 seeded payload-byte mixes.
      int mixes = 1 + static_cast<int>(rng_.below(3));
      for (int m = 0; m < mixes; ++m) {
        switch (rng_.below(4)) {
          case 0: insn("add r4, r5"); break;
          case 1: insn("xor r4, r5"); break;
          case 2: insn("sub r4, r5"); break;
          case 3:
            insn("shli r4, 1");
            insn("add r4, r5");
            break;
        }
      }
      insn("addi r2, 1");
      insn("addi r3, 1");
      insn("jmp hloop_" + id);
      label("hdone_" + id);
    }

    emit_acc_ops(2 + static_cast<int>(rng_.below(4)));
    if (spec_.straightline > 0) emit_acc_ops(spec_.straightline);
    emit_memory_traffic(1 + static_cast<int>(rng_.below(3)));

    if (spec_.filler_funcs > 0) {
      // Interpreter CBs keep their filler bulk cold (reachable, but the
      // pollers' working set stays in the case region).
      std::uint64_t pick = spec_.interpreter_cases > 0
                               ? 0
                               : rng_.below(static_cast<std::uint64_t>(spec_.filler_funcs));
      insn("call filler_" + num(pick));
    }

    if (spec_.data_in_text && i == 0) {
      insn("loadpc r5, key_0");
      insn("xor r4, r5");
    }
    if (spec_.recursion && i == std::min(1, spec_.handlers - 1)) {
      insn("mov r1, r4");
      insn("andi r1, 15");
      insn("call recur");
    }

    insn("call transmit_result");
    insn("addi sp, 32");
    insn("ret");
  }

  void emit_transmit_result() {
    line(".func transmit_result");
    insn("movi r2, outbuf");
    insn("store [r2], r4");
    insn("movi r0, 2");
    insn("movi r1, 1");
    insn("movi r3, 8");
    insn("syscall");
    insn("ret");
  }

  void emit_filler(int j) {
    line(".func filler_" + num(j));
    emit_acc_ops(spec_.filler_ops);
    // Seeded call chain deeper into the filler stack.
    if (j + 1 < spec_.filler_funcs && rng_.chance(1, 2))
      insn("call filler_" + num(j + 1));
    insn("ret");
  }

  void emit_recur() {
    line(".func recur");
    label("recur_top");
    insn("cmpi r1, 0");
    insn("jle recur_done");
    insn("addi r4, 7");
    insn("subi r1, 1");
    insn("call recur");
    label("recur_done");
    insn("ret");
  }

  void emit_unused_functions() {
    for (int k = 0; k < 3; ++k) {
      line(".func unused_" + num(k));
      emit_acc_ops(3 + static_cast<int>(rng_.below(5)));
      insn("ret");
    }
  }

  void emit_text_blobs() {
    for (int k = 0; k < 2; ++k) {
      const std::string id = num(k);
      insn("jmp after_blob_" + id);
      label("blob_" + id);
      // Random bytes with a guaranteed undecodable anchor (0x00).
      std::string bytes = ".byte 0x00";
      int n = 8 + static_cast<int>(rng_.below(17));
      for (int b = 0; b < n; ++b) bytes += ", " + num(rng_.below(256));
      insn(bytes);
      label("key_" + id);
      insn(".quad " + num(rng_.next()));
      label("after_blob_" + id);
    }
  }

  void emit_data_sections() {
    line(".rodata");
    if (spec_.dispatch == DispatchMode::kJmpTable) {
      label("dtable");
      std::string slots = ".quad stub_0";
      for (int i = 1; i < spec_.handlers; ++i) slots += ", stub_" + num(i);
      insn(slots);
      insn(".quad 0");
    } else if (spec_.dispatch == DispatchMode::kDenseTable) {
      label("dtable");
      std::string slots = ".quad dense_0";
      for (int i = 1; i < spec_.handlers; ++i) slots += ", dense_" + num(i);
      insn(slots);
      insn(".quad 0");
    } else {
      label("ftable");
      std::string slots = ".quad handler_0";
      for (int i = 1; i < spec_.handlers; ++i) slots += ", handler_" + num(i);
      insn(slots);
    }

    if (spec_.interpreter_cases > 0) {
      // The static address registry: the only place case addresses appear.
      // The analysis' data scan pins every case; the running program never
      // reads these pages.
      label("case_registry");
      for (int k = 0; k < spec_.interpreter_cases; k += 8) {
        std::string slots = ".quad case_" + num(k);
        for (int j = k + 1; j < std::min(k + 8, spec_.interpreter_cases); ++j)
          slots += ", case_" + num(j);
        insn(slots);
      }
    }

    if (spec_.unused_fptrs) {
      line(".data");
      label("fregistry");
      insn(".quad unused_0, unused_1, unused_2");
    }

    line(".bss");
    label("cmdbuf");
    insn(".space 8");
    label("pbuf");
    insn(".space 32");
    label("outbuf");
    insn(".space 8");
    label("scratch");
    insn(".space " + num(static_cast<std::uint64_t>(spec_.scratch_pages) * 4096));
  }

  const CbSpec& spec_;
  Rng rng_;
  std::string out_;
  std::vector<int> payload_len_;
};

}  // namespace

Result<std::string> generate_cb_source(const CbSpec& spec, std::vector<int>* payload_len) {
  if (spec.handlers < 1) return Error::invalid_argument("CB needs at least one handler");
  if (spec.dispatch == DispatchMode::kDenseTable && spec.handlers > 5)
    return Error::invalid_argument("dense dispatch supports at most 5 adjacent targets");
  if (spec.interpreter_cases > 0) {
    if (spec.dispatch == DispatchMode::kDenseTable)
      return Error::invalid_argument("interpreter handler requires a non-dense dispatch");
    if ((spec.interpreter_cases & (spec.interpreter_cases - 1)) != 0)
      return Error::invalid_argument("interpreter_cases must be a power of two");
  }
  CbBuilder builder(spec);
  return builder.build(payload_len);
}

namespace {

Result<CbProgram> assemble_cb(const CbSpec& spec, assembler::Options opts) {
  CbProgram prog;
  prog.spec = spec;
  ZIPR_ASSIGN_OR_RETURN(std::string src, generate_cb_source(spec, &prog.payload_len));
  opts.emit_symbols = false;  // CBs ship without metadata
  ZIPR_ASSIGN_OR_RETURN(prog.image, assembler::assemble(src, opts));
  return prog;
}

}  // namespace

Result<CbProgram> generate_cb(const CbSpec& spec) { return assemble_cb(spec, {}); }

Result<CbProgram> generate_wide_cb(const CbSpec& spec) {
  assembler::Options opts;
  opts.rodata_base = 0x4000000;  // 60 MB of text headroom
  opts.data_base = 0x4100000;
  opts.bss_base = 0x4180000;
  return assemble_cb(spec, opts);
}

CbSpec synthetic_large_spec(int scale, std::uint64_t seed) {
  CbSpec spec;
  spec.name = "synthetic-large-x" + std::to_string(scale);
  spec.seed = seed;
  spec.handlers = 24;
  spec.dispatch = DispatchMode::kFptrTable;
  spec.filler_funcs = 48 * scale;
  spec.filler_ops = 24;
  spec.straightline = 600 * scale;
  spec.scratch_pages = 4;
  spec.data_in_text = true;
  spec.payload_max = 12;
  return spec;
}

std::vector<CbSpec> cfe_corpus() {
  std::vector<CbSpec> corpus;
  Rng rng(0xCFE2016);

  auto add = [&](CbSpec spec) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "cb_%03zu", corpus.size() + 1);
    spec.name = buf;
    spec.seed = rng.next();
    corpus.push_back(spec);
  };

  // 30 jump-table services of varied size.
  for (int i = 0; i < 30; ++i) {
    CbSpec s;
    s.dispatch = DispatchMode::kJmpTable;
    s.handlers = 2 + static_cast<int>(rng.below(7));
    s.filler_funcs = 8 + static_cast<int>(rng.below(13));
    s.filler_ops = 16 + static_cast<int>(rng.below(19));
    s.scratch_pages = 1 + static_cast<int>(rng.below(5));
    s.payload_max = static_cast<int>(rng.below(17));
    s.straightline = (i % 5 == 0) ? 40 + static_cast<int>(rng.below(60)) : 0;
    s.data_in_text = i % 4 == 0;
    s.recursion = i % 3 == 0;
    s.unused_fptrs = i % 6 == 0;
    add(s);
  }

  // 20 function-pointer services.
  for (int i = 0; i < 20; ++i) {
    CbSpec s;
    s.dispatch = DispatchMode::kFptrTable;
    s.handlers = 2 + static_cast<int>(rng.below(7));
    s.filler_funcs = 8 + static_cast<int>(rng.below(11));
    s.filler_ops = 16 + static_cast<int>(rng.below(25));
    s.scratch_pages = 1 + static_cast<int>(rng.below(7));
    s.payload_max = static_cast<int>(rng.below(13));
    s.straightline = (i % 6 == 0) ? 60 + static_cast<int>(rng.below(80)) : 0;
    s.data_in_text = i % 5 == 0;
    s.recursion = i % 4 == 0;
    s.unused_fptrs = i % 5 == 1;
    add(s);
  }

  // 3 dense-dispatch services (sled-forcing, sizes 2-3 as in the paper).
  for (int i = 0; i < 3; ++i) {
    CbSpec s;
    s.dispatch = DispatchMode::kDenseTable;
    s.handlers = 2 + (i % 2);
    s.filler_funcs = 10 + static_cast<int>(rng.below(5));
    s.filler_ops = 24;
    s.scratch_pages = 1;
    add(s);
  }

  // 8 larger services (bigger code, deeper call chains).
  for (int i = 0; i < 8; ++i) {
    CbSpec s;
    s.dispatch = i % 2 == 0 ? DispatchMode::kJmpTable : DispatchMode::kFptrTable;
    s.handlers = 6 + static_cast<int>(rng.below(3));
    s.filler_funcs = 12 + static_cast<int>(rng.below(9));
    s.filler_ops = 20 + static_cast<int>(rng.below(21));
    s.straightline = 80 + static_cast<int>(rng.below(120));
    s.scratch_pages = 2 + static_cast<int>(rng.below(7));
    s.payload_max = 16;
    s.data_in_text = i % 2 == 1;
    s.recursion = i % 3 == 0;
    add(s);
  }

  // The pathological CB (paper Fig. 6's >50 % memory outlier): thousands
  // of pinned interpreter cases fragment the address space into slivers no
  // dollop fits, so the case bodies -- most of the program's code -- end
  // up in the overflow area; every executed case then touches a pin page
  // AND an overflow page. (Pin-site coalescing defuses this by emitting
  // each body at its pinned address; fig6 demonstrates the mechanism with
  // coalescing disabled.)
  // The hot interpreter region spills while the (large) cold filler code
  // re-packs into its own freed space, so file-size overhead stays small
  // even as the hot working set doubles.
  {
    CbSpec s;
    s.dispatch = DispatchMode::kJmpTable;
    s.handlers = 4;
    s.filler_funcs = 420;
    s.filler_ops = 50;
    s.interpreter_cases = 2048;
    s.scratch_pages = 1;
    s.payload_max = 8;
    add(s);
  }

  assert(corpus.size() == 62);
  return corpus;
}

}  // namespace zipr::cgc
