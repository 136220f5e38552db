// vlx-objdump: inspect a ZELF binary -- headers, segments, symbols, and a
// disassembly of the text segment from either engine's point of view.
//
//   vlx-objdump prog.zelf [--disasm=linear|traversal|none] [--no-symbols]
#include <cinttypes>

#include "analysis/disasm.h"
#include "cli_util.h"
#include "zelf/io.h"

int main(int argc, char** argv) {
  using namespace zipr;
  cli::Args args(argc, argv);
  cli::check_flags(args, {"disasm=", "no-symbols", "help"});
  if (args.has("help") || args.positional().size() != 1) {
    std::printf("usage: vlx-objdump <prog.zelf> [--disasm=linear|traversal|none] [--no-symbols]\n");
    return args.has("help") ? 0 : 2;
  }

  auto image = zelf::load_image(args.positional()[0]);
  if (!image.ok()) cli::die(image.error().message);

  std::printf("%s: ZELF, entry %s, %zu file bytes\n\n", args.positional()[0].c_str(),
              hex_addr(image->entry).c_str(), image->file_size());

  std::printf("segments:\n");
  for (const auto& seg : image->segments)
    std::printf("  %-7s %s..%s  file=%zu mem=%" PRIu64 "\n", zelf::seg_kind_name(seg.kind),
                hex_addr(seg.vaddr).c_str(), hex_addr(seg.end()).c_str(), seg.bytes.size(),
                seg.memsize);

  if (!args.has("no-symbols") && !image->symbols.empty()) {
    std::printf("\nsymbols:\n");
    for (const auto& sym : image->symbols) {
      const char* kind = sym.kind == zelf::Symbol::Kind::kFunc     ? "func"
                         : sym.kind == zelf::Symbol::Kind::kObject ? "object"
                                                                   : "label";
      std::printf("  %s %-6s %s\n", hex_addr(sym.addr).c_str(), kind, sym.name.c_str());
    }
  }

  std::string mode = args.value("disasm").value_or("traversal");
  if (mode == "none") return 0;

  analysis::DisasmResult dis;
  if (mode == "linear") {
    dis = analysis::linear_sweep(image->text());
  } else if (mode == "traversal") {
    dis = analysis::recursive_traversal(*image).dis;
  } else {
    cli::die("--disasm must be linear, traversal, or none");
  }

  std::printf("\ndisassembly (%s):\n", mode.c_str());
  const zelf::Segment& text = image->text();
  std::uint64_t addr = text.vaddr;
  const std::uint64_t end = text.vaddr + text.bytes.size();
  while (addr < end) {
    const isa::Insn* found = dis.insns.find(addr);
    if (!found) {
      // Coalesce undecoded/unreached bytes into one line per gap.
      std::uint64_t gap_end = addr;
      while (gap_end < end && !dis.insns.count(gap_end)) ++gap_end;
      std::printf("  %s  <%" PRIu64 " data/unreached bytes>\n", hex_addr(addr).c_str(),
                  gap_end - addr);
      addr = gap_end;
      continue;
    }
    const isa::Insn& in = *found;
    Bytes raw(text.bytes.begin() + static_cast<std::ptrdiff_t>(addr - text.vaddr),
              text.bytes.begin() + static_cast<std::ptrdiff_t>(addr - text.vaddr + in.length));
    std::printf("  %s  %-30s %s\n", hex_addr(addr).c_str(), hex_dump(raw).c_str(),
                isa::to_string_at(in, addr).c_str());
    addr += in.length;
  }
  return 0;
}
