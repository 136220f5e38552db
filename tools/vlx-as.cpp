// vlx-as: assemble VLX assembly text into a ZELF binary.
//
//   vlx-as input.s --out=prog.zelf [--no-symbols]
#include "asm/assembler.h"
#include "cli_util.h"
#include "zelf/io.h"

int main(int argc, char** argv) {
  using namespace zipr;
  cli::Args args(argc, argv);
  cli::check_flags(args, {"out=", "no-symbols", "help"});
  if (args.has("help") || args.positional().size() != 1) {
    std::printf("usage: vlx-as <input.s> --out=<prog.zelf> [--no-symbols]\n");
    return args.has("help") ? 0 : 2;
  }
  auto out_path = args.value("out");
  if (!out_path) cli::die("--out=<path> is required");

  auto source = cli::read_file(args.positional()[0]);
  if (!source) cli::die("cannot read " + args.positional()[0]);

  assembler::Options opts;
  opts.emit_symbols = !args.has("no-symbols");
  auto image = assembler::assemble(*source, opts);
  if (!image.ok()) cli::die(image.error().message);

  auto saved = zelf::save_image(*image, *out_path);
  if (!saved.ok()) cli::die(saved.error().message);

  std::printf("%s: %zu text bytes, %zu segments, %zu symbols -> %s (%zu bytes)\n",
              args.positional()[0].c_str(), image->text().bytes.size(),
              image->segments.size(), image->symbols.size(), out_path->c_str(),
              image->file_size());
  return 0;
}
