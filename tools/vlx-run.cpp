// vlx-run: execute a ZELF binary in the VLX VM (the DECREE-like
// environment) and report its behaviour.
//
//   vlx-run prog.zelf [--lib=<lib.zelf>]... [--input=<file>]
//           [--input-hex=<bytes>] [--seed=N] [--max-insns=N] [--stats]
//           [--trace] [--hex-output]
#include <cinttypes>

#include "cli_util.h"
#include "vm/link.h"
#include "vm/machine.h"
#include "zelf/io.h"

int main(int argc, char** argv) {
  using namespace zipr;
  cli::Args args(argc, argv);
  cli::check_flags(args, {"lib=", "input=", "input-hex=", "seed=", "max-insns=", "stats",
                          "trace", "hex-output", "help"});
  if (args.has("help") || args.positional().size() != 1) {
    std::printf(
        "usage: vlx-run <prog.zelf> [--lib=<lib.zelf>]... [--input=<file>]\n"
        "               [--input-hex=<hex>] [--seed=N] [--max-insns=N] [--stats]\n"
        "               [--trace] [--hex-output]\n");
    return args.has("help") ? 0 : 2;
  }

  auto image = zelf::load_image(args.positional()[0]);
  if (!image.ok()) cli::die(image.error().message);

  // Load and bind shared libraries, if any.
  std::vector<zelf::Image> images{std::move(*image)};
  for (const auto& path : args.values("lib")) {
    auto lib = zelf::load_image(path);
    if (!lib.ok()) cli::die(path + ": " + lib.error().message);
    images.push_back(std::move(*lib));
  }
  auto linked = vm::link(std::move(images));
  if (!linked.ok()) cli::die(linked.error().message);

  Bytes input;
  if (auto path = args.value("input")) {
    auto data = cli::read_file(*path);
    if (!data) cli::die("cannot read " + *path);
    input.assign(data->begin(), data->end());
  } else if (auto hex = args.value("input-hex")) {
    std::string h = *hex;
    if (h.size() % 2) cli::die("--input-hex needs an even digit count");
    for (std::size_t i = 0; i < h.size(); i += 2)
      input.push_back(static_cast<Byte>(std::strtoul(h.substr(i, 2).c_str(), nullptr, 16)));
  }

  vm::RunLimits limits;
  limits.max_insns = cli::checked_u64(args, "max-insns", limits.max_insns);
  vm::Machine machine(*linked, limits);
  machine.set_input(std::move(input));
  machine.set_random_seed(cli::checked_u64(args, "seed", 0));
  if (args.has("trace"))
    machine.set_trace([](std::uint64_t pc, const isa::Insn& in) {
      std::fprintf(stderr, "%s: %s\n", hex_addr(pc).c_str(), isa::to_string_at(in, pc).c_str());
    });

  auto result = machine.run();

  if (args.has("hex-output")) {
    std::printf("%s\n", hex_dump(result.output).c_str());
  } else {
    std::fwrite(result.output.data(), 1, result.output.size(), stdout);
  }

  if (args.has("stats")) {
    std::fprintf(stderr, "insns=%" PRIu64 " cycles=%" PRIu64 " syscalls=%" PRIu64
                         " max-rss-pages=%zu\n",
                 result.stats.insns, result.stats.cycles, result.stats.syscalls,
                 result.stats.max_rss_pages);
  }
  if (result.exited) {
    std::fprintf(stderr, "exit status %lld\n", static_cast<long long>(result.exit_status));
    return static_cast<int>(result.exit_status & 0xff);
  }
  std::fprintf(stderr, "fault: %s at %s\n", vm::fault_name(result.fault),
               hex_addr(result.fault_pc).c_str());
  return 128;
}
