// zipr-cli: the rewriter as a command-line tool.
//
// Single-binary mode:
//   zipr-cli input.zelf --out=output.zelf
//            [--transform=null|cfi|stackpad|canary|profile]...   (repeatable)
//            [--placement=nearfit|diversity|pinpage] [--seed=N]
//            [--coalesce|--no-coalesce] [--cov-prune|--no-cov-prune]
//            [--pin-call-returns] [--naive-pins]
//            [--stats] [--dump-ir=<file>] [--list-transforms]
//
// Batch mode (2+ inputs, or --out-dir): rewrite a corpus on --jobs threads;
// one failing binary is reported and exits nonzero at the end but never
// stops the rest.
//   zipr-cli a.zelf b.zelf ... --out-dir=DIR [--jobs=N] [batch-safe flags]
//
// Fuzz mode: instrument with coverage (default --transform=cov) and run the
// coverage-guided fuzzer on the calling thread; --shards=N>1 runs the
// multi-shard farm orchestrator instead, its lanes on --jobs threads (at
// most N). Results are the same at any shard or thread count.
//   zipr-cli fuzz input.zelf [--runs=N] [--shards=N] [--jobs=N]
//            [--input=<seed file>]... [--crash-dir=DIR]
//            [rewrite flags as in single-binary mode]
//
// Serve mode: long-running rewrite service on a local Unix socket, with a
// content-addressed artifact cache and a page-delta fast path; --jobs
// connections are served at once (default: hardware concurrency).
//   zipr-cli serve --socket=PATH [--jobs=N] [--cache-mb=N] [--no-delta]
//            [--max-delta-pages=N] [--max-requests=N] [--cache-file=PATH]
//   zipr-cli submit <input.zelf> --socket=PATH --out=<output.zelf>
//            [rewrite flags as in single-binary mode]
#include <cinttypes>
#include <climits>
#include <cstdint>
#include <filesystem>

#include "batch/batch_rewriter.h"
#include "cli_util.h"
#include "farm/farm.h"
#include "fuzz/fuzzer.h"
#include "irdb/serialize.h"
#include "serve/engine.h"
#include "serve/socket.h"
#include "transform/api.h"
#include "zelf/io.h"
#include "zipr/zipr.h"

namespace {

// Rewrite-configuration flags shared by single-binary, batch, submit and
// fuzz modes (cli::check_flags spelling: "key=" takes a value); every
// numeric flag is strictly parsed (cli::checked_u64).
const std::vector<std::string> kRewriteFlags = {
    "transform=", "placement=", "seed=",          "coalesce",  "no-coalesce",
    "cov-prune",  "no-cov-prune", "pin-call-returns", "naive-pins"};

zipr::RewriteOptions parse_rewrite_options(const zipr::cli::Args& args) {
  using namespace zipr;
  RewriteOptions options;
  options.transforms = args.values("transform");
  options.seed = cli::checked_u64(args, "seed", 1);
  options.analysis.pinning.pin_call_returns = args.has("pin-call-returns");
  options.analysis.pinning.naive_pin_all = args.has("naive-pins");
  std::string placement = args.value("placement").value_or("nearfit");
  if (placement == "nearfit")
    options.placement = rewriter::PlacementKind::kNearfit;
  else if (placement == "diversity")
    options.placement = rewriter::PlacementKind::kDiversity;
  else if (placement == "pinpage")
    options.placement = rewriter::PlacementKind::kPinPage;
  else
    cli::die("unknown placement '" + placement + "'");
  if (args.has("coalesce") && args.has("no-coalesce"))
    cli::die("--coalesce and --no-coalesce are mutually exclusive");
  if (args.has("coalesce")) options.coalesce = true;
  if (args.has("no-coalesce")) options.coalesce = false;
  if (args.has("cov-prune") && args.has("no-cov-prune"))
    cli::die("--cov-prune and --no-cov-prune are mutually exclusive");
  options.cov_prune = !args.has("no-cov-prune");
  return options;
}

std::vector<std::string> with_flags(std::vector<std::string> base,
                                    std::initializer_list<const char*> extra) {
  for (const char* f : extra) base.emplace_back(f);
  return base;
}

int run_serve(const zipr::cli::Args& args) {
  using namespace zipr;
  cli::check_flags(args, {"socket=", "jobs=", "cache-mb=", "no-delta", "max-delta-pages=",
                          "max-requests=", "cache-file="});
  auto socket_path = args.value("socket");
  if (!socket_path) cli::die("serve mode requires --socket=<path>");

  serve::ServeOptions sopts;
  sopts.jobs = static_cast<int>(cli::checked_u64(args, "jobs", 0, 4096));
  sopts.cache_bytes =
      static_cast<std::size_t>(cli::checked_u64(args, "cache-mb", 64, 1 << 20)) << 20;
  sopts.enable_delta = !args.has("no-delta");
  sopts.delta.max_changed_pages =
      static_cast<std::size_t>(cli::checked_u64(args, "max-delta-pages", 8, 1 << 20));
  // Persistent cache: a restarted daemon re-answers previously-seen
  // requests as byte-identical cache hits instead of re-rewriting.
  sopts.cache_file = args.value("cache-file").value_or("");
  serve::ServeEngine engine(sopts);

  serve::SocketServerOptions server;
  server.path = *socket_path;
  server.max_requests =
      static_cast<long>(cli::checked_u64(args, "max-requests", 0, LONG_MAX));
  if (server.max_requests == 0) server.max_requests = -1;  // 0/absent = unbounded

  std::printf("serve: listening on %s (jobs %zu, cache %zu MiB, delta %s%s%s)\n",
              socket_path->c_str(), serve::acceptor_count(sopts.jobs, server.max_requests),
              sopts.cache_bytes >> 20,
              sopts.enable_delta ? "on" : "off",
              sopts.cache_file.empty() ? "" : ", persist ",
              sopts.cache_file.c_str());
  std::fflush(stdout);

  Status st = serve::serve_on_socket(engine, server);
  if (!st.ok()) cli::die(st.error().message);

  serve::ServeStats s = engine.stats();
  std::printf(
      "serve: %" PRIu64 " request(s): %" PRIu64 " cold, %" PRIu64 " cache hit(s), %" PRIu64
      " delta hit(s), %" PRIu64 " delta fallback(s), %" PRIu64
      " failure(s); cache %zu bytes, %" PRIu64 " eviction(s)\n",
      s.requests, s.cold, s.cache_hits, s.delta_hits, s.delta_fallbacks, s.failures,
      s.cache.bytes, s.cache.evictions);
  return 0;
}

int run_submit(const zipr::cli::Args& args) {
  using namespace zipr;
  cli::check_flags(args, with_flags(kRewriteFlags, {"socket=", "out="}));
  if (args.positional().size() != 2)
    cli::die("submit mode takes exactly one input image: zipr-cli submit <input.zelf>");
  auto socket_path = args.value("socket");
  if (!socket_path) cli::die("submit mode requires --socket=<path>");
  auto out_path = args.value("out");
  if (!out_path) cli::die("--out=<path> is required");

  auto data = cli::read_file(args.positional()[1]);
  if (!data) cli::die("cannot read " + args.positional()[1]);
  const auto* bytes = reinterpret_cast<const Byte*>(data->data());

  RewriteOptions options = parse_rewrite_options(args);
  auto reply = serve::submit_over_socket(*socket_path, ByteView(bytes, data->size()), options);
  if (!reply.ok()) cli::die(reply.error().message);

  if (!cli::write_file(*out_path,
                       std::string(reply->output.begin(), reply->output.end())))
    cli::die("cannot write " + *out_path);
  std::printf("%s -> %s: %zu -> %zu bytes (%s, %.2f ms)\n", args.positional()[1].c_str(),
              out_path->c_str(), data->size(), reply->output.size(),
              serve::source_name(reply->source), reply->wall_ms);
  return 0;
}

int run_batch(const zipr::cli::Args& args, const zipr::RewriteOptions& options) {
  using namespace zipr;
  auto out_dir = args.value("out-dir");
  if (!out_dir) cli::die("batch mode (2+ inputs) requires --out-dir=<dir>");
  std::error_code ec;
  std::filesystem::create_directories(*out_dir, ec);
  if (ec) cli::die("cannot create --out-dir " + *out_dir + ": " + ec.message());

  batch::BatchOptions bopts;
  bopts.jobs = static_cast<int>(cli::checked_u64(args, "jobs", 0, 4096));
  bopts.rewrite = options;

  // Loading is deferred into factories so file I/O parallelizes with
  // rewriting across the pool.
  std::vector<batch::BatchTask> tasks;
  for (const auto& path : args.positional())
    tasks.push_back({path, batch::ImageFactory([path] { return zelf::load_image(path); }),
                     std::nullopt});

  batch::BatchResult result = batch::BatchRewriter(bopts).run(std::move(tasks));

  int failed = 0;
  for (const auto& item : result.items) {
    if (!item.result.ok()) {
      std::fprintf(stderr, "FAIL %s: [%s] %s\n", item.name.c_str(),
                   item.result.error().kind_name(), item.result.error().message.c_str());
      ++failed;
      continue;
    }
    std::string out_path =
        (std::filesystem::path(*out_dir) / std::filesystem::path(item.name).filename()).string();
    auto saved = zelf::save_image(item.result->image, out_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "FAIL %s: cannot save: %s\n", item.name.c_str(),
                   saved.error().message.c_str());
      ++failed;
      continue;
    }
    const auto& in = item.result->instrumentation;
    if (in.candidate_sites > 0)
      std::printf("ok   %s -> %s (%.1f ms; %zu/%zu probes, %.0f%% pruned)\n", item.name.c_str(),
                  out_path.c_str(), item.total_ms, in.probes, in.candidate_sites,
                  in.prune_rate() * 100);
    else
      std::printf("ok   %s -> %s (%.1f ms)\n", item.name.c_str(), out_path.c_str(),
                  item.total_ms);
  }
  const auto& s = result.stats;
  std::printf(
      "batch: %zu ok, %zu failed of %zu on %zu worker(s) in %.1f ms "
      "(item p50 %.1f / p90 %.1f / p99 %.1f ms)\n",
      s.succeeded, s.failed, s.total, s.jobs, s.wall_ms, s.item_total.p50_ms,
      s.item_total.p90_ms, s.item_total.p99_ms);
  return failed == 0 ? 0 : 1;
}

// Per-stage novelty attribution: which mutation stages are actually
// earning corpus entries and crashes (a campaign admitting only havoc
// has exhausted its deterministic frontier; one admitting nothing is
// gated -- see --transform=laf).
void print_stage_counters(const zipr::fuzz::StageCounters& stages) {
  using namespace zipr;
  std::printf("stages:");
  for (std::size_t i = 0; i < fuzz::kStageCount; ++i)
    std::printf(" %s %" PRIu64 "+%" PRIu64 "c",
                fuzz::stage_name(static_cast<fuzz::MutationStage>(i)), stages.admitted[i],
                stages.crashes[i]);
  std::printf(" (admissions+crashes by producing stage)\n");
}

void save_crash_input(const zipr::cli::Args& args, std::size_t i, const zipr::Bytes& input) {
  using namespace zipr;
  auto dir = args.value("crash-dir");
  if (!dir) return;
  std::error_code ec;
  std::filesystem::create_directories(*dir, ec);
  if (ec) cli::die("cannot create --crash-dir " + *dir + ": " + ec.message());
  std::string path = (std::filesystem::path(*dir) / ("crash-" + std::to_string(i))).string();
  if (!cli::write_file(path, std::string(input.begin(), input.end())))
    cli::die("cannot write " + path);
}

// Sharded campaign (--shards=N>1): the farm orchestrator. Results are
// invariant to the shard/worker counts; only throughput changes.
int run_farm(const zipr::cli::Args& args, const zipr::zelf::Image& instrumented,
             const std::vector<zipr::Bytes>& seeds, const zipr::farm::FarmOptions& fopts) {
  using namespace zipr;
  auto result = farm::run_campaign(instrumented, seeds, fopts);
  if (!result.ok()) cli::die(result.error().message);

  const auto& s = result->stats;
  std::printf(
      "farm: %" PRIu64 " execs over %" PRIu64 " epochs x %zu shard(s) (%.0f/sec), corpus %zu "
      "(%" PRIu64 " synced, %" PRIu64 " sync rejects), map %zu/%zu indices, %zu unique "
      "crash(es), %" PRIu64 " cross-shard duplicate(s)\n",
      s.execs, s.epochs, fopts.shards, s.execs_per_sec, result->corpus.size(),
      s.imported_entries, s.rejected_duplicates, s.map_indices_hit, fuzz::kMapSize,
      result->crashes.size(), s.duplicate_crashes);
  print_stage_counters(s.stages);
  for (std::size_t i = 0; i < result->crashes.size(); ++i) {
    const auto& c = result->crashes[i];
    std::printf("crash %zu: %s at %s (path %016" PRIx64 ", input %zu bytes; first seen epoch "
                "%" PRIu64 " stream %zu shard %zu, %zu duplicate sighting(s))\n",
                i, vm::fault_name(c.crash.fault), hex_addr(c.crash.fault_pc).c_str(),
                c.crash.path, c.crash.input.size(), c.origin.epoch, c.origin.stream,
                c.origin.shard, c.duplicates.size());
    save_crash_input(args, i, c.crash.input);
  }
  return result->crashes.empty() ? 0 : 1;
}

int run_fuzz(const zipr::cli::Args& args) {
  using namespace zipr;
  cli::check_flags(args, with_flags(kRewriteFlags,
                                    {"runs=", "jobs=", "input=", "crash-dir=", "shards="}));
  if (args.positional().size() != 2)
    cli::die("fuzz mode takes exactly one input image: zipr-cli fuzz <input.zelf>");

  RewriteOptions options = parse_rewrite_options(args);
  if (options.transforms.empty()) options.transforms = {"cov"};
  farm::FarmOptions fopts;
  fopts.seed = options.seed;
  // --shards=0 is rejected by name (min 1); 1 = plain single-stream fuzz
  // on the calling thread, which --jobs does not affect.
  fopts.shards = static_cast<std::size_t>(cli::checked_u64(args, "shards", 1, 4096, 1));
  fopts.jobs = static_cast<int>(cli::checked_u64(args, "jobs", 0, 4096));
  fopts.max_execs = cli::checked_u64(args, "runs", 20000);

  auto input = zelf::load_image(args.positional()[1]);
  if (!input.ok()) cli::die(input.error().message);
  auto rewritten = rewrite(*input, options);
  if (!rewritten.ok()) cli::die("instrumentation failed: " + rewritten.error().message);

  const auto& in = rewritten->instrumentation;
  if (in.candidate_sites > 0)
    std::printf(
        "instrument: %zu probes for %zu sites (%.0f%% pruned: %zu dominated, %zu collapsed; "
        "%zu edges split, %zu flag saves + %zu reg saves elided, %zu sites flag-live)\n",
        in.probes, in.candidate_sites, in.prune_rate() * 100, in.pruned_dominated,
        in.collapsed_single_pred, in.split_critical_edges, in.elided_flag_saves,
        in.elided_reg_saves, in.skipped_flags);
  if (in.compares_split > 0 || in.compares_skipped > 0)
    std::printf("laf: %zu compare(s) split byte-wise, %zu refused, %zu scratch save fallback(s)\n",
                in.compares_split, in.compares_skipped, in.compare_save_fallbacks);

  std::vector<Bytes> seeds;
  for (const auto& path : args.values("input")) {
    auto data = cli::read_file(path);
    if (!data) cli::die("cannot read seed input " + path);
    seeds.emplace_back(data->begin(), data->end());
  }
  if (seeds.empty()) seeds.push_back(Bytes(4, 0));  // minimal default seed

  if (fopts.shards > 1) return run_farm(args, rewritten->image, seeds, fopts);

  auto result = fuzz::fuzz(rewritten->image, seeds,
                           {.seed = fopts.seed, .max_execs = fopts.max_execs});
  if (!result.ok()) cli::die(result.error().message);

  const auto& s = result->stats;
  std::printf(
      "fuzz: %" PRIu64 " execs in %" PRIu64 " rounds (%.0f/sec, %" PRIu64
      " snapshot resets), corpus %zu, map %zu/%zu indices, %zu unique crash(es)\n",
      s.execs, s.rounds, s.execs_per_sec, s.resets, result->corpus.size(), s.map_indices_hit,
      fuzz::kMapSize, result->crashes.size());
  print_stage_counters(s.stages);
  for (std::size_t i = 0; i < result->crashes.size(); ++i) {
    const auto& c = result->crashes[i];
    std::printf("crash %zu: %s at %s (path %016" PRIx64 ", input %zu bytes)\n", i,
                vm::fault_name(c.fault), hex_addr(c.fault_pc).c_str(), c.path, c.input.size());
    save_crash_input(args, i, c.input);
  }
  return result->crashes.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zipr;
  cli::Args args(argc, argv);
  if (!args.positional().empty() && args.positional()[0] == "fuzz") return run_fuzz(args);
  if (!args.positional().empty() && args.positional()[0] == "serve") return run_serve(args);
  if (!args.positional().empty() && args.positional()[0] == "submit") return run_submit(args);
  cli::check_flags(args, with_flags(kRewriteFlags, {"out=", "out-dir=", "jobs=", "stats",
                                                    "dump-ir=", "list-transforms", "help"}));

  if (args.has("list-transforms")) {
    for (const auto& name : transform::registered_transforms()) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (args.has("help") || args.positional().empty()) {
    std::printf(
        "usage: zipr-cli <input.zelf> --out=<output.zelf>\n"
        "                [--transform=<name>]... [--placement=nearfit|diversity|pinpage]\n"
        "                [--seed=N] [--coalesce|--no-coalesce] [--cov-prune|--no-cov-prune]\n"
        "                [--pin-call-returns] [--naive-pins] [--stats] [--dump-ir=<file>]\n"
        "                [--list-transforms]\n"
        "       zipr-cli <input.zelf>... --out-dir=<dir> [--jobs=N] [shared flags]\n"
        "                (batch mode: rewrites all inputs on --jobs threads)\n"
        "       zipr-cli fuzz <input.zelf> [--runs=N] [--shards=N] [--jobs=N]\n"
        "                [--input=<seed file>]... [--crash-dir=<dir>] [shared rewrite flags]\n"
        "                (coverage-guided fuzzing, default --transform=cov; one shard runs\n"
        "                 on the calling thread, --shards>1 = multi-shard farm whose lanes\n"
        "                 run on --jobs threads, at most --shards, default --shards)\n"
        "       zipr-cli serve --socket=<path> [--jobs=N] [--cache-mb=N] [--no-delta]\n"
        "                [--max-delta-pages=N] [--max-requests=N] [--cache-file=<path>]\n"
        "                (rewrite service: content-addressed cache + delta path;\n"
        "                 serves --jobs connections at once, default all cores)\n"
        "       zipr-cli submit <input.zelf> --socket=<path> --out=<output.zelf>\n"
        "                [shared rewrite flags]\n"
        "                (send one job to a running serve instance)\n");
    return args.has("help") ? 0 : 2;
  }

  RewriteOptions options = parse_rewrite_options(args);

  // --jobs sizes the batch pool; a single --out rewrite has none.
  if (args.has("jobs") && !args.has("out-dir"))
    cli::die("--jobs=N requires --out-dir=<dir> (batch mode)");
  // 2+ inputs (or an explicit --out-dir): corpus batch mode.
  if (args.positional().size() > 1 || args.has("out-dir")) return run_batch(args, options);

  auto out_path = args.value("out");
  if (!out_path) cli::die("--out=<path> is required");

  auto input = zelf::load_image(args.positional()[0]);
  if (!input.ok()) cli::die(input.error().message);

  // --dump-ir stops after IR construction + transforms: the tool-to-tool
  // exchange format the IRDB exists for.
  if (auto dump_path = args.value("dump-ir")) {
    auto prog = analysis::build_ir(*input, options.analysis);
    if (!prog.ok()) cli::die(prog.error().message);
    auto applied = apply_transforms(*prog, options);
    if (!applied.ok()) cli::die(applied.error().message);
    if (!cli::write_file(*dump_path, irdb::serialize(prog->db)))
      cli::die("cannot write " + *dump_path);
    std::printf("IR dumped to %s (%zu instructions, %zu pins, %zu functions)\n",
                dump_path->c_str(), prog->db.insn_count(), prog->db.pins().size(),
                prog->db.function_count());
    return 0;
  }

  auto result = rewrite(*input, options);
  if (!result.ok()) cli::die(result.error().message);

  auto saved = zelf::save_image(result->image, *out_path);
  if (!saved.ok()) cli::die(saved.error().message);

  std::size_t in_size = input->file_size();
  std::size_t out_size = result->image.file_size();
  std::printf("%s -> %s: %zu -> %zu bytes (%+.2f%%)\n", args.positional()[0].c_str(),
              out_path->c_str(), in_size, out_size,
              (static_cast<double>(out_size) / static_cast<double>(in_size) - 1.0) * 100);

  if (args.has("stats")) {
    const auto& a = result->analysis;
    const auto& r = result->reassembly;
    std::printf(
        "analysis:   %zu insns lifted, %zu verbatim ranges (%zu bytes), %zu pins "
        "(%zu covered, %zu dropped), %zu functions, %zu jump tables\n",
        a.code_insns, a.verbatim_ranges, a.verbatim_bytes, a.pins, a.pins_covered,
        a.pins_dropped, a.functions, a.jump_tables);
    std::printf(
        "reassembly: %zu pins (%zu short, %zu long, %zu in-place), %zu sleds, %zu chains, "
        "%zu dollops (%zu splits), %zu insns placed, %" PRIu64 " overflow bytes\n",
        r.pins, r.pin_refs_short, r.pin_refs_long, r.pins_in_place, r.sleds, r.chains,
        r.dollops_placed, r.dollop_splits, r.insns_placed, r.overflow_bytes);
    std::printf(
        "coalescing: %zu dollops coalesced, %zu jumps elided (%.1f%% of continuations), "
        "%" PRIu64 " bytes saved, %" PRIu64 " trailing-jump bytes remain\n",
        r.dollops_coalesced, r.jumps_elided, r.elision_rate() * 100, r.bytes_saved,
        r.trailing_jump_bytes);
    const auto& in = result->instrumentation;
    if (in.candidate_sites > 0)
      std::printf(
          "instrument: %zu probes for %zu sites (%.0f%% pruned: %zu dominated, %zu collapsed; "
          "%zu edges split, %zu flag saves + %zu reg saves elided, %zu sites flag-live)\n",
          in.probes, in.candidate_sites, in.prune_rate() * 100, in.pruned_dominated,
          in.collapsed_single_pred, in.split_critical_edges, in.elided_flag_saves,
          in.elided_reg_saves, in.skipped_flags);
  }
  return 0;
}
