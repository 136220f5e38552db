// zipr_perfbench: one workload of the repository benchmark per invocation.
//
//   zipr_perfbench --workload=<corpus|large|serve-mix|fuzz> --seed=N
//                  --seconds=S --trace=<0|1> [--work-dir=DIR] [--commit=REV]
//   zipr_perfbench --census > perfbench/known_unsound.inc
//
// Prints the host, the workload's named figures and notes, then as its
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics with --trace=1.
// --census prints the known-unsound list of the input pools instead.
#include <csignal>
#include <cstring>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "workloads.h"

namespace perfbench {

double timed_setup(const std::function<void()>& setup) {
  // More runs while they add up to under two seconds, so a set-up of a few
  // milliseconds is still a quantile of many. On a shared host, noise comes
  // in bursts of a few tenths of a second that slow some repetitions by up
  // to half: the median of a run's repetitions moved by 29 % between two
  // sets of runs of the same code, while the lower quartile stays near the
  // floor the unslowed repetitions share.
  std::vector<double> s;
  double total = 0;
  for (int i = 0; i < 5 || (total < 2.0 && i < 40); ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    s.push_back(seconds_since(t0));
    total += s.back();
  }
  return percentile(s, 25);
}

void add_ratios(Report& r, const std::vector<double>& file, const std::vector<double>& exec,
                const std::vector<double>& mem) {
  const std::pair<const char*, const std::vector<double>*> kinds[] = {
      {"filesize", &file}, {"exec", &exec}, {"mem", &mem}};
  for (const auto& [kind, ratios] : kinds) {
    const double overhead = geomean_overhead(*ratios);
    r.end_to_end[std::string(kind) + "_ratio"] = {1.0 + overhead, "ratio"};
    r.named[std::string(kind) + "_overhead"] = {overhead, "ratio"};
  }
}

void add_output_digest(Report& r, const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t d : digests)
    h = digest(zipr::ByteView(reinterpret_cast<const zipr::Byte*>(&d), sizeof d), h);
  char buf[64];
  std::snprintf(buf, sizeof buf, "output digest %016llx over %zu outputs",
                static_cast<unsigned long long>(h), digests.size());
  r.notes.push_back(buf);
}

void finish_trace(const RunConfig& cfg, const Tracer& tracer, const LayerCounts& counts,
                  const std::vector<double>& untraced_ms, Report& r) {
  add_layer_metrics(tracer, counts, r.per_layer);
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double traced = mean(tracer.durations_ms("replay")), untraced = mean(untraced_ms);
  r.per_layer["trace.overhead_ms"] = {traced - untraced, "ms"};
  r.per_layer["trace.overhead_frac"] = {untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio"};
  r.per_layer["trace.spans"] = {static_cast<double>(tracer.spans().size()), "count"};
  r.checks.check(tracer.write_chrome_json(cfg.trace_path), "trace write", cfg.trace_path);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// Every per-layer metric a traced run reports, with its unit. A layer the
// workload never reaches reports 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"analysis.linear_sweep_ms", "ms"},     {"analysis.recursive_traversal_ms", "ms"},
    {"analysis.aggregate_ms", "ms"},        {"analysis.compute_pins_ms", "ms"},
    {"analysis.build_ir_ms", "ms"},         {"analysis.build_ir_self_ms_est", "ms"},
    {"analysis.cfg_build_ms", "ms"},        {"analysis.code_insns", "count"},
    {"analysis.pins", "count"},             {"analysis.pins_dropped", "count"},
    {"analysis.disagreements", "count"},    {"analysis.warn_lines", "count"},
    {"irdb.rows_after_ir", "count"},        {"irdb.rows_after_transform", "count"},
    {"transform.cfi_ms", "ms"},             {"transform.cov_ms", "ms"},
    {"transform.laf_ms", "ms"},             {"transform.verify_mandatory_ms", "ms"},
    {"transform.probes", "count"},          {"transform.prune_rate", "ratio"},
    {"zipr.rewrite_self_ms", "ms"},         {"zipr.reassemble_ms", "ms"},
    {"zipr.dollops_placed", "count"},       {"zipr.dollop_splits", "count"},
    {"zipr.sleds", "count"},                {"zipr.chains", "count"},
    {"zipr.elision_rate", "ratio"},         {"zipr.overflow_bytes", "bytes"},
    {"batch.efficiency", "ratio"},          {"batch.item_ms_p50", "ms"},
    {"zelf.read_image_ms", "ms"},           {"zelf.write_image_ms", "ms"},
    {"serve.engine_fresh_ms_p50", "ms"},    {"serve.engine_repeat_ms_p50", "ms"},
    {"serve.engine_edit_ms_p50", "ms"},     {"serve.wait_ms_p50", "ms"},
    {"serve.cache_hit_ratio", "ratio"},     {"serve.delta_hit_ratio", "ratio"},
    {"serve.evictions", "count"},           {"vm.poll_insns_per_s", "1/s"},
    {"fuzz.exec_us", "us"},                 {"fuzz.plan_ms", "ms"},
    {"fuzz.execute_ms", "ms"},              {"fuzz.merge_ms", "ms"},
    {"fuzz.admit_ratio", "ratio"},          {"fuzz.map_indices_hit", "count"},
    {"fuzz.unique_crashes", "count"},       {"farm.epochs", "count"},
    {"farm.imported_entries", "count"},     {"farm.shard_balance", "ratio"},
    {"trace.overhead_ms", "ms"},            {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: zipr_perfbench --workload=<corpus|large|serve-mix|fuzz> "
               "--seed=N --seconds=S --trace=<0|1> [--work-dir=DIR] [--commit=REV]\n"
               "       zipr_perfbench --census\n",
               msg);
  std::exit(2);
}

void print_metrics(const char* prefix, const Metrics& m) {
  for (const auto& [name, metric] : m)
    std::printf("%s %-34s %.6g %s\n", prefix, name.c_str(), metric.value, metric.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown";
  bool have_workload = false, census = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      cfg.workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("bad --seed");
    } else if (const char* v = value("--seconds=")) {
      cfg.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(cfg.seconds > 0)) usage("bad --seconds");
    } else if (const char* v = value("--trace=")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      cfg.trace = v[0] == '1';
    } else if (const char* v = value("--work-dir=")) {
      cfg.work_dir = v;
    } else if (const char* v = value("--commit=")) {
      commit = v;
    } else if (a == "--census") {
      census = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  cfg.nproc = online > 0 ? static_cast<unsigned>(online) : 1u;
  if (census) return run_census(cfg);
  if (!have_workload) usage("--workload is required");
  cfg.trace_path =
      cfg.work_dir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
  // A client writing to a connection the server already closed must see
  // an error, not die.
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("host {\"nproc\": %u, \"hardware_concurrency\": %u, \"cpu\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
              cfg.nproc, std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, json_escape(commit).c_str());
  std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  if (cfg.workload == "corpus") run_corpus(cfg, report);
  else if (cfg.workload == "large") run_large(cfg, report);
  else if (cfg.workload == "serve-mix") run_serve_mix(cfg, report);
  else if (cfg.workload == "fuzz") run_fuzz(cfg, report);
  else usage(("unknown workload " + cfg.workload).c_str());

  for (const auto& name : report.skipped)
    std::printf("note skipped %s: known unsound on the code the benchmark was defined on\n",
                name.c_str());
  for (const auto& note : report.notes) std::printf("note %s\n", note.c_str());
  report.named["inputs_skipped"] = {static_cast<double>(report.skipped.size()), "count"};
  print_metrics("named", report.named);
  const Checks& c = report.checks;
  std::printf("named %-34s %.6g ratio (%llu of %llu checks failed)\n", "ops_failed_frac",
              c.attempted == 0 ? 0.0 : static_cast<double>(c.failed) / static_cast<double>(c.attempted),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.attempted));
  for (const auto& [kind, count] : c.failed_by_kind)
    std::printf("failed %s: %llu\n", kind.c_str(), static_cast<unsigned long long>(count));

  Metrics out = report.end_to_end;
  if (cfg.trace) {
    print_metrics("end_to_end", report.end_to_end);
    out = report.per_layer;
    for (const auto& [name, unit] : kPerLayer)
      if (!out.count(name)) out[name] = {0.0, unit};
  }
  std::string json = "{\"correct\": ";
  json += c.failed == 0 && c.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(c.attempted);
  json += ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : out) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
