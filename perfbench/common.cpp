#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>

#include "asm/assembler.h"
#include "support/log.h"
#include "support/rng.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double geomean_overhead(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0;
  double log_sum = 0;
  for (double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / static_cast<double>(ratios.size())) - 1.0;
}

std::uint64_t digest(ByteView bytes, std::uint64_t h) {
  for (Byte b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

double peak_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

void Checks::check(bool ok, const std::string& kind, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (++failed_by_kind[kind] <= 3)
    std::fprintf(stderr, "check failed [%s] %s\n", kind.c_str(), what.c_str());
}

WarnCounter::WarnCounter() {
  set_log_sink([this](LogLevel level, const std::string&) {
    if (level == LogLevel::kWarn) lines_.fetch_add(1, std::memory_order_relaxed);
  });
}

WarnCounter::~WarnCounter() { set_log_sink(nullptr); }

namespace {

struct UnsoundEntry {
  const char* kind;
  std::uint64_t index;
};

// The pool entries the census found mishandled on the seed code, then an
// end marker no kind matches.
constexpr UnsoundEntry kKnownUnsound[] = {
#include "known_unsound.inc"
    {"", 0},
};

}  // namespace

const std::vector<cgc::CbSpec>& corpus_specs() {
  static const std::vector<cgc::CbSpec> specs = cgc::cfe_corpus();
  return specs;
}

std::string synthetic_kind(int scale) { return "x" + std::to_string(scale); }

std::uint64_t pool_seed(const std::string& kind, std::uint64_t index) {
  return derive_seed(digest(ByteView(reinterpret_cast<const Byte*>(kind.data()), kind.size())),
                     index);
}

bool known_unsound(const std::string& kind, std::uint64_t index) {
  for (const UnsoundEntry& e : kKnownUnsound)
    if (e.index == index && kind == e.kind) return true;
  return false;
}

std::uint64_t pick_entry(const std::string& kind, std::uint64_t draw,
                         const std::vector<std::uint64_t>& taken,
                         std::vector<std::string>& skipped) {
  std::uint64_t index = draw % kPoolSize;
  for (std::uint64_t step = 0; step < kPoolSize; ++step, index = (index + 1) % kPoolSize) {
    if (known_unsound(kind, index)) {
      skipped.push_back(kind + "#" + std::to_string(index));
    } else if (std::find(taken.begin(), taken.end(), index) == taken.end()) {
      return index;
    }
  }
  std::fprintf(stderr, "pool %s has no usable entry\n", kind.c_str());
  std::exit(2);
}

Result<cgc::CbProgram> make_synthetic(int scale, std::uint64_t seed) {
  cgc::CbProgram prog;
  prog.spec.name = "synthetic-large-x" + std::to_string(scale);
  prog.spec.seed = seed;
  prog.spec.handlers = 24;
  prog.spec.dispatch = cgc::DispatchMode::kFptrTable;
  prog.spec.filler_funcs = 48 * scale;
  prog.spec.filler_ops = 24;
  prog.spec.straightline = 600 * scale;
  prog.spec.scratch_pages = 4;
  prog.spec.data_in_text = true;
  prog.spec.payload_max = 12;
  ZIPR_ASSIGN_OR_RETURN(std::string src, cgc::generate_cb_source(prog.spec, &prog.payload_len));
  // Widened segment layout, as the micro suite assembles it: the bigger
  // sizes need more text headroom than the default 2 MB gap to rodata.
  assembler::Options opts;
  opts.emit_symbols = false;
  opts.rodata_base = 0x4000000;
  opts.data_base = 0x4100000;
  opts.bss_base = 0x4180000;
  ZIPR_ASSIGN_OR_RETURN(prog.image, assembler::assemble(src, opts));
  return prog;
}

Subject pool_subject(const std::string& kind, std::uint64_t index, int polls) {
  const std::uint64_t seed = pool_seed(kind, index);
  Result<cgc::CbProgram> program = Error::not_found("unknown input kind " + kind);
  if (kind.size() > 1 && kind[0] == 'x') {
    program = make_synthetic(std::stoi(kind.substr(1)), seed);
  } else {
    for (const cgc::CbSpec& spec : corpus_specs()) {
      if (spec.name != kind) continue;
      cgc::CbSpec seeded = spec;
      seeded.seed = seed;
      program = cgc::generate_cb(seeded);
    }
  }
  Subject s;
  s.name = kind + "#" + std::to_string(index);
  if (!program.ok()) {
    std::fprintf(stderr, "generating %s failed: %s\n", s.name.c_str(),
                 program.error().message.c_str());
    std::exit(2);
  }
  s.text_bytes = program->image.text().bytes.size();
  s.polls = cgc::make_polls(*program, polls, derive_seed(seed, 1));
  for (const auto& p : s.polls) s.golden.push_back(vm::run_program(program->image, p.input, p.vm_seed));
  s.program = std::move(*program);
  return s;
}

PollOutcome poll_check(const Subject& s, const zelf::Image& rewritten) {
  PollOutcome out;
  out.functional = true;
  out.file_ratio = static_cast<double>(rewritten.file_size()) /
                   static_cast<double>(s.program.image.file_size());
  std::uint64_t orig_insns = 0, new_insns = 0, orig_pages = 0, new_pages = 0;
  for (std::size_t i = 0; i < s.polls.size(); ++i) {
    const vm::RunResult& g = s.golden[i];
    vm::RunResult r = vm::run_program(rewritten, s.polls[i].input, s.polls[i].vm_seed);
    out.functional &= g.exited == r.exited && g.exit_status == r.exit_status &&
                      g.fault == r.fault && g.output == r.output;
    orig_insns += g.stats.insns;
    new_insns += r.stats.insns;
    orig_pages += g.stats.max_rss_pages;
    new_pages += r.stats.max_rss_pages;
  }
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 1.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  out.exec_ratio = ratio(new_insns, orig_insns);
  out.mem_ratio = ratio(new_pages, orig_pages);
  out.insns = orig_insns + new_insns;
  return out;
}

// ---- Tracer ----

int Tracer::open(const std::string& name, std::uint64_t request, bool shadow) {
  const double now = std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  Span s;
  s.name = name;
  s.start_us = now;
  s.end_us = now;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.shadow = shadow;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const auto& s : spans_) out[s.name] += (s.end_us - s.start_us) / 1000.0;
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1000.0);
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one span never overlap each other (spans nest), so self time is duration minus the summed child durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1000.0;
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"request\":%llu}}%s\n",
                  s.name.c_str(), s.shadow ? "shadow" : "pipeline", s.start_us,
                  s.end_us - s.start_us, i, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
