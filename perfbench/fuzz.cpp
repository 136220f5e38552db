// fuzz: a cov+laf rewrite of the four cgc::vulnerable_corpus() targets
// (set-up), then farm::run_campaign with 2 shards and a fixed exec budget
// per target. One operation is a round of one campaign per target, each
// with its own campaign seed drawn from the workload seed.
#include <algorithm>

#include "cgc/exploits.h"
#include "farm/farm.h"
#include "support/rng.h"
#include "workloads.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

namespace {

// Exec budget per campaign. The laf-gated target needs enough execs to walk
// its four split compare bytes; at 20000 it is rediscovered on every
// campaign seed tried, the others at 4000.
std::uint64_t exec_budget(const cgc::VulnCb& v) { return v.laf_gated ? 20000 : 4000; }
constexpr std::size_t kShards = 2;
// About 33 rounds fit in a 20 s window, so the tail is p90.
constexpr double kFuzzTailPct = 90;

struct Target {
  cgc::VulnCb vuln;
  zelf::Image instrumented;
  Bytes input;  ///< the original, serialized (traced replay input)
};

RewriteOptions instrument_options() {
  RewriteOptions o;
  o.transforms = {"laf", "cov"};
  return o;
}

// A crash counts as real only if its input also faults the uninstrumented
// original (gas exhaustion is a hang, not a crash).
bool replays_on_original(const cgc::VulnCb& v, const Bytes& input) {
  auto r = vm::run_program(v.image, input);
  return !r.exited && r.fault != vm::Fault::kGasExhausted;
}

}  // namespace

void run_fuzz(const RunConfig& cfg, Report& report) {
  WarnCounter warns;
  std::vector<Target> targets;
  std::vector<double> file_r, exec_r, mem_r;
  std::vector<std::string> setup_errors;
  const double setup_s = timed_setup([&] {
    targets.clear();
    file_r.clear();
    exec_r.clear();
    mem_r.clear();
    setup_errors.clear();
    for (auto& v : cgc::vulnerable_corpus()) {
      auto r = rewrite(v.image, instrument_options());
      if (!r.ok()) {
        setup_errors.push_back(v.name + ": " + r.error().message);
        continue;
      }
      // Overhead of the instrumentation on the benign input.
      auto orig = vm::run_program(v.image, v.benign_input);
      auto inst = vm::run_program(r->image, v.benign_input);
      file_r.push_back(static_cast<double>(r->image.file_size()) /
                       static_cast<double>(v.image.file_size()));
      exec_r.push_back(static_cast<double>(inst.stats.insns) /
                       static_cast<double>(std::max<std::uint64_t>(1, orig.stats.insns)));
      mem_r.push_back(static_cast<double>(inst.stats.max_rss_pages) /
                      static_cast<double>(std::max<std::size_t>(1, orig.stats.max_rss_pages)));
      if (orig.output != inst.output || orig.exit_status != inst.exit_status)
        setup_errors.push_back(v.name + ": benign run diverges after instrumentation");
      Bytes input = zelf::write_image(v.image);
      targets.push_back({std::move(v), std::move(r->image), std::move(input)});
    }
  });
  for (const auto& e : setup_errors) report.checks.check(false, "rewrite error", e);

  auto campaign = [&](const Target& t, std::uint64_t campaign_seed) {
    farm::FarmOptions opts;
    opts.seed = campaign_seed;
    opts.shards = kShards;
    opts.jobs = static_cast<int>(kShards);
    opts.max_execs = exec_budget(t.vuln);
    return farm::run_campaign(t.instrumented, {t.vuln.benign_input}, opts);
  };

  struct Outcome {
    std::size_t target = 0;
    Result<farm::FarmResult> result;
  };
  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> round_ms;
  std::vector<Outcome> outcomes;
  double campaign_s = 0;
  std::uint64_t execs = 0;
  const Clock::time_point window_start = Clock::now();
  while (round_ms.empty() || seconds_since(window_start) < window) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint64_t cs = derive_seed(cfg.seed, 1000 + round_ms.size() * 16 + i);
      const Clock::time_point c0 = Clock::now();
      Result<farm::FarmResult> r = campaign(targets[i], cs);
      campaign_s += seconds_since(c0);
      if (r.ok()) execs += r->stats.execs;
      outcomes.push_back({i, std::move(r)});
    }
    round_ms.push_back(ms_since(t0));
  }

  // ---- checks, after the clock ----
  double epochs = 0, imported = 0, balance = 0, map_hit = 0, crashes = 0;
  std::uint64_t layout_dependent = 0;
  std::vector<std::uint64_t> campaigns(targets.size(), 0), rediscovered(targets.size(), 0);
  for (const auto& o : outcomes) {
    const Target& t = targets[o.target];
    if (!o.result.ok()) {
      report.checks.check(false, "campaign error", t.vuln.name + ": " + o.result.error().message);
      continue;
    }
    // A crash that does not replay is a hijacked transfer landing on an
    // address the rewrite never promised to keep (no pin): counted, not
    // failed.
    bool found = false;
    for (const auto& c : o.result->crashes) {
      const bool real = replays_on_original(t.vuln, c.crash.input);
      layout_dependent += real ? 0 : 1;
      found |= real;
    }
    ++campaigns[o.target];
    rediscovered[o.target] += found ? 1 : 0;
    const auto& s = o.result->stats;
    epochs += static_cast<double>(s.epochs);
    imported += static_cast<double>(s.imported_entries);
    map_hit += static_cast<double>(s.map_indices_hit);
    crashes += static_cast<double>(o.result->crashes.size());
    std::uint64_t lo = ~0ull, hi = 0;
    for (const auto& sh : s.shards) {
      lo = std::min(lo, sh.execs);
      hi = std::max(hi, sh.execs);
    }
    balance += hi == 0 ? 0.0 : static_cast<double>(lo) / static_cast<double>(hi);
  }
  // Fuzzing is a search: a single campaign may miss within its budget (the
  // laf-gated target does about once in a few hundred), so the check is per
  // target over the run, and the per-campaign rate is printed.
  std::string rates = "planted bug rediscovered in";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    report.checks.check(rediscovered[i] > 0, "planted bug not rediscovered", targets[i].vuln.name);
    rates += " " + targets[i].vuln.name + " " + std::to_string(rediscovered[i]) + "/" +
             std::to_string(campaigns[i]);
  }
  report.notes.push_back(rates + " campaigns");

  auto& e = report.end_to_end;
  e["setup_s"] = {setup_s, "s"};
  e["op_ms_p50"] = {median(round_ms), "ms"};
  e["op_ms_tail"] = {percentile(round_ms, kFuzzTailPct), "ms"};
  e["throughput_per_s"] = {static_cast<double>(execs) / campaign_s, "1/s"};
  add_ratios(report, file_r, exec_r, mem_r);
  report.named["fuzz_execs_per_s"] = e["throughput_per_s"];
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "one op = one campaign per target (%zu) at %zu shards; tail is p%g of %zu "
                "rounds; ratios are cov+laf vs original on the benign input; %llu "
                "layout-dependent crash(es) did not replay on the original",
                targets.size(), kShards, kFuzzTailPct, round_ms.size(),
                static_cast<unsigned long long>(layout_dependent));
  report.notes.push_back(buf);
  std::vector<std::uint64_t> outputs;
  for (const Target& t : targets) outputs.push_back(digest(zelf::write_image(t.instrumented)));
  add_output_digest(report, outputs);

  if (!cfg.trace) return;

  Tracer tracer;
  LayerCounts counts;
  auto& p = report.per_layer;
  const double n = outcomes.empty() ? 1.0 : static_cast<double>(outcomes.size());
  p["farm.epochs"] = {epochs / n, "count"};
  p["farm.imported_entries"] = {imported / n, "count"};
  p["farm.shard_balance"] = {balance / n, "ratio"};
  p["fuzz.map_indices_hit"] = {map_hit / n, "count"};
  p["fuzz.unique_crashes"] = {crashes / n, "count"};

  // Instrumentation (set-up work) through the traced replay.
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    auto out = replay_pair(targets[i].input, instrument_options(), tracer, i + 1, counts, warns,
                           untraced_ms);
    report.checks.check(out.ok() && *out == zelf::write_image(targets[i].instrumented),
                        "replay mismatch", targets[i].vuln.name);
  }

  // Executor: back-to-back runs of the benign input from the snapshot.
  constexpr int kRuns = 2000;
  std::uint64_t insns = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    fuzz::Executor ex(targets[i].instrumented);
    (void)ex.execute(targets[i].vuln.benign_input);
    Scope s(&tracer, "fuzz.Executor.execute", 100 + i);
    for (int k = 0; k < kRuns; ++k) {
      auto r = ex.execute(targets[i].vuln.benign_input);
      if (r.ok()) insns += r->run.stats.insns;
    }
  }

  // One campaign stream per target through the Fuzzer round loop.
  constexpr int kRounds = 40;
  double admitted = 0, stream_execs = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    fuzz::FuzzOptions fo;
    fo.seed = derive_seed(cfg.seed, 2000 + i);
    fo.tasks_per_round = 4;
    fuzz::Fuzzer f(targets[i].instrumented, fo);
    fuzz::Executor ex(targets[i].instrumented, fo.limits);
    Status st = f.seed_corpus({targets[i].vuln.benign_input}, ex);
    const std::size_t corpus0 = f.corpus().size();
    const std::uint64_t execs0 = f.stats().execs;
    for (int r = 0; r < kRounds && st.ok(); ++r) {
      std::vector<fuzz::Fuzzer::Task> tasks;
      {
        Scope s(&tracer, "fuzz.plan_round", 200 + i);
        tasks = f.plan_round();
      }
      {
        Scope s(&tracer, "fuzz.execute_serial", 200 + i);
        st = f.execute_serial(tasks, ex);
      }
      if (st.ok()) {
        Scope s(&tracer, "fuzz.merge_round", 200 + i);
        st = f.merge_round(tasks, ex);
      }
    }
    report.checks.check(st.ok(), "campaign error", targets[i].vuln.name);
    admitted += static_cast<double>(f.corpus().size() - corpus0);
    stream_execs += static_cast<double>(f.stats().execs - execs0);
  }

  // One traced round of campaigns, for the trace file.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Scope s(&tracer, "farm.run_campaign", 300 + i);
    report.checks.check(campaign(targets[i], derive_seed(cfg.seed, 1000 + i)).ok(),
                        "campaign error", targets[i].vuln.name);
  }

  const auto total = tracer.total_ms();
  auto total_of = [&](const char* name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const double exec_s = total_of("fuzz.Executor.execute") / 1000.0;
  const double rounds = static_cast<double>(kRounds * targets.size());
  p["fuzz.exec_us"] = {1e6 * exec_s / (kRuns * static_cast<double>(targets.size())), "us"};
  p["vm.poll_insns_per_s"] = {exec_s > 0 ? static_cast<double>(insns) / exec_s : 0.0, "1/s"};
  p["fuzz.plan_ms"] = {total_of("fuzz.plan_round") / rounds, "ms"};
  p["fuzz.execute_ms"] = {total_of("fuzz.execute_serial") / rounds, "ms"};
  p["fuzz.merge_ms"] = {total_of("fuzz.merge_round") / rounds, "ms"};
  p["fuzz.admit_ratio"] = {stream_execs == 0 ? 0.0 : admitted / stream_execs, "ratio"};
  finish_trace(cfg, tracer, counts, untraced_ms, report);
}

}  // namespace perfbench
