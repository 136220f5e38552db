// large: the BM_RewriteLarge synthetic generator at x10 and x50 (about 1.0
// and 5.1 MB of text), seeded, each rewritten one at a time through
// zipr::rewrite as zipr-cli does it: no workspace, jobs 1, allocator
// defaults. One operation is a round rewriting both sizes.
//
// About 45 rounds fit in a 20 s window, so the tail is p90 (4 or 5 rounds
// beyond it).
#include "support/rng.h"
#include "workloads.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

constexpr double kLargeTailPct = 90;

void run_large(const RunConfig& cfg, Report& report) {
  WarnCounter warns;
  const int scales[] = {10, 50};
  std::vector<Subject> subjects;
  std::vector<Bytes> inputs;
  std::vector<std::uint64_t> entries;
  for (int scale : scales)
    entries.push_back(pick_entry(synthetic_kind(scale),
                                 derive_seed(cfg.seed, static_cast<std::uint64_t>(scale)), {},
                                 report.skipped));
  const double setup_s = timed_setup([&] {
    subjects.clear();
    for (std::size_t i = 0; i < entries.size(); ++i)
      subjects.push_back(pool_subject(synthetic_kind(scales[i]), entries[i], 8));
  });
  const RewriteOptions options;  // zipr-cli's defaults: null, nearfit, seed 1
  for (const Subject& s : subjects) inputs.push_back(zelf::write_image(s.program.image));
  std::size_t text_per_round = 0;
  for (const auto& s : subjects) text_per_round += s.text_bytes;

  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> round_ms;
  std::vector<zelf::Image> first_outputs(subjects.size());
  std::vector<std::uint64_t> first_digest(subjects.size(), 0);
  std::vector<std::vector<std::uint64_t>> later_digests;
  std::vector<std::string> errors;
  const Clock::time_point window_start = Clock::now();
  while (round_ms.empty() || seconds_since(window_start) < window) {
    std::vector<std::uint64_t> digests(subjects.size(), 0);
    std::vector<zelf::Image> outputs(subjects.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < subjects.size(); ++i) {
      Result<RewriteResult> r = rewrite(subjects[i].program.image, options);
      if (!r.ok()) {
        errors.push_back(subjects[i].name + ": " + r.error().message);
        continue;
      }
      outputs[i] = std::move(r->image);
    }
    round_ms.push_back(ms_since(t0));
    // Digest outside the timed round; the output images die here.
    for (std::size_t i = 0; i < subjects.size(); ++i)
      if (outputs[i].segments.size() > 0) digests[i] = digest(zelf::write_image(outputs[i]));
    if (round_ms.size() == 1) {
      first_digest = digests;
      first_outputs = std::move(outputs);
    } else {
      later_digests.push_back(std::move(digests));
    }
  }

  for (const auto& e : errors) report.checks.check(false, "rewrite error", e);
  std::vector<double> file_r, exec_r, mem_r;
  std::uint64_t poll_insns = 0;
  const Clock::time_point poll_t0 = Clock::now();
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    if (first_digest[i] == 0) continue;
    PollOutcome o = poll_check(subjects[i], first_outputs[i]);
    report.checks.check(o.functional, "poll divergence", subjects[i].name);
    file_r.push_back(o.file_ratio);
    exec_r.push_back(o.exec_ratio);
    mem_r.push_back(o.mem_ratio);
    poll_insns += o.insns;
  }
  const double poll_s = seconds_since(poll_t0);
  for (const auto& d : later_digests)
    for (std::size_t i = 0; i < subjects.size(); ++i)
      if (first_digest[i] != 0)
        report.checks.check(d[i] == first_digest[i], "output digest unstable", subjects[i].name);

  double total_ms = 0;
  for (double ms : round_ms) total_ms += ms;
  auto& e = report.end_to_end;
  e["setup_s"] = {setup_s, "s"};
  e["op_ms_p50"] = {median(round_ms), "ms"};
  e["op_ms_tail"] = {percentile(round_ms, kLargeTailPct), "ms"};
  e["throughput_per_s"] = {1000.0 * static_cast<double>(round_ms.size()) / total_ms, "1/s"};
  add_ratios(report, file_r, exec_r, mem_r);

  auto& n = report.named;
  n["text_mb_per_s"] = {static_cast<double>(text_per_round) / 1e6 /
                            (median(round_ms) / 1000.0),
                        "MB/s"};
  n["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "one op = x10 + x50 rewrite (%zu B text); tail is p%g of %zu rounds; "
                "%llu WARN lines counted",
                text_per_round, kLargeTailPct, round_ms.size(),
                static_cast<unsigned long long>(warns.lines()));
  report.notes.push_back(buf);
  add_output_digest(report, first_digest);

  if (!cfg.trace) return;

  Tracer tracer;
  LayerCounts counts;
  std::vector<double> untraced_ms;
  // Each input twice, so each side runs first once.
  for (std::size_t k = 0; k < 2 * subjects.size(); ++k) {
    const std::size_t i = k / 2;
    auto out = replay_pair(inputs[i], options, tracer, k + 1, counts, warns, untraced_ms);
    report.checks.check(out.ok() && digest(*out) == first_digest[i], "replay mismatch",
                        subjects[i].name);
  }
  report.per_layer["vm.poll_insns_per_s"] = {static_cast<double>(poll_insns) / poll_s, "1/s"};
  finish_trace(cfg, tracer, counts, untraced_ms, report);
}

}  // namespace perfbench
