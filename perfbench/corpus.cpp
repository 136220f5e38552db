// corpus: the 62 cfe_corpus() CBs drawn from their pools by the workload
// seed (structure unchanged, generator seed per pool entry), each
// rewritten serially under null and cfi (nearfit, the paper's CGC
// configuration) as zipr-cli makes the call, then the whole set batch
// rewritten at jobs = nproc. Outputs are poll-checked in the VM.
#include <algorithm>

#include "batch/batch_rewriter.h"
#include "support/rng.h"
#include "workloads.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

namespace {

// cb_062's two rewrites are 2 of every 124, so p99 lands among them: the
// tail is the pin-dense CB's typical time, not host noise.
constexpr double kTailPct = 99;

struct Job {
  std::size_t subject = 0;
  RewriteOptions options;
  std::string config;
};

std::vector<Job> make_jobs(std::size_t subjects) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < subjects; ++i) {
    Job null_job{i, {}, "null"};
    Job cfi_job{i, {}, "cfi"};
    cfi_job.options.transforms = {"cfi"};
    jobs.push_back(null_job);
    jobs.push_back(cfi_job);
  }
  return jobs;
}

}  // namespace

void run_corpus(const RunConfig& cfg, Report& report) {
  WarnCounter warns;
  std::vector<Subject> subjects;
  std::vector<Bytes> inputs;
  const std::vector<cgc::CbSpec>& specs = corpus_specs();
  std::vector<std::uint64_t> entries;
  for (std::size_t i = 0; i < specs.size(); ++i)
    entries.push_back(pick_entry(specs[i].name, derive_seed(cfg.seed, 100 + i), {}, report.skipped));
  const double setup_s = timed_setup([&] {
    subjects.clear();
    for (std::size_t i = 0; i < specs.size(); ++i)
      subjects.push_back(pool_subject(specs[i].name, entries[i], 4));
  });
  const std::vector<Job> jobs = make_jobs(subjects.size());
  for (const Subject& s : subjects) inputs.push_back(zelf::write_image(s.program.image));
  std::size_t text_per_pass = 0;
  for (const Job& j : jobs) text_per_pass += subjects[j.subject].text_bytes;

  // ---- timed: serial rewrites + one batch per pass ----
  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> rewrite_ms;
  std::vector<zelf::Image> first_outputs(jobs.size());
  std::vector<std::uint64_t> first_digest(jobs.size(), 0);
  std::vector<std::vector<std::uint64_t>> pass_digests;  // later passes + batches
  std::vector<std::string> errors;
  double serial_ms = 0;
  std::size_t passes = 0;
  // Binaries per second of each pass's batch. The median over passes, not
  // the total over the window: on a shared host a few slow batches move the
  // total by more than the bound.
  std::vector<double> batch_rates;
  std::vector<double> item_ms;
  const Clock::time_point window_start = Clock::now();
  while (passes == 0 || seconds_since(window_start) < window) {
    std::vector<std::uint64_t> digests(jobs.size(), 0);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const Job& j = jobs[k];
      const Clock::time_point t0 = Clock::now();
      Result<RewriteResult> r = rewrite(subjects[j.subject].program.image, j.options);
      const double ms = ms_since(t0);
      rewrite_ms.push_back(ms);
      serial_ms += ms;
      if (!r.ok()) {
        errors.push_back(subjects[j.subject].name + "/" + j.config + ": " + r.error().message);
        continue;
      }
      digests[k] = digest(zelf::write_image(r->image));
      if (passes == 0) first_outputs[k] = std::move(r->image);
    }
    if (passes == 0) first_digest = digests;
    else pass_digests.push_back(std::move(digests));

    std::vector<batch::BatchTask> tasks;
    for (const Job& j : jobs)
      tasks.push_back({subjects[j.subject].name + "/" + j.config,
                       subjects[j.subject].program.image, j.options});
    batch::BatchOptions bopts;
    bopts.jobs = static_cast<int>(cfg.nproc);
    const Clock::time_point t0 = Clock::now();
    batch::BatchResult br = batch::BatchRewriter(bopts).run(std::move(tasks));
    batch_rates.push_back(1000.0 * static_cast<double>(br.items.size()) / ms_since(t0));
    std::vector<std::uint64_t> bdigests(jobs.size(), 0);
    for (std::size_t k = 0; k < br.items.size(); ++k) {
      item_ms.push_back(br.items[k].total_ms);
      if (br.items[k].result.ok()) bdigests[k] = digest(zelf::write_image(br.items[k].result->image));
      else errors.push_back(br.items[k].name + " (batch): " + br.items[k].result.error().message);
    }
    pass_digests.push_back(std::move(bdigests));
    ++passes;
  }
  const std::uint64_t window_warns = warns.lines();

  // ---- checks, after the clock ----
  for (const auto& e : errors) report.checks.check(false, "rewrite error", e);
  std::vector<double> file_r, exec_r, mem_r;
  std::uint64_t poll_insns = 0;
  const Clock::time_point poll_t0 = Clock::now();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (first_digest[k] == 0) continue;
    const Subject& s = subjects[jobs[k].subject];
    PollOutcome o = poll_check(s, first_outputs[k]);
    report.checks.check(o.functional, "poll divergence", s.name + "/" + jobs[k].config);
    file_r.push_back(o.file_ratio);
    exec_r.push_back(o.exec_ratio);
    mem_r.push_back(o.mem_ratio);
    poll_insns += o.insns;
  }
  const double poll_s = seconds_since(poll_t0);
  for (const auto& d : pass_digests)
    for (std::size_t k = 0; k < jobs.size(); ++k)
      if (first_digest[k] != 0)
        report.checks.check(d[k] == first_digest[k], "output digest unstable",
                            subjects[jobs[k].subject].name + "/" + jobs[k].config);

  auto& e = report.end_to_end;
  e["setup_s"] = {setup_s, "s"};
  e["op_ms_p50"] = {median(rewrite_ms), "ms"};
  e["op_ms_tail"] = {percentile(rewrite_ms, kTailPct), "ms"};
  e["throughput_per_s"] = {median(batch_rates), "1/s"};
  add_ratios(report, file_r, exec_r, mem_r);

  auto& n = report.named;
  n["rewrite_ms_p50"] = e["op_ms_p50"];
  n["rewrite_ms_tail"] = e["op_ms_tail"];
  n["batch_binaries_per_s"] = e["throughput_per_s"];
  n["text_mb_per_s"] = {static_cast<double>(text_per_pass * passes) / 1e6 / (serial_ms / 1000.0),
                        "MB/s"};
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "rewrite_ms_tail is p%g of %zu serial rewrites (%zu passes of %zu); "
                "%llu WARN lines counted in the window",
                kTailPct, rewrite_ms.size(), passes, jobs.size(),
                static_cast<unsigned long long>(window_warns));
  report.notes.push_back(buf);
  add_output_digest(report, first_digest);

  if (!cfg.trace) return;

  // ---- traced half: one pass of the same rewrites through the replay ----
  Tracer tracer;
  LayerCounts counts;
  std::vector<double> untraced_ms;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& j = jobs[k];
    auto out = replay_pair(inputs[j.subject], j.options, tracer, k + 1, counts, warns, untraced_ms);
    report.checks.check(out.ok() && digest(*out) == first_digest[k], "replay mismatch",
                        subjects[j.subject].name + "/" + j.config);
  }

  // Batch layer: the same set serially and at nproc workers.
  auto batch_wall = [&](int workers) {
    std::vector<batch::BatchTask> tasks;
    for (const Job& j : jobs)
      tasks.push_back({subjects[j.subject].name, subjects[j.subject].program.image, j.options});
    batch::BatchOptions bopts;
    bopts.jobs = workers;
    Scope s(&tracer, "batch.rewrite_batch.jobs" + std::to_string(workers));
    return batch::BatchRewriter(bopts).run(std::move(tasks)).stats.wall_ms;
  };
  const double serial_wall = batch_wall(1);
  const double parallel_wall = batch_wall(static_cast<int>(cfg.nproc));
  auto& p = report.per_layer;
  p["batch.efficiency"] = {serial_wall / (static_cast<double>(cfg.nproc) * parallel_wall), "ratio"};
  p["batch.item_ms_p50"] = {median(item_ms), "ms"};
  p["vm.poll_insns_per_s"] = {static_cast<double>(poll_insns) / poll_s, "1/s"};
  finish_trace(cfg, tracer, counts, untraced_ms, report);
}

}  // namespace perfbench
