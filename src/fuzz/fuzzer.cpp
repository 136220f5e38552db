#include "fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>

#include "fuzz/mutator.h"

namespace zipr::fuzz {

namespace {

// Rng stream ids carved out of the campaign seed (support/rng.h's
// derive_seed decorrelates adjacent streams, these just keep the spaces
// disjoint and self-describing).
constexpr std::uint64_t kGuestRngStream = 0x6775;     // guest random() syscall
constexpr std::uint64_t kPlannerStreamBase = 1u << 20;  // + round
constexpr std::uint64_t kTaskStreamBase = 1u << 30;     // + global task ordinal

constexpr std::size_t kExecsPerTask = 24;  // inputs one planned task carries

}  // namespace

const char* stage_name(MutationStage stage) {
  switch (stage) {
    case MutationStage::kSeed: return "seed";
    case MutationStage::kDet: return "det";
    case MutationStage::kHavoc: return "havoc";
    case MutationStage::kSplice: return "splice";
  }
  return "?";
}

RunOut summarize(ExecResult& res) {
  RunOut out;
  out.map = std::move(res.map);
  out.crashed = res.crashed;
  out.fault = res.run.fault;
  out.fault_pc = res.run.fault_pc;
  out.exec_insns = res.run.stats.insns;
  out.consumed = res.run.input_bytes_consumed;
  return out;
}

// Word-wise map scans: these run against every executed input, and the
// maps are kMapSize (4096) bytes of mostly zero.
bool has_new_bits(const Bytes& map, const Bytes& virgin) {
  std::size_t i = 0;
  for (; i + 8 <= map.size(); i += 8) {
    std::uint64_t m, v;
    std::memcpy(&m, map.data() + i, 8);
    std::memcpy(&v, virgin.data() + i, 8);
    if (m & ~v) return true;
  }
  for (; i < map.size(); ++i)
    if (map[i] & ~virgin[i]) return true;
  return false;
}

void merge_bits(const Bytes& map, Bytes& virgin) {
  std::size_t i = 0;
  for (; i + 8 <= map.size(); i += 8) {
    std::uint64_t m, v;
    std::memcpy(&m, map.data() + i, 8);
    std::memcpy(&v, virgin.data() + i, 8);
    v |= m;
    std::memcpy(virgin.data() + i, &v, 8);
  }
  for (; i < map.size(); ++i) virgin[i] |= map[i];
}

void recompute_favored(std::vector<CorpusEntry>& corpus) {
  for (auto& e : corpus) e.favored = false;
  for (std::size_t i = 0; i < kMapSize; ++i) {
    std::size_t best = corpus.size();
    std::uint64_t best_score = 0;
    for (std::size_t j = 0; j < corpus.size(); ++j) {
      if (!corpus[j].map[i]) continue;
      const std::uint64_t score =
          static_cast<std::uint64_t>(corpus[j].input.size() + 1) * (corpus[j].exec_insns + 1);
      if (best == corpus.size() || score < best_score) {
        best = j;
        best_score = score;
      }
    }
    if (best != corpus.size()) corpus[best].favored = true;
  }
}

Fuzzer::Fuzzer(const zelf::Image& image, FuzzOptions opts)
    : image_(image),
      opts_(std::move(opts)),
      guest_seed_(derive_seed(opts_.seed, kGuestRngStream)),
      virgin_(kMapSize, 0) {}

void Fuzzer::set_guest_seed(std::uint64_t guest_seed) { guest_seed_ = guest_seed; }

void Fuzzer::record_crash(const RunOut& out, const Bytes& input, MutationStage stage) {
  ++stats_.crashing_execs;
  const std::uint64_t pc =
      image_.segment_containing(out.fault_pc) ? out.fault_pc : kWildFaultPc;
  CrashRec rec;
  rec.input = input;
  rec.stage = stage;
  rec.ordinal = stats_.execs;
  auto [it, fresh] =
      crashes_.try_emplace(CrashKey{out.fault, pc, path_hash(out.map)}, std::move(rec));
  if (fresh) ++stats_.stages.crash(stage);
  (void)it;
}

// Admission cuts the unread tail off the input. That needs no replay:
// receive() is the only syscall that reads input and it returns
// min(count, available), so a run that left bytes unread got every byte it
// asked for, and the cut input replays the same run (only non-crashing
// runs reach here; Fuzzer.TrimmedInputReplaysTheFullRun pins this).
void Fuzzer::admit(Bytes input, RunOut out, MutationStage stage) {
  if (out.consumed < input.size()) input.resize(out.consumed);
  merge_bits(out.map, virgin_);
  CorpusEntry entry;
  entry.input = std::move(input);
  entry.map = std::move(out.map);
  entry.exec_insns = out.exec_insns;
  entry.stage = stage;
  corpus_.push_back(std::move(entry));
  ++stats_.stages.admit(stage);
}

Status Fuzzer::seed_corpus(const std::vector<Bytes>& seeds, Executor& ex) {
  for (const auto& seed_input : seeds) {
    ZIPR_ASSIGN_OR_RETURN(ExecResult res, ex.execute(seed_input, guest_seed_));
    ++stats_.execs;
    RunOut out = summarize(res);
    if (out.crashed) {
      record_crash(out, seed_input, MutationStage::kSeed);
      continue;
    }
    admit(seed_input, std::move(out), MutationStage::kSeed);
  }
  if (corpus_.empty()) {
    // Every seed crashed (or none were given): keep something schedulable.
    CorpusEntry entry;
    entry.input = seeds.empty() ? Bytes{} : seeds.front();
    entry.map.assign(kMapSize, 0);
    corpus_.push_back(std::move(entry));
  }
  recompute_favored(corpus_);
  return Status::success();
}

void Fuzzer::adopt(std::vector<CorpusEntry> corpus, Bytes virgin) {
  corpus_ = std::move(corpus);
  virgin_ = std::move(virgin);
  adopted_ = corpus_.size();
}

std::vector<Fuzzer::Task> Fuzzer::plan_round() {
  const std::size_t tasks_per_round = std::max<std::size_t>(1, opts_.tasks_per_round);
  Rng planner(derive_seed(opts_.seed, kPlannerStreamBase + stats_.rounds));
  std::vector<std::size_t> favored;
  for (std::size_t j = 0; j < corpus_.size(); ++j)
    if (corpus_[j].favored) favored.push_back(j);

  std::vector<Task> tasks(tasks_per_round);
  for (auto& task : tasks) {
    const std::uint64_t ordinal = task_ordinal_++;
    std::size_t pick;
    if (!favored.empty() && planner.chance(3, 4))
      pick = favored[planner.below(favored.size())];
    else
      pick = planner.below(corpus_.size());
    CorpusEntry& entry = corpus_[pick];

    const std::size_t det_total = det_count(entry.input.size());
    if (entry.det_done < det_total) {
      const std::size_t end = std::min(det_total, entry.det_done + kExecsPerTask);
      for (std::size_t i = entry.det_done; i < end; ++i) {
        task.inputs.push_back(det_mutate(entry.input, i));
        task.stages.push_back(MutationStage::kDet);
      }
      entry.det_done = end;
    } else {
      Rng rng(derive_seed(opts_.seed, kTaskStreamBase + ordinal));
      for (std::size_t k = 0; k < kExecsPerTask; ++k) {
        if (corpus_.size() > 1 && rng.chance(1, 4)) {
          std::size_t other = rng.below(corpus_.size() - 1);
          if (other >= pick) ++other;
          task.inputs.push_back(splice_mutate(entry.input, corpus_[other].input, rng));
          task.stages.push_back(MutationStage::kSplice);
        } else {
          task.inputs.push_back(havoc_mutate(entry.input, rng));
          task.stages.push_back(MutationStage::kHavoc);
        }
      }
    }
    task.outs.resize(task.inputs.size());
  }
  return tasks;
}

Status Fuzzer::execute_serial(std::vector<Task>& tasks, Executor& ex) {
  for (auto& task : tasks) {
    for (std::size_t k = 0; k < task.inputs.size(); ++k) {
      ZIPR_ASSIGN_OR_RETURN(ExecResult res, ex.execute(task.inputs[k], guest_seed_));
      task.outs[k] = summarize(res);
    }
  }
  return Status::success();
}

Status Fuzzer::merge_round(std::vector<Task>& tasks, Executor&) {
  // Sequential, in task order; re-checks novelty against the LIVE virgin
  // map so duplicates across the round's tasks collapse to the first.
  for (auto& task : tasks) {
    for (std::size_t k = 0; k < task.inputs.size(); ++k) {
      RunOut& out = task.outs[k];
      ++stats_.execs;
      if (out.crashed) {
        record_crash(out, task.inputs[k], task.stages[k]);
        continue;
      }
      if (has_new_bits(out.map, virgin_))
        admit(std::move(task.inputs[k]), std::move(out), task.stages[k]);
    }
  }
  recompute_favored(corpus_);
  ++stats_.rounds;
  return Status::success();
}

FuzzResult Fuzzer::take_result() {
  FuzzResult result;
  result.corpus = std::move(corpus_);
  for (const auto& [key, rec] : crashes_) {
    Crash c;
    c.fault = std::get<0>(key);
    c.fault_pc = std::get<1>(key);
    c.path = std::get<2>(key);
    c.input = rec.input;
    c.stage = rec.stage;
    result.crashes.push_back(std::move(c));
  }
  stats_.map_indices_hit =
      static_cast<std::size_t>(std::count_if(virgin_.begin(), virgin_.end(),
                                             [](Byte b) { return b != 0; }));
  result.stats = stats_;
  return result;
}

Result<FuzzResult> fuzz(const zelf::Image& instrumented, const std::vector<Bytes>& seeds,
                        const FuzzOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  Executor ex(instrumented, opts.limits);
  Fuzzer fz(instrumented, opts);

  ZIPR_TRY(fz.seed_corpus(seeds, ex));
  while (fz.stats().execs < opts.max_execs) {
    std::vector<Fuzzer::Task> tasks = fz.plan_round();
    ZIPR_TRY(fz.execute_serial(tasks, ex));
    ZIPR_TRY(fz.merge_round(tasks, ex));
  }

  FuzzResult result = fz.take_result();
  result.stats.resets = ex.resets();
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  result.stats.wall_seconds = elapsed.count();
  result.stats.execs_per_sec =
      result.stats.wall_seconds > 0 ? static_cast<double>(result.stats.execs) / result.stats.wall_seconds : 0;
  return result;
}

}  // namespace zipr::fuzz
