// The coverage-guided fuzzer core: corpus scheduling, coverage-novelty
// admission and crash triage.
//
// Determinism design: a campaign advances in rounds. At every round
// boundary a sequential planner snapshots the corpus, picks entries
// (favored first) and emits a fixed number of tasks, each a concrete list
// of mutated inputs -- deterministic stages are pure index enumerations
// (mutator.h) and randomized stages draw from per-task Rng streams derived
// from (campaign seed, global task ordinal). The tasks then run back to
// back on one persistent executor, and their results are merged in task
// order. Executors are interchangeable because each run starts from the
// same startup snapshot, so nothing observable depends on which executor
// ran an input.
//
// The machinery is exposed as the `Fuzzer` class -- one campaign stream's
// corpus/virgin/crash state plus the plan/execute/merge round loop.
// `fuzz()` below runs one stream on the calling thread; the multi-shard
// farm (src/farm) runs many streams, each on a lane's persistent
// executor, and merges them deterministically at sync epochs. The farm's
// shards are the only way to run a campaign in parallel.
#pragma once

#include <array>
#include <map>
#include <tuple>
#include <vector>

#include "fuzz/executor.h"

namespace zipr::fuzz {

/// Per-run gas and output budget of a campaign's executors.
inline constexpr vm::RunLimits kRunLimits{.max_insns = 2'000'000, .max_output = 1 << 20};

struct FuzzOptions {
  std::uint64_t seed = 1;          ///< campaign seed (mutations + scheduling)
  std::uint64_t max_execs = 20000; ///< stop after at least this many runs
                                   ///< (checked at round boundaries)
  std::size_t tasks_per_round = 8; ///< tasks each round plans
  vm::RunLimits limits = kRunLimits;
};

/// Which mutation stage produced an input. Satellite visibility for "why
/// is this campaign stalling": a campaign that admits only havoc entries
/// has exhausted its deterministic frontier; one that admits nothing at
/// all is gated (see the laf transform).
enum class MutationStage : std::uint8_t { kSeed = 0, kDet = 1, kHavoc = 2, kSplice = 3 };

inline constexpr std::size_t kStageCount = 4;

const char* stage_name(MutationStage stage);

/// Per-stage novelty counters: corpus admissions and unique crashes
/// attributed to the stage that produced the input.
struct StageCounters {
  std::array<std::uint64_t, kStageCount> admitted{};
  std::array<std::uint64_t, kStageCount> crashes{};

  std::uint64_t& admit(MutationStage s) { return admitted[static_cast<std::size_t>(s)]; }
  std::uint64_t& crash(MutationStage s) { return crashes[static_cast<std::size_t>(s)]; }

  StageCounters& operator+=(const StageCounters& o) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      admitted[i] += o.admitted[i];
      crashes[i] += o.crashes[i];
    }
    return *this;
  }
};

struct CorpusEntry {
  Bytes input;
  Bytes map;                    ///< classified coverage of this input
  std::uint64_t exec_insns = 0; ///< instructions the run retired
  bool favored = false;         ///< minimal (len x insns) for some map index
  std::size_t det_done = 0;     ///< deterministic-stage progress cursor
  MutationStage stage = MutationStage::kSeed;  ///< stage that produced it
};

/// Crash identity for deduplication: two inputs are "the same bug" when
/// they fault the same way, at the same pc, along the same coverage path.
/// One wrinkle: a hijacked control transfer faults AT the attacker-chosen
/// target, so a raw fault_pc would mint a "new bug" per mutated pointer.
/// Triage therefore collapses fault pcs outside the image's mapped
/// segments to kWildFaultPc and lets the path hash discriminate.
using CrashKey = std::tuple<vm::Fault, std::uint64_t, std::uint64_t>;

/// Sentinel fault_pc for wild transfers (pc outside every image segment).
inline constexpr std::uint64_t kWildFaultPc = ~0ull;

struct Crash {
  vm::Fault fault = vm::Fault::kNone;
  std::uint64_t fault_pc = 0;
  std::uint64_t path = 0;       ///< path_hash of the crashing run's map
  Bytes input;                  ///< first input (in schedule order) to hit it
  MutationStage stage = MutationStage::kSeed;  ///< stage that produced it
};

struct FuzzStats {
  std::uint64_t execs = 0;
  std::uint64_t crashing_execs = 0;  ///< before triage deduplication
  std::uint64_t rounds = 0;
  std::uint64_t resets = 0;       ///< snapshot restores of the executor
  double wall_seconds = 0;
  double execs_per_sec = 0;
  std::size_t map_indices_hit = 0;  ///< distinct map indices ever nonzero
  StageCounters stages;             ///< per-stage admissions / unique crashes
};

struct FuzzResult {
  std::vector<CorpusEntry> corpus;
  std::vector<Crash> crashes;   ///< deduped, sorted by (fault, pc, path)
  FuzzStats stats;
};

/// What execution hands back to the merge, per executed input.
struct RunOut {
  Bytes map;
  bool crashed = false;
  vm::Fault fault = vm::Fault::kNone;
  std::uint64_t fault_pc = 0;
  std::uint64_t exec_insns = 0;
  std::size_t consumed = 0;     ///< input bytes the guest actually read
};

/// Condense an ExecResult for the merge (moves the map out of `res`).
RunOut summarize(ExecResult& res);

/// Word-wise map scans (used per executed input; maps are kMapSize bytes
/// of mostly zero). Exposed so the farm's sync epochs can merge stream
/// virgin maps with the exact same novelty semantics.
bool has_new_bits(const Bytes& map, const Bytes& virgin);
void merge_bits(const Bytes& map, Bytes& virgin);

/// Favored = for some map index, this entry is the cheapest way (smallest
/// input-length x instructions product) to reach it. AFL's queue culling.
void recompute_favored(std::vector<CorpusEntry>& corpus);

/// One campaign stream: corpus + virgin map + deduped crash log + the
/// deterministic plan/execute/merge round loop. All methods are serial;
/// the farm runs whole streams in parallel on per-shard executors.
/// Determinism contract: every observable result is a pure function of
/// (image bytes, adopted state, opts.seed, guest seed) -- never of which
/// executor ran an input, because executors are interchangeable snapshots.
class Fuzzer {
 public:
  /// One planned task: a concrete input list plus the stage that minted
  /// each input. `outs` is filled by the executor side (same length).
  struct Task {
    std::vector<Bytes> inputs;
    std::vector<MutationStage> stages;
    std::vector<RunOut> outs;
  };

  /// Deduped crash record, first occurrence in schedule order wins.
  struct CrashRec {
    Bytes input;
    MutationStage stage = MutationStage::kSeed;
    std::uint64_t ordinal = 0;  ///< execs count when the crash merged
  };

  Fuzzer(const zelf::Image& image, FuzzOptions opts);

  /// Override the guest random() seed. The farm shares one campaign-wide
  /// guest stream across all streams so an input's path identity (and
  /// therefore its CrashKey) is stream-independent.
  void set_guest_seed(std::uint64_t guest_seed);
  std::uint64_t guest_seed() const { return guest_seed_; }

  /// Run + admit the initial seeds (sequential, on `ex`). Installs a
  /// schedulable fallback entry when every seed crashes or none are given.
  Status seed_corpus(const std::vector<Bytes>& seeds, Executor& ex);

  /// Adopt a merged snapshot (farm sync): replaces corpus + virgin; the
  /// adopted prefix is remembered so take-side accessors can tell local
  /// admissions apart from inherited entries.
  void adopt(std::vector<CorpusEntry> corpus, Bytes virgin);

  /// Plan one round: deterministic in (corpus, opts.seed, round count).
  std::vector<Task> plan_round();

  /// Execute planned tasks back-to-back on one executor.
  Status execute_serial(std::vector<Task>& tasks, Executor& ex);

  /// Merge executed tasks sequentially in task order; re-checks novelty
  /// against the live virgin map and cuts each admission to the bytes its
  /// run read.
  // The Executor is unused; ROADMAP item 4 drops it with perfbench's call.
  Status merge_round(std::vector<Task>& tasks, Executor&);

  const std::vector<CorpusEntry>& corpus() const { return corpus_; }
  const Bytes& virgin() const { return virgin_; }
  /// Index of the first locally-admitted entry (== adopted corpus size).
  std::size_t adopted() const { return adopted_; }
  /// Deduped crashes in key order (deterministic), first-sighting inputs.
  const std::map<CrashKey, CrashRec>& crash_log() const { return crashes_; }
  FuzzStats& stats() { return stats_; }
  const FuzzOptions& options() const { return opts_; }

  /// Drain state into a FuzzResult (corpus moved out, crashes sorted by
  /// key, map_indices_hit computed from the virgin map).
  FuzzResult take_result();

 private:
  void admit(Bytes input, RunOut out, MutationStage stage);
  void record_crash(const RunOut& out, const Bytes& input, MutationStage stage);

  const zelf::Image& image_;
  FuzzOptions opts_;
  std::uint64_t guest_seed_;
  std::vector<CorpusEntry> corpus_;
  Bytes virgin_;
  std::map<CrashKey, CrashRec> crashes_;  // ordered: deterministic triage
  FuzzStats stats_;
  std::size_t adopted_ = 0;
  std::uint64_t task_ordinal_ = 0;
};

/// Fuzz a cov-instrumented image starting from `seeds`, on the calling
/// thread and one executor. Runs until opts.max_execs executions have been
/// spent (rounded up to a whole round). Fully deterministic in (image,
/// seeds, opts) -- wall-clock stats aside.
Result<FuzzResult> fuzz(const zelf::Image& instrumented, const std::vector<Bytes>& seeds,
                        const FuzzOptions& opts);

}  // namespace zipr::fuzz
