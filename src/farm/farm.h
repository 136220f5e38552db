// Multi-shard fuzzing farm: a campaign orchestrator that runs many
// fuzz::Fuzzer streams on a pool of persistent-mode executors and merges
// them at sync epochs -- the ZAFL/StochFuzz-scale workload the Zipr
// executor was built for, and the only way to run a campaign in parallel.
// Its reproducibility contract:
//
//   merged corpus, crash set, and triage keys are a pure function of
//   (image, seeds, campaign seed, run budget) -- NOT of the shard count,
//   the worker count, or any scheduling order.
//
// How that holds (the determinism argument, long form in DESIGN.md):
//
//   * A campaign advances in SYNC EPOCHS. Each epoch spawns
//     kStreamsPerEpoch logical streams; stream s draws all its
//     randomness from
//     derive_seed(campaign_seed, kFarmStreamBase + epoch * streams + s),
//     and every stream shares the campaign-global GUEST seed, so an
//     input's coverage path -- and therefore its CrashKey -- is
//     stream-independent.
//   * Each stream adopts a snapshot of the merged corpus + virgin map
//     and runs kRoundsPerStream plan/execute/merge rounds on ONE
//     persistent executor. Executors are interchangeable (every run
//     restores the same startup snapshot), so which shard's executor a
//     stream lands on cannot leak into its results.
//   * Shards are physical lanes: stream s runs on executor s % shards,
//     streams on the same lane run back-to-back. Changing the shard
//     count changes only the lane assignment; `jobs` (<= shards) only
//     oversubscribes lanes onto fewer threads. Neither is observable.
//   * At the epoch barrier the orchestrator merges sequentially in
//     stream order: deterministic-stage cursors max-merge on the
//     adopted prefix, new entries re-prove novelty against the LIVE
//     global virgin map word-wise (fuzz::has_new_bits/merge_bits), and
//     crashes dedup by CrashKey with the winner rule "lowest (epoch,
//     stream, stream-schedule ordinal) keeps the input"; later sightings
//     are recorded as duplicates, never replace the winner.
#pragma once

#include <vector>

#include "fuzz/fuzzer.h"

namespace zipr::farm {

/// Epoch geometry: logical streams per sync epoch, fuzzer rounds each
/// stream runs between syncs, and tasks per round.
inline constexpr std::size_t kStreamsPerEpoch = 8;
inline constexpr std::size_t kRoundsPerStream = 2;
inline constexpr std::size_t kTasksPerRound = 4;

struct FarmOptions {
  std::uint64_t seed = 1;           ///< campaign seed (streams, guest rng)
  std::size_t shards = 1;           ///< persistent executors (physical lanes)
  int jobs = 0;                     ///< worker threads; <=0 or >shards clamps to shards
  std::uint64_t max_execs = 20000;  ///< stop after at least this many runs
                                    ///< (checked at epoch boundaries)
};

/// Where a crash was first (or subsequently) sighted. `shard` is derived
/// metadata (stream % shards): it names the executor lane for reporting
/// but is excluded from identity -- results compare equal across shard
/// counts.
struct CrashOrigin {
  std::uint64_t epoch = 0;
  std::size_t stream = 0;    ///< logical stream within the epoch
  std::uint64_t ordinal = 0; ///< stream-local exec count at the merge
  std::size_t shard = 0;     ///< stream % shards (reporting only)
};

/// A deduped crash plus its winning origin and every later sighting of
/// the same CrashKey (the cross-shard dedup trail).
struct Crash {
  fuzz::Crash crash;
  CrashOrigin origin;
  std::vector<CrashOrigin> duplicates;
};

struct ShardStats {
  std::uint64_t execs = 0;
  std::uint64_t streams_run = 0;
};

struct FarmStats {
  std::uint64_t execs = 0;
  std::uint64_t crashing_execs = 0;
  std::uint64_t epochs = 0;
  std::uint64_t imported_entries = 0;    ///< novelty-bearing entries synced in
  std::uint64_t rejected_duplicates = 0; ///< stream entries with no new bits at sync
  std::uint64_t duplicate_crashes = 0;   ///< later sightings of known CrashKeys
  double wall_seconds = 0;
  double execs_per_sec = 0;
  std::size_t map_indices_hit = 0;
  fuzz::StageCounters stages;        ///< per-stage admissions/crashes, campaign-wide
  std::vector<ShardStats> shards;    ///< per-lane work accounting (scheduling-dependent
                                     ///< wall time aside, exec counts are deterministic)
};

struct FarmResult {
  std::vector<fuzz::CorpusEntry> corpus;
  std::vector<Crash> crashes;        ///< deduped, sorted by CrashKey
  FarmStats stats;
};

/// Run a sharded campaign over a cov-instrumented image. Deterministic in
/// (image, seeds, opts.seed, opts.max_execs); invariant to opts.shards
/// and opts.jobs (wall-clock stats and per-shard accounting aside).
Result<FarmResult> run_campaign(const zelf::Image& instrumented,
                                const std::vector<Bytes>& seeds, const FarmOptions& opts);

}  // namespace zipr::farm
