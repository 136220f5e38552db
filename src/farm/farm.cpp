#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "batch/worker_pool.h"
#include "support/rng.h"

namespace zipr::farm {

namespace {

/// Stream-seed arena. Far above the fuzzer's own planner (1<<20) and task
/// (1<<30) stream bases so a farm stream's derived seed can never collide
/// with a single-campaign stream of the same campaign seed.
constexpr std::uint64_t kFarmStreamBase = 1ull << 40;

/// A crash's global identity + provenance while the campaign runs.
struct CrashSlot {
  fuzz::Fuzzer::CrashRec rec;
  CrashOrigin origin;
  std::vector<CrashOrigin> duplicates;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

Result<FarmResult> run_campaign(const zelf::Image& instrumented,
                                const std::vector<Bytes>& seeds, const FarmOptions& opts) {
  if (opts.shards == 0) return Error::invalid_argument("farm needs at least one shard");
  const auto t0 = std::chrono::steady_clock::now();

  // Physical lanes: one persistent executor per shard. `jobs` may
  // undersubscribe the lanes (oversubscription the other way -- more
  // jobs than shards -- is clamped: a lane is a serial resource).
  std::vector<fuzz::Executor> executors;
  executors.reserve(opts.shards);
  for (std::size_t p = 0; p < opts.shards; ++p)
    executors.emplace_back(instrumented, fuzz::kRunLimits);
  const int jobs = static_cast<int>(batch::effective_jobs(
      opts.jobs <= 0 ? static_cast<int>(opts.shards) : opts.jobs, opts.shards));

  fuzz::FuzzOptions base;
  base.seed = opts.seed;
  base.max_execs = opts.max_execs;
  base.tasks_per_round = kTasksPerRound;

  FarmResult out;
  FarmStats& st = out.stats;
  st.shards.resize(opts.shards);

  // ---- seed phase (epoch 0): one sequential fuzzer seeds the global
  // state on shard 0, and fixes the campaign-wide guest seed every
  // stream shares (same input => same path => same CrashKey anywhere).
  fuzz::Fuzzer seeder(instrumented, base);
  const std::uint64_t guest_seed = seeder.guest_seed();
  ZIPR_TRY(seeder.seed_corpus(seeds, executors[0]));

  std::vector<fuzz::CorpusEntry> corpus = seeder.corpus();
  Bytes virgin = seeder.virgin();
  std::map<fuzz::CrashKey, CrashSlot> crashes;
  for (const auto& [key, rec] : seeder.crash_log()) {
    CrashSlot slot;
    slot.rec = rec;
    slot.origin = {0, 0, rec.ordinal, 0};
    crashes.emplace(key, std::move(slot));
  }
  st.execs += seeder.stats().execs;
  st.crashing_execs += seeder.stats().crashing_execs;
  st.stages += seeder.stats().stages;  // seed admissions + the crashes above
  st.shards[0].execs += seeder.stats().execs;

  // ---- sync epochs ----
  for (std::uint64_t epoch = 1; st.execs < opts.max_execs; ++epoch) {
    // Build this epoch's streams sequentially: each adopts a snapshot of
    // the merged state and owns a fresh (epoch, stream)-derived seed.
    std::vector<fuzz::Fuzzer> streams;
    streams.reserve(kStreamsPerEpoch);
    for (std::size_t s = 0; s < kStreamsPerEpoch; ++s) {
      fuzz::FuzzOptions fo = base;
      fo.seed = derive_seed(opts.seed,
                            kFarmStreamBase + (epoch - 1) * kStreamsPerEpoch + s);
      streams.emplace_back(instrumented, fo);
      streams.back().set_guest_seed(guest_seed);
      streams.back().adopt(corpus, virgin);
    }

    // Run the lanes in parallel; lane p serially runs every stream
    // s == p (mod shards) on its own executor. parallel_for is the epoch
    // barrier: it gives the sequential sync below happens-before on all
    // stream and executor state.
    std::mutex err_mu;
    Status first_error = Status::success();
    batch::parallel_for(jobs, opts.shards, [&](std::size_t p) {
      for (std::size_t s = p; s < streams.size(); s += opts.shards) {
        for (std::size_t r = 0; r < kRoundsPerStream; ++r) {
          auto tasks = streams[s].plan_round();
          Status status = streams[s].execute_serial(tasks, executors[p]);
          if (status.ok()) status = streams[s].merge_round(tasks, executors[p]);
          if (!status.ok()) {
            std::lock_guard<std::mutex> lock(err_mu);
            if (first_error.ok()) first_error = std::move(status);
            return;
          }
        }
      }
    });
    ZIPR_TRY(std::move(first_error));

    // Sequential merge in stream order -- the deterministic winner rule
    // "lowest (epoch, stream, ordinal)" falls out of insertion order.
    for (std::size_t s = 0; s < streams.size(); ++s) {
      fuzz::Fuzzer& fz = streams[s];
      const std::size_t shard = s % opts.shards;

      // Deterministic-stage cursors advance monotonically; keep the
      // furthest progress any stream made on the shared prefix.
      for (std::size_t i = 0; i < fz.adopted() && i < corpus.size(); ++i)
        corpus[i].det_done = std::max(corpus[i].det_done, fz.corpus()[i].det_done);

      // Novelty-bearing entries: re-prove against the LIVE virgin map
      // (an earlier stream may have claimed the same word this epoch).
      for (std::size_t i = fz.adopted(); i < fz.corpus().size(); ++i) {
        const fuzz::CorpusEntry& entry = fz.corpus()[i];
        if (fuzz::has_new_bits(entry.map, virgin)) {
          fuzz::merge_bits(entry.map, virgin);
          corpus.push_back(entry);
          ++st.imported_entries;
          ++st.stages.admit(entry.stage);
        } else {
          ++st.rejected_duplicates;
        }
      }

      // Cross-shard crash dedup by CrashKey: first sighting in (epoch,
      // stream, ordinal) order wins; later ones join the duplicate trail.
      for (const auto& [key, rec] : fz.crash_log()) {
        const CrashOrigin origin{epoch, s, rec.ordinal, shard};
        auto [it, fresh] = crashes.try_emplace(key);
        if (fresh) {
          it->second.rec = rec;
          it->second.origin = origin;
          ++st.stages.crash(rec.stage);
        } else {
          it->second.duplicates.push_back(origin);
          ++st.duplicate_crashes;
        }
      }

      st.execs += fz.stats().execs;
      st.crashing_execs += fz.stats().crashing_execs;
      st.shards[shard].execs += fz.stats().execs;
      ++st.shards[shard].streams_run;
    }
    fuzz::recompute_favored(corpus);
    st.epochs = epoch;
  }

  out.corpus = std::move(corpus);
  for (auto& [key, slot] : crashes) {
    Crash c;
    c.crash.fault = std::get<0>(key);
    c.crash.fault_pc = std::get<1>(key);
    c.crash.path = std::get<2>(key);
    c.crash.input = std::move(slot.rec.input);
    c.crash.stage = slot.rec.stage;
    c.origin = slot.origin;
    c.duplicates = std::move(slot.duplicates);
    out.crashes.push_back(std::move(c));
  }
  for (Byte b : virgin)
    if (b != 0) ++st.map_indices_hit;
  st.wall_seconds = seconds_since(t0);
  st.execs_per_sec = st.wall_seconds > 0 ? static_cast<double>(st.execs) / st.wall_seconds : 0;
  return out;
}

}  // namespace zipr::farm
