// Persistent-mode fuzzing executor (the "fork server" of a binary-only
// AFL, minus the fork): load a cov-instrumented ZELF into a VM once, take
// a whole-machine snapshot after startup, then run inputs back-to-back by
// restoring the snapshot between runs instead of re-linking and re-mapping
// the address space. Dirty-page tracking in vm::Memory makes the restore
// proportional to the pages a run actually wrote, so resets are much
// cheaper than a full VM rebuild (perfbench's `fuzz` workload pays one
// restore per exec).
//
// After every run the executor reads the coverage map (transform/cov.h's
// ABI) straight out of guest memory and bucket-classifies the 8-bit hit
// counts the way AFL does, so "new coverage" is insensitive to loop-count
// jitter.
#pragma once

#include "transform/cov.h"
#include "vm/machine.h"

namespace zipr::fuzz {

/// Classified coverage-map size (one byte per counter index).
inline constexpr std::size_t kMapSize = transform::kCovMapEntries;

/// AFL's hit-count bucketing: collapse a raw 8-bit counter into a power-
/// of-two bucket bitmask so e.g. 5 vs 6 loop iterations look identical but
/// 1 vs 2 vs many do not.
std::uint8_t classify_count(std::uint8_t count);

/// FNV-1a over a classified map: the run's path identity (crash dedup).
std::uint64_t path_hash(ByteView classified_map);

struct ExecResult {
  vm::RunResult run;
  Bytes map;            ///< kMapSize classified counters (all zero when
                        ///< the image carries no coverage segment)
  bool crashed = false; ///< faulted (gas exhaustion is a hang, not a crash)
};

class Executor {
 public:
  /// Maps `image` into a fresh VM and snapshots it. The image is typically
  /// the output of zipr::rewrite with the "cov" transform; uninstrumented
  /// images still execute but report an all-zero map.
  explicit Executor(const zelf::Image& image, vm::RunLimits limits = {});

  /// Run one input from the startup snapshot. `random_seed` seeds the
  /// guest's random() syscall; the fuzzer passes a per-campaign constant
  /// so path identity depends only on the input bytes.
  Result<ExecResult> execute(ByteView input, std::uint64_t random_seed = 0);

  bool instrumented() const { return instrumented_; }
  std::uint64_t resets() const { return resets_; }

 private:
  vm::Machine machine_;
  vm::Machine::Snapshot snapshot_;
  Bytes raw_map_;  ///< reusable peek buffer: no per-run allocation
  std::uint64_t map_addr_ = 0;
  bool instrumented_ = false;
  bool first_run_ = true;
  std::uint64_t resets_ = 0;
};

}  // namespace zipr::fuzz
