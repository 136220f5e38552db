// Pinned-address analysis (paper Sec. II-A2).
//
// A pinned address is an original-program location that runtime control
// flow may reach indirectly; the rewritten binary must make "executing
// address a" behave as "executing a's (possibly transformed) instruction".
// Correctness requires B (true indirect branch targets) to be a subset of
// P (pinned addresses); efficiency degrades as |P - B| grows -- a relation
// the pinning ablation benchmark measures directly.
//
// Pin sources reproduced from the paper:
//   * the program entry point;
//   * jump-table slots;
//   * code addresses materialized as immediates (function pointers) or
//     found as aligned words in data segments;
//   * targets of control transfers embedded in verbatim (Case 2/3) byte
//     ranges, plus the fallthrough address at a verbatim range's end --
//     those instructions execute in place with their ORIGINAL
//     displacements, so whatever they reach must stay reachable at its
//     original address;
//   * optionally, call-return sites ("immediately after call
//     instructions" -- conservative, P grows beyond B);
//   * optionally, every instruction (the naive P assignment the paper
//     mentions and rejects; kept for the ablation);
//   * optionally, a random extra fraction of instruction addresses
//     (sweeping |P - B| for the ablation).
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "analysis/disasm.h"
#include "support/rng.h"

namespace zipr::analysis {

/// Why an address is pinned (bitmask; an address can have several reasons).
enum PinReason : std::uint32_t {
  kPinEntry = 1u << 0,
  kPinJumpTable = 1u << 1,
  kPinCodeConst = 1u << 2,     ///< immediate in code names this address
  kPinDataConst = 1u << 3,     ///< data word names this address
  kPinVerbatimTarget = 1u << 4,///< verbatim-embedded branch reaches it
  kPinVerbatimFall = 1u << 5,  ///< fallthrough off the end of a verbatim range
  kPinCallReturn = 1u << 6,    ///< conservative call-return-site pin
  kPinNaive = 1u << 7,         ///< pin-all mode
  kPinExtra = 1u << 8,         ///< ablation-injected extra pin
  kPinExport = 1u << 9,        ///< exported entry point (library ABI surface)
};

struct PinningOptions {
  /// Pin the address after every call. The paper lists call-return sites
  /// among possible IBTs; on VLX this is provably unnecessary (calls push
  /// the RELOCATED return address and only ret consumes it), so the
  /// default is off and the option exists to reproduce the conservative
  /// configuration's cost.
  bool pin_call_returns = false;
  bool naive_pin_all = false;      ///< the paper's rejected P = "everything"
  double extra_pin_fraction = 0.0; ///< ablation: extra |P-B| as a fraction of insns
  std::uint64_t extra_pin_seed = 1;
};

struct PinSet {
  /// Pinned addresses that name definite-code instruction starts; the
  /// reassembler places references at these.
  std::map<std::uint64_t, std::uint32_t> pins;  ///< addr -> PinReason mask
  /// Candidate pins satisfied implicitly because they lie inside verbatim
  /// ranges (the bytes stay at their original addresses).
  std::set<std::uint64_t> covered_by_verbatim;
  /// Candidate pins dropped: they name neither an instruction start nor a
  /// verbatim byte (Case-4-style suspects). Counted as
  /// AnalysisStats::pins_dropped (zipr-cli --stats), not logged.
  std::set<std::uint64_t> dropped;
};

/// Compute the pin set for an aggregated program.
PinSet compute_pins(const zelf::Image& image, const Aggregate& agg,
                    const TraversalResult& recursive, const PinningOptions& opts = {});

}  // namespace zipr::analysis
